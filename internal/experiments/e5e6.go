package experiments

import (
	"fmt"
	"time"

	"medchain/internal/analytics"
	"medchain/internal/emr"
	"medchain/internal/fl"
	"medchain/internal/ml"
)

// --- E5: heterogeneous data integration (silo breaking) ---

// e5Row is one federation size's integration measurement.
type e5Row struct {
	// Sites is the number of silos integrated.
	Sites int
	// VirtualRecords is the size of the integrated virtual data set.
	VirtualRecords int
	// LargestSilo is the biggest single silo (what a researcher gets
	// without integration — the TCGA-is-too-small argument).
	LargestSilo int
	// Growth is VirtualRecords/LargestSilo.
	Growth float64
	// Lossless reports whether every legacy format round-tripped
	// exactly through the CDF mappers.
	Lossless bool
	// MapThroughput is records mapped to CDF per second.
	MapThroughput float64
}

// e5Config is the integration sweep.
type e5Config struct {
	// SiteCounts are the silo counts to sweep.
	SiteCounts []int
	// PatientsPerSite sizes each silo.
	PatientsPerSite int
}

var e5Sizes = [...]e5Config{
	Full:  {SiteCounts: []int{1, 2, 4, 8, 16}, PatientsPerSite: 250},
	Quick: {SiteCounts: []int{1, 2, 4, 8}, PatientsPerSite: 100},
}

// e5Integration builds a virtual data set from silos that each speak a
// different legacy format (HL7v2-lite, CSV, FHIR-lite round-robin),
// maps everything losslessly into the common data format, and measures
// how the reachable training set grows with participating sites —
// §III.A's "build a large size core training set" mechanism.
func e5Integration(cfg e5Config, seed int64) ([]e5Row, error) {
	var rows []e5Row
	for _, sites := range cfg.SiteCounts {
		virtual := 0
		largest := 0
		lossless := true
		var mapped int
		start := time.Now()
		for s := 0; s < sites; s++ {
			recs := emr.NewGenerator(emr.GenConfig{
				Seed:     seed + int64(s)*131,
				Patients: cfg.PatientsPerSite,
				StartID:  s * cfg.PatientsPerSite,
			}).Generate()
			format := emr.Formats[s%len(emr.Formats)]
			// Encode in the silo's legacy format, then map to CDF the
			// way the monitor node does (Fig. 3).
			data, err := emr.EncodeAs(format, recs, fmt.Sprintf("site-%d", s))
			if err != nil {
				return nil, err
			}
			back, err := emr.DecodeAs(format, data)
			if err != nil {
				return nil, err
			}
			if len(back) != len(recs) {
				lossless = false
			} else {
				for i := range recs {
					if !recs[i].Equal(back[i]) {
						lossless = false
						break
					}
				}
			}
			mapped += len(back)
			virtual += len(back)
			if len(back) > largest {
				largest = len(back)
			}
		}
		elapsed := time.Since(start)
		row := e5Row{
			Sites:          sites,
			VirtualRecords: virtual,
			LargestSilo:    largest,
			Lossless:       lossless,
		}
		if largest > 0 {
			row.Growth = float64(virtual) / float64(largest)
		}
		if elapsed > 0 {
			row.MapThroughput = float64(mapped) / elapsed.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// verifyE5 holds §III.A's mechanism: every legacy format round-trips
// exactly through the CDF mappers, no record is dropped, and the virtual
// data set is as many times the largest silo as there are silos.
func verifyE5(cfg e5Config, rows []e5Row) error {
	for _, r := range rows {
		if !r.Lossless {
			return fmt.Errorf("experiments: e5 sites=%d: format mapping lossy", r.Sites)
		}
		if want := r.Sites * cfg.PatientsPerSite; r.VirtualRecords != want {
			return fmt.Errorf("experiments: e5 sites=%d: %d virtual records, want %d", r.Sites, r.VirtualRecords, want)
		}
		if r.Growth != float64(r.Sites) {
			return fmt.Errorf("experiments: e5 sites=%d: growth %.1fx, want %dx", r.Sites, r.Growth, r.Sites)
		}
	}
	return nil
}

var e5Columns = []column[e5Row]{
	{"sites", func(r e5Row) string { return fmt.Sprint(r.Sites) }},
	{"virtual records", func(r e5Row) string { return fmt.Sprint(r.VirtualRecords) }},
	{"largest silo", func(r e5Row) string { return fmt.Sprint(r.LargestSilo) }},
	{"growth", func(r e5Row) string { return fmt.Sprintf("%.1fx", r.Growth) }},
	{"lossless", func(r e5Row) string { return fmt.Sprint(r.Lossless) }},
	{"records/s", func(r e5Row) string { return fmt.Sprintf("%.0f", r.MapThroughput) }},
}

func runE5(size Size, seed int64) ([]Table, error) {
	cfg := e5Sizes[size]
	rows, err := e5Integration(cfg, seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E5  Heterogeneous integration: virtual dataset grows linearly with silos; HL7/CSV/FHIR map losslessly to CDF",
		rows, e5Columns)}, verifyE5(cfg, rows)
}

// --- E6: federated & transfer learning ---

// e6Row is one training strategy's quality.
type e6Row struct {
	// Strategy names the approach.
	Strategy string
	// AUC / Accuracy on the shared holdout.
	AUC      float64
	Accuracy float64
	// Rounds of communication used (0 for local/centralized).
	Rounds int
	// UplinkBytes is the parameter traffic (0 when no communication).
	UplinkBytes int64
}

// e6TransferRow compares warm vs cold start at one small-site size.
type e6TransferRow struct {
	// LocalSamples is the new site's training-set size.
	LocalSamples int
	// WarmAUC starts from the federated global model.
	WarmAUC float64
	// ColdAUC trains from scratch with the same budget.
	ColdAUC float64
}

// e6Config is the learning comparison.
type e6Config struct {
	// Sites and PatientsPerSite size the federation.
	Sites           int
	PatientsPerSite int
	// Rounds is the FedAvg round count.
	Rounds int
	// HoldoutPatients sizes the shared test cohort.
	HoldoutPatients int
	// TransferSizes are the small-site sample counts to sweep.
	TransferSizes []int
}

var e6Sizes = [...]e6Config{
	Full:  {Sites: 8, PatientsPerSite: 150, Rounds: 20, HoldoutPatients: 1000, TransferSizes: []int{30, 60, 120}},
	Quick: {Sites: 4, PatientsPerSite: 120, Rounds: 12, HoldoutPatients: 600, TransferSizes: []int{40, 80}},
}

// FedAvg's local epochs per round and learning rate (fl.Config).
const (
	e6LocalEpochs  = 2
	e6LearningRate = 0.3
)

// The four strategies E6 compares, by the name their row carries.
const (
	e6Centralized = "centralized (upper bound)"
	e6FedAvg      = "federated (FedAvg)"
	e6SecureAgg   = "federated + secure agg"
	e6Silo        = "single-site local (silo)"
)

// e6Dataset builds one site's standardized diabetes dataset.
func e6Dataset(seed int64, patients, startID int, std *ml.Standardizer) (*ml.Dataset, error) {
	recs := emr.NewGenerator(emr.GenConfig{Seed: seed, Patients: patients, StartID: startID}).Generate()
	ds, err := analytics.RecordsToDataset(recs, emr.CondDiabetes)
	if err != nil {
		return nil, err
	}
	if std != nil {
		ds = std.Apply(ds)
	}
	return ds, nil
}

// e6Federated compares centralized, federated (plain and secure-agg),
// single-site local, and transfer learning on the synthetic diabetes
// task — §III.C's distributed learning claims.
func e6Federated(cfg e6Config, seed int64) ([]e6Row, []e6TransferRow, error) {
	// Fit a global standardizer on a reference cohort (in deployment
	// this is the pooled-moments protocol; equivalent here).
	refRecs := emr.NewGenerator(emr.GenConfig{Seed: seed, Patients: 2000, StartID: 5_000_000}).Generate()
	refDS, err := analytics.RecordsToDataset(refRecs, emr.CondDiabetes)
	if err != nil {
		return nil, nil, err
	}
	std, err := ml.FitStandardizer(refDS)
	if err != nil {
		return nil, nil, err
	}

	clients := make([]*fl.Client, cfg.Sites)
	for i := range clients {
		ds, err := e6Dataset(seed+int64(i)*977, cfg.PatientsPerSite, i*cfg.PatientsPerSite, std)
		if err != nil {
			return nil, nil, err
		}
		clients[i] = &fl.Client{ID: fmt.Sprintf("site-%d", i), Data: ds}
	}
	holdout, err := e6Dataset(seed+424242, cfg.HoldoutPatients, 1_000_000, std)
	if err != nil {
		return nil, nil, err
	}
	dim := holdout.Dim()
	flCfg := fl.Config{
		Rounds: cfg.Rounds, LocalEpochs: e6LocalEpochs,
		LearningRate: e6LearningRate, Seed: seed,
	}

	evaluate := func(m *ml.LogisticModel) (float64, float64, error) {
		met, err := ml.Evaluate(m, holdout)
		if err != nil {
			return 0, 0, err
		}
		return met.AUC, met.Accuracy, nil
	}

	var rows []e6Row

	central, err := fl.Centralized(clients, dim, flCfg)
	if err != nil {
		return nil, nil, err
	}
	auc, acc, err := evaluate(central)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, e6Row{Strategy: e6Centralized, AUC: auc, Accuracy: acc})

	fed, err := fl.FedAvg(clients, dim, flCfg)
	if err != nil {
		return nil, nil, err
	}
	auc, acc, err = evaluate(fed.Model)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, e6Row{
		Strategy: e6FedAvg, AUC: auc, Accuracy: acc,
		Rounds: cfg.Rounds, UplinkBytes: fed.BytesUplinked,
	})

	secCfg := flCfg
	secCfg.SecureAgg = true
	sec, err := fl.FedAvg(clients, dim, secCfg)
	if err != nil {
		return nil, nil, err
	}
	auc, acc, err = evaluate(sec.Model)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, e6Row{
		Strategy: e6SecureAgg, AUC: auc, Accuracy: acc,
		Rounds: cfg.Rounds, UplinkBytes: sec.BytesUplinked,
	})

	local, err := fl.LocalOnly(clients[0], dim, flCfg)
	if err != nil {
		return nil, nil, err
	}
	auc, acc, err = evaluate(local)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, e6Row{Strategy: e6Silo, AUC: auc, Accuracy: acc})

	// Transfer learning: new small sites warm-start from the federated
	// model.
	var transfers []e6TransferRow
	for _, n := range cfg.TransferSizes {
		tiny, err := e6Dataset(seed+777+int64(n), n, 2_000_000+n*1000, std)
		if err != nil {
			return nil, nil, err
		}
		tCfg := fl.Config{LocalEpochs: 3, LearningRate: 0.1, Seed: seed}
		warm, err := fl.Transfer(fed.Model, tiny, tCfg)
		if err != nil {
			return nil, nil, err
		}
		cold := ml.NewLogisticModel(dim)
		if _, err := cold.Train(tiny, ml.TrainConfig{
			Epochs: tCfg.LocalEpochs, LearningRate: tCfg.LearningRate, Seed: tCfg.Seed,
		}); err != nil {
			return nil, nil, err
		}
		// Evaluate on the shared holdout so the comparison is not
		// dominated by tiny-test-set noise.
		warmMet, err := ml.Evaluate(warm, holdout)
		if err != nil {
			return nil, nil, err
		}
		coldMet, err := ml.Evaluate(cold, holdout)
		if err != nil {
			return nil, nil, err
		}
		transfers = append(transfers, e6TransferRow{
			LocalSamples: tiny.Len(), WarmAUC: warmMet.AUC, ColdAUC: coldMet.AUC,
		})
	}
	return rows, transfers, nil
}

// verifyE6 holds §III.C: FedAvg lands within 0.06 AUC of centralized
// training, secure aggregation leaves the model's quality unchanged,
// parameter traffic is accounted, and a warm start from the federated
// model never loses to a cold start at a new small site and beats it at
// one size at least (the jump-start).
func verifyE6(rows []e6Row, transfers []e6TransferRow) error {
	by := map[string]e6Row{}
	for _, r := range rows {
		by[r.Strategy] = r
	}
	central, fed, sec := by[e6Centralized], by[e6FedAvg], by[e6SecureAgg]
	if fed.AUC < central.AUC-0.06 {
		return fmt.Errorf("experiments: e6: federated AUC %.3f too far below centralized %.3f", fed.AUC, central.AUC)
	}
	if fed.AUC-sec.AUC > 1e-6 {
		return fmt.Errorf("experiments: e6: secure aggregation changed quality: AUC %.4f vs %.4f", sec.AUC, fed.AUC)
	}
	if fed.UplinkBytes == 0 {
		return fmt.Errorf("experiments: e6: no uplink accounted")
	}
	jumped := false
	for _, t := range transfers {
		// Three decimals are what the table prints: a warm start that
		// ties a cold one there has not lost to it.
		if t.WarmAUC < t.ColdAUC-0.0005 {
			return fmt.Errorf("experiments: e6: n=%d: warm start %.3f lost to cold start %.3f", t.LocalSamples, t.WarmAUC, t.ColdAUC)
		}
		jumped = jumped || t.WarmAUC > t.ColdAUC+0.0005
	}
	if !jumped {
		return fmt.Errorf("experiments: e6: warm start beat cold start at no site size")
	}
	return nil
}

var e6Columns = []column[e6Row]{
	{"strategy", func(r e6Row) string { return r.Strategy }},
	{"AUC", func(r e6Row) string { return fmt.Sprintf("%.3f", r.AUC) }},
	{"accuracy", func(r e6Row) string { return fmt.Sprintf("%.3f", r.Accuracy) }},
	{"rounds", func(r e6Row) string { return fmt.Sprint(r.Rounds) }},
	{"uplink", func(r e6Row) string { return fmtBytes(r.UplinkBytes) }},
}

var e6TransferColumns = []column[e6TransferRow]{
	{"local n", func(r e6TransferRow) string { return fmt.Sprint(r.LocalSamples) }},
	{"warm AUC", func(r e6TransferRow) string { return fmt.Sprintf("%.3f", r.WarmAUC) }},
	{"cold AUC", func(r e6TransferRow) string { return fmt.Sprintf("%.3f", r.ColdAUC) }},
	{"delta", func(r e6TransferRow) string { return fmt.Sprintf("%+.3f", r.WarmAUC-r.ColdAUC) }},
}

// runE6 pins its own seed: the AUC columns are quality numbers that
// EXPERIMENTS.md records for seed 1's cohorts, not timings to resample.
func runE6(size Size, _ int64) ([]Table, error) {
	rows, transfers, err := e6Federated(e6Sizes[size], 1)
	if err != nil {
		return nil, err
	}
	return []Table{
		tabulate("E6a Distributed learning on the diabetes task (shared holdout): federated ~ centralized >> silo", rows, e6Columns),
		tabulate("E6b Transfer learning at a new small site: warm start from the federated model vs from scratch", transfers, e6TransferColumns),
	}, verifyE6(rows, transfers)
}
