package experiments

import (
	"fmt"
	"time"

	"medchain/internal/analytics"
	"medchain/internal/contract"
	"medchain/internal/core"
	"medchain/internal/emr"
	"medchain/internal/offchain"
	"medchain/internal/query"
)

// --- E3: transformed parallel speedup ---

// e3Row compares duplicated vs transformed execution of one analytics
// job at one site count.
type e3Row struct {
	// Sites is the number of data sites (= chain nodes).
	Sites int
	// DupLatency is the duplicated mode's per-node latency (each node
	// runs the full job over the full data).
	DupLatency time.Duration
	// DupTotalCPU is the duplicated cluster's summed compute
	// (Sites × DupLatency).
	DupTotalCPU time.Duration
	// TransLatency is the transformed mode's latency: sites execute
	// their shards on their own machines, so the federation finishes
	// when the slowest site does. Shards run sequentially on the host
	// and the max over sites of each shard's time is reported — the
	// standard single-host simulation of distributed hardware.
	TransLatency time.Duration
	// TransTotalCPU is the summed shard compute (≈ one full job).
	TransTotalCPU time.Duration
	// Speedup is DupLatency/TransLatency.
	Speedup float64
	// CPUSaving is DupTotalCPU/TransTotalCPU.
	CPUSaving float64
}

// e3Config is the speedup sweep.
type e3Config struct {
	// SiteCounts are the fan-outs to sweep.
	SiteCounts []int
	// TotalPatients is the fixed total cohort, sharded across sites
	// (strong scaling).
	TotalPatients int
	// Repeats is how many timed runs each cell takes (min reported).
	Repeats int
}

var e3Sizes = [...]e3Config{
	Full:  {SiteCounts: []int{1, 2, 4, 8}, TotalPatients: 1600, Repeats: 3},
	Quick: {SiteCounts: []int{1, 2, 4}, TotalPatients: 1200, Repeats: 2},
}

// e3Epochs sizes the risk-model training job.
const e3Epochs = 30

// e3ParallelSpeedup measures one fixed risk-model training job (the
// paper's "complicated analytics") in both modes at increasing site
// counts: the transformed architecture's latency shrinks with sites
// while the duplicated baseline stays flat (Fig. 1's promise).
func e3ParallelSpeedup(cfg e3Config, seed int64) ([]e3Row, error) {
	var rows []e3Row
	for _, sites := range cfg.SiteCounts {
		p, err := core.NewPlatform(core.Config{
			Sites:           sites,
			PatientsPerSite: cfg.TotalPatients / sites,
			Seed:            seed,
			KeySeed:         fmt.Sprintf("e3/%d/%d", seed, sites),
		})
		if err != nil {
			return nil, err
		}
		v := &query.Vector{Intent: query.IntentRisk, Condition: emr.CondDiabetes, Epochs: e3Epochs, Seed: seed}
		toolID, params, err := v.Compile()
		if err != nil {
			p.Close()
			return nil, err
		}

		// Repeats are aggregated by MIN, per site: on a shared host,
		// background load only ever inflates a timing, so the minimum is
		// the noise-robust estimate of the true cost, and one site stalled
		// in every repeat is far less likely than some site stalled in each.
		var dupLat time.Duration
		siteLat := make([]time.Duration, sites)
		for r := 0; r < cfg.Repeats; r++ {
			dup, err := p.RunDuplicated(v)
			if err != nil {
				p.Close()
				return nil, err
			}
			if r == 0 || dup.Elapsed < dupLat {
				dupLat = dup.Elapsed
			}

			// Transformed: each site's shard on its own (simulated)
			// machine; latency = slowest site.
			for i, site := range p.Sites() {
				auth := contract.RunAuthorization{
					Tool:       toolID,
					ToolDigest: analytics.Digest(toolID),
					DataDigest: site.DatasetDigest(),
					SiteID:     site.ID(),
					Params:     params,
				}
				rep, err := site.Serve(offchain.Request{Op: offchain.OpRun, Run: &auth})
				if err != nil {
					p.Close()
					return nil, err
				}
				if r == 0 || rep.Run.Elapsed < siteLat[i] {
					siteLat[i] = rep.Run.Elapsed
				}
			}
		}
		p.Close()
		var transLat, transCPU time.Duration
		for _, d := range siteLat {
			transLat, transCPU = max(transLat, d), transCPU+d
		}
		row := e3Row{
			Sites:         sites,
			DupLatency:    dupLat,
			DupTotalCPU:   time.Duration(sites) * dupLat,
			TransLatency:  transLat,
			TransTotalCPU: transCPU,
		}
		if row.TransLatency > 0 {
			row.Speedup = float64(row.DupLatency) / float64(row.TransLatency)
		}
		if row.TransTotalCPU > 0 {
			row.CPUSaving = float64(row.DupTotalCPU) / float64(row.TransTotalCPU)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// verifyE3 holds Fig. 1's promise: at the widest fan-out the parallel
// shards beat the full-data run, and the speedup grew on the way there.
func verifyE3(rows []e3Row) error {
	first, last := rows[0], rows[len(rows)-1]
	if last.Speedup <= 1.0 {
		return fmt.Errorf("experiments: e3: %d-site speedup %.2f ≤ 1", last.Sites, last.Speedup)
	}
	if last.Speedup <= first.Speedup {
		return fmt.Errorf("experiments: e3: speedup did not grow: %.2fx at %d site(s), %.2fx at %d",
			first.Speedup, first.Sites, last.Speedup, last.Sites)
	}
	return nil
}

var e3Columns = []column[e3Row]{
	{"sites", func(r e3Row) string { return fmt.Sprint(r.Sites) }},
	{"dup latency", func(r e3Row) string { return fmtDur(r.DupLatency) }},
	{"dup total CPU", func(r e3Row) string { return fmtDur(r.DupTotalCPU) }},
	{"trans latency", func(r e3Row) string { return fmtDur(r.TransLatency) }},
	{"trans total CPU", func(r e3Row) string { return fmtDur(r.TransTotalCPU) }},
	{"speedup", func(r e3Row) string { return fmt.Sprintf("%.2fx", r.Speedup) }},
	{"CPU saving", func(r e3Row) string { return fmt.Sprintf("%.1fx", r.CPUSaving) }},
}

func runE3(size Size, seed int64) ([]Table, error) {
	rows, err := e3ParallelSpeedup(e3Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E3  Parallel speedup (fixed total cohort, risk-model training): transformed latency falls with sites; duplicated stays flat",
		rows, e3Columns)}, verifyE3(rows)
}

// --- E4: data movement (move computing to data) ---

// e4Row compares bytes moved at one cohort size.
type e4Row struct {
	// PatientsPerSite sizes each of the e4Sites cohorts.
	PatientsPerSite int
	// DatasetBytes is the total serialized record volume.
	DatasetBytes int64
	// CentralizedBytes is what copy-all-to-compute moves (all records
	// once) — and duplicated-chain replication moves (Sites-1)× more.
	CentralizedBytes int64
	// ReplicatedBytes is the full duplicated-chain replication cost.
	ReplicatedBytes int64
	// TransformedBytes is what the transformed mode moves: params in,
	// results out.
	TransformedBytes int64
	// Ratio is CentralizedBytes/TransformedBytes.
	Ratio float64
}

// e4Sizes are the patients-per-site values swept.
var e4Sizes = [...][]int{
	Full:  {50, 100, 200, 400},
	Quick: {50, 100},
}

// e4Sites is the fixed federation size.
const e4Sites = 4

// e4DataMovement measures the bytes that cross site boundaries for the
// same cohort-count query under (a) centralized copy-everything, (b)
// duplicated-chain replication, and (c) the transformed
// compute-to-data mode.
func e4DataMovement(patientsPerSite []int, seed int64) ([]e4Row, error) {
	var rows []e4Row
	for _, pts := range patientsPerSite {
		p, err := core.NewPlatform(core.Config{
			Sites:           e4Sites,
			PatientsPerSite: pts,
			Seed:            seed,
			KeySeed:         fmt.Sprintf("e4/%d/%d", seed, pts),
		})
		if err != nil {
			return nil, err
		}
		researcher, err := grantEverything(p)
		if err != nil {
			p.Close()
			return nil, err
		}
		v := &query.Vector{Intent: query.IntentCount, Condition: emr.CondDiabetes}
		dup, err := p.RunDuplicated(v)
		if err != nil {
			p.Close()
			return nil, err
		}
		trans, err := p.RunTransformed(researcher, v)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.Close()
		datasetBytes := dup.BytesReplicated / (e4Sites - 1)
		row := e4Row{
			PatientsPerSite:  pts,
			DatasetBytes:     datasetBytes,
			CentralizedBytes: datasetBytes,
			ReplicatedBytes:  dup.BytesReplicated,
			TransformedBytes: trans.ResultBytes,
		}
		if row.TransformedBytes > 0 {
			row.Ratio = float64(row.CentralizedBytes) / float64(row.TransformedBytes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// verifyE4 holds "move computing to data": the transformed mode moves
// at least an order of magnitude fewer bytes than copying the records,
// and the gap grows with data size (transformed bytes stay ~constant).
func verifyE4(rows []e4Row) error {
	for _, r := range rows {
		if r.TransformedBytes >= r.CentralizedBytes {
			return fmt.Errorf("experiments: e4 patients=%d: transformed %d ≥ centralized %d bytes",
				r.PatientsPerSite, r.TransformedBytes, r.CentralizedBytes)
		}
		if r.Ratio < 10 {
			return fmt.Errorf("experiments: e4 patients=%d: saving only %.0fx", r.PatientsPerSite, r.Ratio)
		}
	}
	if first, last := rows[0], rows[len(rows)-1]; last.Ratio <= first.Ratio {
		return fmt.Errorf("experiments: e4: saving did not grow with data: %.0fx at %d patients, %.0fx at %d",
			first.Ratio, first.PatientsPerSite, last.Ratio, last.PatientsPerSite)
	}
	return nil
}

var e4Columns = []column[e4Row]{
	{"patients/site", func(r e4Row) string { return fmt.Sprint(r.PatientsPerSite) }},
	{"dataset", func(r e4Row) string { return fmtBytes(r.DatasetBytes) }},
	{"centralized", func(r e4Row) string { return fmtBytes(r.CentralizedBytes) }},
	{"chain-replicated", func(r e4Row) string { return fmtBytes(r.ReplicatedBytes) }},
	{"transformed", func(r e4Row) string { return fmtBytes(r.TransformedBytes) }},
	{"saving", func(r e4Row) string { return fmt.Sprintf("%.0fx", r.Ratio) }},
}

func runE4(size Size, seed int64) ([]Table, error) {
	rows, err := e4DataMovement(e4Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		fmt.Sprintf("E4  Data movement for one cohort query (%d sites): compute-to-data moves results only", e4Sites),
		rows, e4Columns)}, verifyE4(rows)
}

// grantEverything creates a researcher with read+execute on all
// resources.
func grantEverything(p *core.Platform) (*core.Account, error) {
	researcher, err := p.Acquire("researcher")
	if err != nil {
		return nil, err
	}
	if err := p.GrantAll(researcher, []contract.Action{contract.ActionRead, contract.ActionExecute}, ""); err != nil {
		return nil, err
	}
	return researcher, nil
}
