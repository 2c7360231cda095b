package core

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"medchain/internal/analytics"
	"medchain/internal/contract"
	"medchain/internal/emr"
	"medchain/internal/ml"
	"medchain/internal/query"
)

// testPlatform builds a small platform with a fully-granted researcher.
func testPlatform(t *testing.T, sites, patients int) (*Platform, *Account) {
	t.Helper()
	p, err := NewPlatform(Config{
		Sites:           sites,
		PatientsPerSite: patients,
		Seed:            42,
		KeySeed:         "test/" + t.Name(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	researcher, err := p.Acquire("researcher")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.GrantAll(researcher, []contract.Action{
		contract.ActionRead, contract.ActionExecute,
	}, ""); err != nil {
		t.Fatal(err)
	}
	return p, researcher
}

func TestPlatformBootstrap(t *testing.T) {
	p, _ := testPlatform(t, 3, 30)
	datasets := p.Datasets()
	if len(datasets) != 3 {
		t.Fatalf("%d datasets registered", len(datasets))
	}
	for _, ds := range datasets {
		if ds.Records != 30 || ds.SiteID == "" {
			t.Fatalf("dataset %+v", ds)
		}
	}
	state := p.Cluster().Node(0).State()
	if len(state.Tools()) != 4 {
		t.Fatalf("tools registered: %v", state.Tools())
	}
	if err := p.Cluster().VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	if tampered := p.VerifyAllSites(); len(tampered) != 0 {
		t.Fatalf("fresh sites reported tampered: %v", tampered)
	}
}

func TestTransformedQueryCount(t *testing.T) {
	p, researcher := testPlatform(t, 3, 40)
	res, err := p.Query(researcher, "count patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesTotal != 3 || res.SitesSucceeded != 3 || res.SitesDenied != 0 {
		t.Fatalf("participation %+v", res)
	}
	var count analytics.CohortCountResult
	if err := json.Unmarshal(res.Result, &count); err != nil {
		t.Fatal(err)
	}
	if count.Total != 120 {
		t.Fatalf("composed total %d, want 120", count.Total)
	}
	if count.Cases == 0 {
		t.Fatal("no diabetes cases in cohort")
	}
	if res.GasPerNode == 0 {
		t.Fatal("no on-chain gas accounted")
	}
	if res.ResultBytes == 0 {
		t.Fatal("no result bytes accounted")
	}
}

func TestTransformedEqualsDuplicatedResult(t *testing.T) {
	// The transformation must preserve semantics: same analytics
	// answer as the classic full-replication execution.
	p, researcher := testPlatform(t, 4, 30)
	v, err := query.Parse("count women with diabetes aged 40-90")
	if err != nil {
		t.Fatal(err)
	}
	trans, err := p.RunTransformed(researcher, v)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := p.RunDuplicated(v)
	if err != nil {
		t.Fatal(err)
	}
	var a, b analytics.CohortCountResult
	if err := json.Unmarshal(trans.Result, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dup.Result, &b); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("transformed %+v != duplicated %+v", a, b)
	}
}

func TestDuplicatedMetrics(t *testing.T) {
	p, _ := testPlatform(t, 3, 25)
	v := &query.Vector{Intent: query.IntentCount, Condition: emr.CondDiabetes}
	dup, err := p.RunDuplicated(v)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Nodes != 3 {
		t.Fatalf("nodes %d", dup.Nodes)
	}
	if dup.BytesReplicated == 0 {
		t.Fatal("no replication bytes accounted")
	}
	if dup.TotalCPU < dup.Elapsed {
		t.Fatal("total CPU below single-run latency")
	}
}

func TestQueryDeniedWithoutGrants(t *testing.T) {
	p, err := NewPlatform(Config{Sites: 2, PatientsPerSite: 20, Seed: 1, KeySeed: "test/denied"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stranger, err := p.Acquire("stranger")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Query(stranger, "count patients with diabetes")
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
}

func TestQueryPartialDenial(t *testing.T) {
	// Grant execute on only one of two datasets: the query must still
	// succeed over the granted shard and report the denial.
	p, err := NewPlatform(Config{Sites: 2, PatientsPerSite: 20, Seed: 2, KeySeed: "test/partial"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	researcher, err := p.Acquire("researcher")
	if err != nil {
		t.Fatal(err)
	}
	owner0, err := p.Acquire("site-owner-site-0")
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := p.Acquire("tool-vendor")
	if err != nil {
		t.Fatal(err)
	}
	receipts, err := p.transact(
		call{from: owner0, typ: "data", method: "grant", args: contract.GrantArgs{
			Resource: "data:site-0/emr", Grantee: researcher.Address(),
			Actions: []contract.Action{contract.ActionExecute},
		}},
		call{from: vendor, typ: "analytics", method: "grant", args: contract.GrantArgs{
			Resource: "tool:cohort.count", Grantee: researcher.Address(),
			Actions: []contract.Action{contract.ActionExecute},
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range receipts {
		if !r.OK() {
			t.Fatalf("grant failed: %s", r.Err)
		}
	}
	res, err := p.Query(researcher, "count patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesSucceeded != 1 || res.SitesDenied != 1 {
		t.Fatalf("participation %+v", res)
	}
	var count analytics.CohortCountResult
	if err := json.Unmarshal(res.Result, &count); err != nil {
		t.Fatal(err)
	}
	if count.Total != 20 {
		t.Fatalf("partial total %d, want 20", count.Total)
	}
}

func TestQuerySummaryMatchesGroundTruth(t *testing.T) {
	p, researcher := testPlatform(t, 3, 30)
	res, err := p.Query(researcher, "average glucose")
	if err != nil {
		t.Fatal(err)
	}
	var s analytics.Summary
	if err := json.Unmarshal(res.Result, &s); err != nil {
		t.Fatal(err)
	}
	if s.N == 0 || s.Mean < 60 || s.Mean > 200 {
		t.Fatalf("implausible glucose summary %+v", s)
	}
	// Cross-check against the duplicated path (ground truth over the
	// union).
	dup, err := p.RunDuplicated(res.Vector)
	if err != nil {
		t.Fatal(err)
	}
	var w analytics.Summary
	if err := json.Unmarshal(dup.Result, &w); err != nil {
		t.Fatal(err)
	}
	if s.N != w.N || math.Abs(s.Mean-w.Mean) > 1e-9 {
		t.Fatalf("pooled %+v != whole %+v", s, w)
	}
}

func TestQuerySurvival(t *testing.T) {
	p, researcher := testPlatform(t, 2, 60)
	res, err := p.Query(researcher, "survival of patients")
	if err != nil {
		t.Fatal(err)
	}
	var surv analytics.SurvivalResult
	if err := json.Unmarshal(res.Result, &surv); err != nil {
		t.Fatal(err)
	}
	if len(surv.Curve) == 0 {
		t.Fatal("empty survival curve")
	}
}

func TestQueryRiskModel(t *testing.T) {
	p, researcher := testPlatform(t, 2, 80)
	res, err := p.Query(researcher, "train a risk model for diabetes")
	if err != nil {
		t.Fatal(err)
	}
	var model analytics.RiskModelResult
	if err := json.Unmarshal(res.Result, &model); err != nil {
		t.Fatal(err)
	}
	if model.Samples != 160 {
		t.Fatalf("model samples %d", model.Samples)
	}
	if len(model.Params) != len(emr.FeatureNames)+1 {
		t.Fatalf("param dim %d", len(model.Params))
	}
}

func TestFetchRecordsDirectAndViaFDA(t *testing.T) {
	p, researcher := testPlatform(t, 2, 15)
	recs, err := p.FetchRecords(researcher, "site-0/emr", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 15 {
		t.Fatalf("%d records", len(recs))
	}
	recs, err = p.FetchRecords(researcher, "site-1/emr", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 15 {
		t.Fatalf("%d records via FDA", len(recs))
	}
	// Both exchanges audited with a verified chain.
	if p.HIE().Audit().Len() != 2 {
		t.Fatalf("audit entries %d", p.HIE().Audit().Len())
	}
	if err := p.HIE().Audit().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFetchRecordsDenied(t *testing.T) {
	p, err := NewPlatform(Config{Sites: 1, PatientsPerSite: 10, Seed: 3, KeySeed: "test/fetchdenied"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stranger, err := p.Acquire("stranger")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FetchRecords(stranger, "site-0/emr", "", false); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestFederatedTrainOnPlatform(t *testing.T) {
	p, _ := testPlatform(t, 4, 150)
	out, err := p.FederatedTrain(FederatedConfig{
		Condition:    emr.CondDiabetes,
		Rounds:       10,
		LocalEpochs:  2,
		LearningRate: 0.3,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rounds) != 10 || out.BytesUplinked == 0 {
		t.Fatalf("outcome %+v", out.Rounds)
	}
	// Evaluate on a fresh holdout cohort from the same universe.
	hold := emr.NewGenerator(emr.GenConfig{Seed: 9999, Patients: 600, StartID: 900000}).Generate()
	ds, err := analytics.RecordsToDataset(hold, emr.CondDiabetes)
	if err != nil {
		t.Fatal(err)
	}
	met, err := ml.Evaluate(out.Model, out.Standardizer.Apply(ds))
	if err != nil {
		t.Fatal(err)
	}
	if met.AUC < 0.65 {
		t.Fatalf("federated platform AUC %.3f", met.AUC)
	}
}

func TestFederatedSecureAggSameModel(t *testing.T) {
	p, _ := testPlatform(t, 3, 60)
	plain, err := p.FederatedTrain(FederatedConfig{
		Condition: emr.CondDiabetes, Rounds: 4, LocalEpochs: 1, LearningRate: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	secure, err := p.FederatedTrain(FederatedConfig{
		Condition: emr.CondDiabetes, Rounds: 4, LocalEpochs: 1, LearningRate: 0.2, Seed: 5,
		SecureAgg: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pp, sp := plain.Model.Params(), secure.Model.Params()
	for i := range pp {
		diff := pp[i] - sp[i]
		if diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("secure agg changed the model at %d", i)
		}
	}
}

func TestTamperDetection(t *testing.T) {
	p, _ := testPlatform(t, 3, 20)
	if err := p.Sites()[1].Tamper(2, func(r *emr.Record) {
		r.Labs[0].Value = 9999 // falsified lab
	}); err != nil {
		t.Fatal(err)
	}
	tampered := p.VerifyAllSites()
	if len(tampered) != 1 || tampered[0] != "site-1" {
		t.Fatalf("tamper detection found %v", tampered)
	}
}

func TestTamperedSiteRefusesExecution(t *testing.T) {
	p, researcher := testPlatform(t, 2, 20)
	if err := p.Sites()[0].Tamper(0, func(r *emr.Record) {
		r.Labs[0].Value += 1000 // silent falsification
	}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(researcher, "count patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	// The tampered site fails integrity verification; only the clean
	// site contributes.
	if res.SitesSucceeded != 1 {
		t.Fatalf("succeeded %d, want 1 (tampered site must refuse)", res.SitesSucceeded)
	}
}

func TestRunTransformedValidation(t *testing.T) {
	p, researcher := testPlatform(t, 1, 10)
	if _, err := p.RunTransformed(researcher, &query.Vector{Intent: query.IntentFetch}); err == nil {
		t.Fatal("fetch vector accepted by RunTransformed")
	}
	if _, err := p.RunDuplicated(&query.Vector{Intent: query.IntentFetch}); err == nil {
		t.Fatal("fetch vector accepted by RunDuplicated")
	}
	if _, err := p.Query(researcher, "gibberish request"); err == nil {
		t.Fatal("unparseable query accepted")
	}
}

func TestAccountsAreStable(t *testing.T) {
	p, _ := testPlatform(t, 1, 10)
	a1, err := p.Acquire("alice")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Acquire("alice")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("Acquire created a duplicate account")
	}
}

func TestChainStateConsistentAfterWorkload(t *testing.T) {
	p, researcher := testPlatform(t, 3, 20)
	for _, q := range []string{
		"count patients with diabetes",
		"average bmi",
		"survival of patients",
	} {
		if _, err := p.Query(researcher, q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	if err := p.Cluster().VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := p.Cluster().Node(0).Chain().VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestRunSQLFederated(t *testing.T) {
	p, researcher := testPlatform(t, 3, 40)
	res, stats, err := p.RunSQL(researcher, "SELECT count(*), avg(glucose) FROM records WHERE sex = 'F'")
	if err != nil {
		t.Fatal(err)
	}
	if stats.SitesSucceeded != 3 || stats.SitesDenied != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.GasPerNode == 0 {
		t.Fatal("no on-chain gas for SQL authorization")
	}
	if len(res.Rows) != 1 || len(res.Columns) != 2 {
		t.Fatalf("result shape %+v", res)
	}
	out, err := SQLResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Columns []string        `json:"columns"`
		Rows    [][]interface{} `json:"rows"`
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	count, ok := decoded.Rows[0][0].(float64)
	if !ok || count <= 0 || count > 120 {
		t.Fatalf("count cell %v", decoded.Rows[0][0])
	}
}

func TestRunSQLProjectionRespectsPolicy(t *testing.T) {
	p, err := NewPlatform(Config{Sites: 2, PatientsPerSite: 10, Seed: 4, KeySeed: "test/sqlpolicy"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stranger, err := p.Acquire("stranger")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.RunSQL(stranger, "SELECT patient_id FROM records"); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
}

func TestRunSQLBadQuery(t *testing.T) {
	p, researcher := testPlatform(t, 1, 10)
	if _, _, err := p.RunSQL(researcher, "DROP TABLE records"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestRunSQLMatchesDirectScan(t *testing.T) {
	p, researcher := testPlatform(t, 2, 50)
	res, _, err := p.RunSQL(researcher, "SELECT count(*) FROM records WHERE has_diabetes = 1")
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: regenerate the same cohorts and scan.
	want := 0
	for i := 0; i < 2; i++ {
		recs := emr.NewGenerator(emr.GenConfig{
			Seed: 42 + int64(i)*7919, Patients: 50, StartID: i * 50,
		}).Generate()
		for _, r := range recs {
			if r.HasCondition(emr.CondDiabetes) {
				want++
			}
		}
	}
	var decoded struct {
		Rows [][]float64 `json:"rows"`
	}
	out, err := SQLResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	if int(decoded.Rows[0][0]) != want {
		t.Fatalf("sql count %v, want %d", decoded.Rows[0][0], want)
	}
}

func TestDatasetLifecycleRefresh(t *testing.T) {
	p, researcher := testPlatform(t, 2, 20)

	// A wearable feed appends vitals; a new patient is admitted.
	site := p.Sites()[0]
	if err := site.AppendVitals(0,
		emr.VitalSample{Kind: emr.VitalSteps, Value: 9000, At: 1},
		emr.VitalSample{Kind: emr.VitalHR, Value: 64, At: 1},
	); err != nil {
		t.Fatal(err)
	}
	newPatient := emr.NewGenerator(emr.GenConfig{Seed: 555, Patients: 1, StartID: 999000}).Generate()
	if err := site.AppendRecords(newPatient...); err != nil {
		t.Fatal(err)
	}

	// The live data no longer matches the old anchor.
	if tampered := p.VerifyAllSites(); len(tampered) != 1 || tampered[0] != "site-0" {
		t.Fatalf("stale anchor not detected: %v", tampered)
	}
	// Queries against the stale anchor skip the changed site.
	res, err := p.Query(researcher, "count patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesSucceeded != 1 {
		t.Fatalf("stale site participated: %+v", res)
	}

	// Re-anchor: everything is consistent again, with a bumped version.
	if err := p.RefreshDataset("site-0"); err != nil {
		t.Fatal(err)
	}
	if tampered := p.VerifyAllSites(); len(tampered) != 0 {
		t.Fatalf("refresh did not restore integrity: %v", tampered)
	}
	ds, ok := p.Cluster().Node(1).State().Dataset("site-0/emr")
	if !ok {
		t.Fatal("dataset missing")
	}
	if ds.Version != 2 || ds.Records != 21 {
		t.Fatalf("dataset after refresh: version=%d records=%d", ds.Version, ds.Records)
	}
	res, err = p.Query(researcher, "count patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesSucceeded != 2 || res.RecordsCovered != 41 {
		t.Fatalf("post-refresh query %+v", res)
	}
}

func TestUpdateDatasetOnlyOwner(t *testing.T) {
	p, _ := testPlatform(t, 1, 10)
	mallory, err := p.Acquire("mallory")
	if err != nil {
		t.Fatal(err)
	}
	receipts, err := p.transact(call{from: mallory, typ: "data", method: "update_dataset", args: contract.RegisterDatasetArgs{
		ID: "site-0/emr", Records: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].OK() {
		t.Fatal("non-owner updated the dataset anchor")
	}
	receipts, err = p.transact(call{from: mallory, typ: "data", method: "update_dataset", args: contract.RegisterDatasetArgs{
		ID: "ghost",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].OK() {
		t.Fatal("update of unknown dataset accepted")
	}
	if err := p.RefreshDataset("ghost"); err == nil {
		t.Fatal("refresh of unknown site accepted")
	}
}
