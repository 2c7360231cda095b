package experiments

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestExperiments runs every registry entry's Quick sweep — the sizes
// `benchmed -quick` and BenchmarkExperiments run — and requires its
// verify step to hold.
func TestExperiments(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Quick, 1)
			for _, tab := range tables {
				t.Logf("\n%s", tab)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
			}
		})
	}
}

// TestGoldenTables pins table rendering: the entries whose Quick output
// is a pure function of the seed must reproduce, byte for byte, what
// `benchmed -quick -seed 1 -run e2,e4,e6,e7` printed before the tables
// became column specs.
func TestGoldenTables(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_seed1_e2_e4_e6_e7.golden")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{"E2": true, "E4": true, "E6": true, "E7": true}
	var entries []Experiment
	for _, e := range All() {
		if pinned[e.ID] {
			entries = append(entries, e)
		}
	}
	var got bytes.Buffer
	if err := Run(&got, entries, Quick, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("tables drifted from the golden file\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// TestRunReportsFailedVerify: an entry whose sweep contradicts its claim
// still gets its tables printed, Run returns the error under the
// entry's id, and no later entry runs.
func TestRunReportsFailedVerify(t *testing.T) {
	contradiction := errors.New("throughput rose with nodes")
	ranAfter := false
	entries := []Experiment{
		{ID: "X1", Run: func(Size, int64) ([]Table, error) {
			return []Table{{Title: "X1 fake", Header: []string{"nodes"}, Rows: [][]string{{"8"}}}}, contradiction
		}},
		{ID: "X2", Run: func(Size, int64) ([]Table, error) { ranAfter = true; return nil, nil }},
	}
	var out bytes.Buffer
	err := Run(&out, entries, Quick, 1)
	if !errors.Is(err, contradiction) || !strings.HasPrefix(err.Error(), "x1: ") {
		t.Fatalf("Run error = %v, want the verify error under the entry's id", err)
	}
	if !strings.Contains(out.String(), "X1 fake\nnodes\n-----\n8    \n") {
		t.Fatalf("tables of the failed entry not printed:\n%s", out.String())
	}
	if ranAfter {
		t.Fatal("Run went on past the failed entry")
	}
}

// TestDocsCoverRegistry holds the two documents that index the suite to
// the registry, both ways: every entry has its section in EXPERIMENTS.md
// and its row in DESIGN.md §4's table, ids are unique, and every
// experiment section or row in those documents names a registry entry —
// except E11, the `benchmed -run sim` soak that lives in internal/sim.
func TestDocsCoverRegistry(t *testing.T) {
	recorded, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	start, end := bytes.Index(design, []byte("\n## 4. ")), bytes.Index(design, []byte("\n## 5. "))
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 followed by §5")
	}
	index := design[start:end]
	seen := map[string]bool{"E11": true}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("%s is in the registry twice", e.ID)
		}
		seen[e.ID] = true
		if e.Claim == "" {
			t.Errorf("%s has no claim", e.ID)
		}
		if !regexp.MustCompile(`(?m)^## ` + e.ID + ` — `).Match(recorded) {
			t.Errorf("EXPERIMENTS.md has no `## %s — ` section", e.ID)
		}
		if !regexp.MustCompile(`(?m)^\| ` + e.ID + ` \|`).Match(index) {
			t.Errorf("DESIGN.md §4 has no `| %s |` row", e.ID)
		}
	}
	for doc, text := range map[string][]byte{"EXPERIMENTS.md": recorded, "DESIGN.md §4": index} {
		for _, m := range regexp.MustCompile(`(?m)^(?:## ([EA]\d+) — |\| ([EA]\d+) \|)`).FindAllSubmatch(text, -1) {
			if id := string(m[1]) + string(m[2]); !seen[id] {
				t.Errorf("%s has %q for %s, which is not in the registry", doc, m[0], id)
			}
		}
	}
}

// The tests below keep each verify step honest: it must accept rows that
// fit its claim and reject them after every single edit that contradicts
// the paper. (TestExperiments shows the measured rows fit; these show the
// bar would have caught them if they had not.)

func checkBar[R any](t *testing.T, verify func([]R) error, fits []R, contradictions ...func([]R)) {
	t.Helper()
	if err := verify(fits); err != nil {
		t.Fatalf("rows that fit the claim rejected: %v", err)
	}
	for i, edit := range contradictions {
		rows := append([]R(nil), fits...)
		edit(rows)
		if verify(rows) == nil {
			t.Errorf("contradiction %d accepted", i)
		}
	}
}

func TestE1ThroughputFallsWithNodes(t *testing.T) {
	checkBar(t, verifyE1,
		[]e1Row{{Nodes: 1, Throughput: 5000, MsgsPerTx: 0}, {Nodes: 8, Throughput: 370, MsgsPerTx: 2.6}},
		func(r []e1Row) { r[1].Throughput = 5000 },
		func(r []e1Row) { r[1].MsgsPerTx = 0 },
	)
}

func TestE2WasteGrowsLinearly(t *testing.T) {
	checkBar(t, verifyE2,
		[]e2Row{{Nodes: 1, WasteRatio: 1, TransformedRatio: 0.03}, {Nodes: 4, WasteRatio: 4, TransformedRatio: 0.13}},
		func(r []e2Row) { r[1].WasteRatio = 3.5 },
		func(r []e2Row) { r[1].TransformedRatio = 0.9 },
	)
}

func TestE3TransformedFasterAtScale(t *testing.T) {
	checkBar(t, verifyE3,
		[]e3Row{{Sites: 1, Speedup: 0.9}, {Sites: 4, Speedup: 3.3}},
		func(r []e3Row) { r[1].Speedup = 0.95 },
		func(r []e3Row) { r[0].Speedup = 3.4 },
	)
}

func TestE4TransformedMovesLessData(t *testing.T) {
	checkBar(t, verifyE4,
		[]e4Row{
			{PatientsPerSite: 50, CentralizedBytes: 700_000, TransformedBytes: 160, Ratio: 4400},
			{PatientsPerSite: 100, CentralizedBytes: 1_400_000, TransformedBytes: 167, Ratio: 8400},
		},
		func(r []e4Row) { r[0].TransformedBytes = 800_000 },
		func(r []e4Row) { r[0].Ratio = 5 },
		func(r []e4Row) { r[1].Ratio = 4000 },
	)
}

func TestE5VirtualDatasetGrowsLinearly(t *testing.T) {
	cfg := e5Config{PatientsPerSite: 40}
	checkBar(t, func(r []e5Row) error { return verifyE5(cfg, r) },
		[]e5Row{{Sites: 1, VirtualRecords: 40, Growth: 1, Lossless: true}, {Sites: 4, VirtualRecords: 160, Growth: 4, Lossless: true}},
		func(r []e5Row) { r[1].Lossless = false },
		func(r []e5Row) { r[1].VirtualRecords = 159 },
		func(r []e5Row) { r[1].Growth = 3 },
	)
}

func TestE6FederatedShape(t *testing.T) {
	rows := []e6Row{{Strategy: e6Centralized, AUC: 0.77}, {Strategy: e6FedAvg, AUC: 0.76, UplinkBytes: 3400}, {Strategy: e6SecureAgg, AUC: 0.76}}
	transfers := []e6TransferRow{{LocalSamples: 40, WarmAUC: 0.78, ColdAUC: 0.78}, {LocalSamples: 80, WarmAUC: 0.78, ColdAUC: 0.67}}
	checkBar(t, func(r []e6Row) error { return verifyE6(r, transfers) }, rows,
		func(r []e6Row) { r[1].AUC, r[2].AUC = 0.70, 0.70 },
		func(r []e6Row) { r[2].AUC = 0.75 },
		func(r []e6Row) { r[1].UplinkBytes = 0 },
	)
	checkBar(t, func(tr []e6TransferRow) error { return verifyE6(rows, tr) }, transfers,
		func(tr []e6TransferRow) { tr[0].WarmAUC = 0.70 },
		func(tr []e6TransferRow) { tr[1].WarmAUC = 0.67 },
	)
}

func TestE7DetectionRates(t *testing.T) {
	checkBar(t, func(r []e7Result) error { return verifyE7(&r[0]) },
		[]e7Result{{AuditCorrectRate: 0.16, SwitchDetection: 1, TamperDetection: 1}},
		func(r []e7Result) { r[0].SwitchDetection = 0.98 },
		func(r []e7Result) { r[0].TamperDetection = 0.9 },
		func(r []e7Result) { r[0].AuditCorrectRate = 0.5 },
	)
}

func TestE8AuditCoverage(t *testing.T) {
	checkBar(t, verifyE8,
		[]e8Row{
			{System: "blockchain HIE (direct)", AuditCoverage: 1, PolicyEnforced: true, AuditVerifies: true},
			{System: "blockchain HIE (via FDA)", AuditCoverage: 1, PolicyEnforced: true, AuditVerifies: true},
			{System: "secure e-mail (legacy)"},
		},
		func(r []e8Row) { r[0].AuditCoverage = 0.97 },
		func(r []e8Row) { r[0].PolicyEnforced = false },
		func(r []e8Row) { r[0].AuditVerifies = false },
		func(r []e8Row) { r[2].AuditCoverage = 0.5 },
		func(r []e8Row) { r[2].PolicyEnforced = true },
	)
}

func TestE15DataPlane(t *testing.T) {
	cfg := e15Config{IngestRounds: 2, IngestBatch: 40}
	docs := e15Sites*e15PatientsPerSite + 2*40
	fresh := []e15FreshnessRow{{Round: 1, Lag: 1, Docs: docs - 40}, {Round: 2, Lag: 1, Docs: docs}}
	queries := []e15QueryRow{{Records: 1000, Docs: 1000, Speedup: 900}, {Records: 4000, Docs: 4000, Speedup: 1500}}
	checkBar(t, func(r []e15FreshnessRow) error { return verifyE15(cfg, r, queries) }, fresh,
		func(r []e15FreshnessRow) { r[0].Lag = 0 },
		func(r []e15FreshnessRow) { r[1].Docs = docs - 1 },
	)
	checkBar(t, func(r []e15QueryRow) error { return verifyE15(cfg, fresh, r) }, queries,
		func(r []e15QueryRow) { r[0].Mismatches = 1 },
		func(r []e15QueryRow) { r[1].Docs = 3999 },
		func(r []e15QueryRow) { r[1].Speedup = 9 },
	)
}

var a1Fits = []a1Row{{Engine: "pow", PoWHashes: 1452}, {Engine: "poa"}, {Engine: "pos"}, {Engine: "quorum"}}

func TestA1PoWBurnsWork(t *testing.T) {
	checkBar(t, verifyA1, a1Fits,
		func(r []a1Row) { r[0].PoWHashes = 0 },
		func(r []a1Row) { r[1].PoWHashes = 7 },
		func(r []a1Row) { r[3].PoWHashes = 7 },
	)
}

func TestA1IncludesPoS(t *testing.T) {
	checkBar(t, verifyA1, a1Fits,
		func(r []a1Row) { r[2].Engine = "poa" },
		func(r []a1Row) { r[2].PoWHashes = 7 },
	)
}

func TestA2BatchingAmortizes(t *testing.T) {
	checkBar(t, verifyA2,
		[]a2Row{{Mode: "per-event", Calls: 80, Elapsed: 100 * time.Millisecond}, {Mode: "batched (20)", Calls: 4, Elapsed: 10 * time.Millisecond}},
		func(r []a2Row) { r[1].Calls = 80 },
		func(r []a2Row) { r[1].Elapsed = time.Second },
	)
}

func TestA3MaskedAggExact(t *testing.T) {
	checkBar(t, verifyA3,
		[]a3Row{{Mode: "plain weighted mean", ExactMatch: true}, {Mode: "pairwise masked", ExactMatch: true}},
		func(r []a3Row) { r[1].ExactMatch = false },
	)
}

func TestA4ShardingShape(t *testing.T) {
	checkBar(t, verifyA4,
		[]a4Row{{Shards: 1, NodesPerShard: 8, Throughput: 240, WasteRatio: 8}, {Shards: 4, NodesPerShard: 2, Throughput: 380, WasteRatio: 2}},
		func(r []a4Row) { r[1].Throughput = 200 },
		func(r []a4Row) { r[1].WasteRatio = 1 },
	)
}

func TestTableFormatting(t *testing.T) {
	table := Table{Title: "Title", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}, {"333", "4"}}}.String()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table lines: %q", lines)
	}
	if lines[0] != "Title" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Fatalf("separator line %q", lines[2])
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtDur(1500 * time.Millisecond); got != "1.50s" {
		t.Fatalf("fmtDur %q", got)
	}
	if got := fmtDur(2500 * time.Microsecond); got != "2.5ms" {
		t.Fatalf("fmtDur %q", got)
	}
	if got := fmtDur(900 * time.Microsecond); got != "900µs" {
		t.Fatalf("fmtDur %q", got)
	}
	if got := fmtBytes(5 << 20); got != "5.0MB" {
		t.Fatalf("fmtBytes %q", got)
	}
	if got := fmtBytes(2048); got != "2.0KB" {
		t.Fatalf("fmtBytes %q", got)
	}
	if got := fmtBytes(100); got != "100B" {
		t.Fatalf("fmtBytes %q", got)
	}
}
