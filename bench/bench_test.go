package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode: BENCHMARK.json declares exactly the
// workloads and metrics the program reports — none missing, none extra,
// same units, directions and bounds.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file %+v, code %q / %q", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: file has %d metrics, code has %d", kind, len(file), len(code))
		}
		seen := make(map[string]bool)
		for i, d := range code {
			if file[i] != d {
				t.Errorf("%s metric %d: file %+v, code %+v", kind, i, file[i], d)
			}
			if !nameRE.MatchString(d.Name) || d.Unit == "" || seen[d.Name] {
				t.Errorf("%s metric %q: bad or repeated name, or no unit", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at a
// fiftieth of its size: every output check must pass and the report
// must carry exactly the declared metric names.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-all", "-scale", "0.02", "-json", path, "-data-dir", dir, "-out", filepath.Join(dir, "out")}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for i, w := range rep.Workloads {
		if w.Name != workloads[i].Name || !w.Correct || w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Problems)
		}
		if len(w.EndToEnd) != len(endToEnd) || len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w.Name, len(w.EndToEnd), len(w.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, d := range endToEnd {
			if m, ok := w.EndToEnd[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v", w.Name, d.Name, m)
			}
		}
		for _, d := range perLayer {
			if m, ok := w.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer %s = %+v", w.Name, d.Name, m)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "out", w.Name+".trace.jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	// A report compared with itself has no regression.
	if code := run([]string{"-compare", path, path}, &out, &errOut); code != 0 {
		t.Errorf("self-compare exit %d", code)
	}
}

// TestStreamDigest: the pre-signed stream is a pure function of the
// seed.
func TestStreamDigest(t *testing.T) {
	digest := func(seed int64) string {
		h := newHospital(seed, 32)
		return streamDigest(h.prefill(8), h.stream(0, 40), h.stream(1, 40))
	}
	if digest(7) != digest(7) {
		t.Error("same seed gave different streams")
	}
	if digest(7) == digest(8) {
		t.Error("different seeds gave the same stream")
	}
}

// TestCompareFlagsRegression: -compare exits 1 when a gated metric
// worsens beyond its bound or more operations fail.
func TestCompareFlagsRegression(t *testing.T) {
	mk := func(goodput, failedRatio float64) report {
		e2e := make(map[string]summary)
		for _, d := range endToEnd {
			e2e[d.Name] = summary{Value: 100, Unit: d.Unit, Values: []float64{100}}
		}
		e2e["goodput_per_s"] = summary{Value: goodput, Unit: "1/s", Values: []float64{goodput}}
		return report{Workloads: []workloadReport{{Name: "chain-mix", Correct: true, FailedRatio: failedRatio, EndToEnd: e2e}}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		raw, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(100, 0))
	var out, errOut bytes.Buffer
	for _, tc := range []struct {
		name string
		r    report
		want int
	}{
		{"same", mk(100, 0), 0},
		{"faster", mk(150, 0), 0},
		{"slower", mk(50, 0), 1},
		{"failing", mk(100, 0.01), 1},
	} {
		if got := run([]string{"-compare", base, write(tc.name+".json", tc.r)}, &out, &errOut); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}
