package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// report is what -all -json writes and -compare reads.
type report struct {
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     float64          `json:"scale"`
	Runs      int              `json:"runs"`
	DelayMS   float64          `json:"injected_one_way_delay_ms"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// FailedRatio is (failed + refused + incorrect operations) / attempted.
	FailedRatio float64            `json:"failed_ratio"`
	Digest      string             `json:"input_digest"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]metric  `json:"per_layer"`
}

// summary is one end-to-end metric over the report's untraced runs.
type summary struct {
	Value  float64   `json:"value"` // median of Values
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	// Spread is (Q3 - Q1) / median over Values, 0 with fewer than two.
	Spread float64 `json:"spread"`
}

// quartiles are the cut points of Python's statistics.quantiles(v, n=4)
// (the exclusive method), which the acceptance rule is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func summarize(values []float64, unit string) summary {
	s := summary{Unit: unit, Values: values, Value: samples(values).median()}
	if len(values) >= 2 {
		q1, q3 := quartiles(values)
		s.Spread = ratio(q3-q1, s.Value)
	}
	return s
}

// runAll runs every workload — runs untraced runs on consecutive seeds,
// then one traced run — prints every metric by name with its unit, and
// fails if any output check failed.
func runAll(p params, runs int, jsonPath string, stdout, stderr io.Writer) int {
	rep := report{Env: readEnv(p.dataDir), Seed: p.seed, Seconds: p.seconds, Scale: p.scale, Runs: runs, DelayMS: ms(injectedDelay)}
	if rep.Env.Noisy {
		fmt.Fprintf(stderr, "bench: load average %.2f exceeds %d cores: result marked noisy\n", rep.Env.Load1, rep.Env.NProc)
	}
	ok := true
	for _, w := range workloads {
		wr := workloadReport{Name: w.Name, Why: w.Why, EndToEnd: make(map[string]summary)}
		total := &tally{}
		values := make(map[string][]float64)
		for k := 0; k < runs; k++ {
			pk := p
			pk.seed = p.seed + int64(k)
			o, err := measure(w, pk)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			total.merge(o.tally)
			wr.Digest = o.digest
			for name, m := range e2eMetrics(o) {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarize(values[d.Name], d.Unit)
		}
		o, err := measureTraced(w, p)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s traced: %v\n", w.Name, err)
			return 1
		}
		total.merge(o.tally)
		wr.PerLayer = layerMetrics(o)
		wr.Correct, wr.Attempted, wr.Failed, wr.Problems = total.correct(), total.attempted, total.failed, total.problems
		wr.FailedRatio = ratio(float64(total.failed), float64(total.attempted))
		ok = ok && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)

		fmt.Fprintf(stdout, "== %s  correct=%v attempted=%d failed=%d failed_ratio=%g\n", w.Name, wr.Correct, wr.Attempted, wr.Failed, wr.FailedRatio)
		for _, pr := range wr.Problems {
			fmt.Fprintln(stdout, "   WRONG:", pr)
		}
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(stdout, "   %-36s %14.4f %-6s (n=%d spread=%.3f bound=%.2f %s is better)\n", d.Name, s.Value, d.Unit, len(s.Values), s.Spread, d.Bound, d.Better)
		}
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "   %-36s %14.4f %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
	}
	if jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// compareReports prints, per workload and end-to-end metric, both
// values, the ratio with its base, the bound and a verdict; it returns 1
// on any regression or higher failed_ratio.
func compareReports(oldPath, newPath string, stdout, stderr io.Writer) int {
	load := func(path string) (*report, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	oldR, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	newR, err := load(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if oldR.Env.Noisy || newR.Env.Noisy {
		fmt.Fprintln(stdout, "note: at least one side was measured on a noisy machine")
	}
	news := make(map[string]workloadReport)
	for _, w := range newR.Workloads {
		news[w.Name] = w
	}
	regressed := false
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %22s %6s  %s\n", "workload", "metric", "old", "new", "ratio (base old)", "bound", "verdict")
	for _, ow := range oldR.Workloads {
		nw, ok := news[ow.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-16s missing from %s\n", ow.Name, newPath)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			verdict := verdictOf(d, o, n)
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(stdout, "%-16s %-16s %14.4f %14.4f %14.3fx of %-7.4g %5.0f%%  %s\n",
				ow.Name, d.Name, o.Value, n.Value, ratio(n.Value, o.Value), o.Value, 100*d.Bound, verdict)
		}
		verdict := "unchanged"
		if nw.FailedRatio > ow.FailedRatio || (!nw.Correct && ow.Correct) {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(stdout, "%-16s %-16s %14.6f %14.6f %22s %5.0f%%  %s\n", ow.Name, "failed_ratio", ow.FailedRatio, nw.FailedRatio, "", 0.0, verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

// verdictOf classifies a metric's change: unresolved when either side's
// run-to-run spread is wider than the bound, else regressed or improved
// when the medians differ by more than the bound in that direction.
func verdictOf(d metricDef, o, n summary) string {
	if o.Value == 0 {
		return "unresolved"
	}
	worse := (n.Value - o.Value) / o.Value
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(o.Spread, n.Spread) > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	case worse < -d.Bound:
		return "improved"
	}
	return "unchanged"
}
