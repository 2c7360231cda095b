// Command bench is the repository's end-to-end benchmark: four named
// workloads driven through the shipped public APIs (chain.Cluster,
// shard.System, core.Platform) from one process. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// params are the inputs of one run.
type params struct {
	seed    int64
	seconds float64 // scales every measured operation count; 10 is the reference
	scale   float64 // scales state sizes too; below 1 only for the smoke test
	setups  int     // how many times set-up runs (setup_s is their median)
	dataDir string  // scratch root for WALs and snapshots, on the real disk
	outDir  string  // trace files
}

// count scales a measured operation count sized for -seconds 10
// -scale 1. Counts stay even so they split between the two clients.
func (p params) count(n int) int {
	c := int(math.Round(float64(n)*p.seconds/10*p.scale/2)) * 2
	return max(c, 2)
}

// keySeed namespaces every deployment's validator and account keys.
func (p params) keySeed() string { return fmt.Sprintf("bench-%d", p.seed) }

// sized scales a state size (working set, prefill, cohort): by -scale
// only, so a shorter run still measures the same state.
func (p params) sized(n, floor int) int {
	return max(int(float64(n)*p.scale), floor)
}

// tally counts attempted and failed operations and collects violated
// output checks. Any problem makes the run incorrect and the process
// exit non-zero. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records one failed, refused or incorrect operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// problem records a violated check that is not one operation's outcome.
func (t *tally) problem(format string, args ...any) {
	t.mu.Lock()
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// merge folds another run's counts and problems into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

func (t *tally) correct() bool { return t.failed == 0 && len(t.problems) == 0 }

// setupRepeats is how many times an untraced run sets up: setup_s is the
// median, which steadies a figure dominated by a few fsync-bound blocks.
const setupRepeats = 3

// measure is the untraced run: the end-to-end metrics come from it.
func measure(w workloadDef, p params) (*outcome, error) {
	p.setups = setupRepeats
	return w.run(p, nil)
}

// measureTraced runs the workload twice at half length — untraced, then
// with spans kept in memory — so the goodput difference is the tracing
// overhead, then writes the trace and replays the traced run's blocks
// through each layer.
func measureTraced(w workloadDef, p params) (*outcome, error) {
	p.setups = 1
	p.seconds /= 2
	plain, err := w.run(p, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	o, err := w.run(p, tr)
	if err != nil {
		return nil, err
	}
	o.layers["gen.trace_overhead_pct"] = 100 * ratio(plain.e2e["goodput_per_s"]-o.e2e["goodput_per_s"], plain.e2e["goodput_per_s"])
	o.tally.merge(plain.tally)
	if err := tr.write(filepath.Join(p.outDir, w.Name+".trace.jsonl")); err != nil {
		return nil, err
	}
	if o.replay.dir, err = freshDir(p, "replay"); err != nil {
		return nil, err
	}
	layers, problems := layerReplay(*o.replay)
	for k, v := range layers {
		o.layers[k] = v
	}
	o.problems = append(o.problems, problems...)
	return o, nil
}

// metric is one value in a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func e2eMetrics(o *outcome) map[string]metric {
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		v := o.e2e[d.Name]
		if d.Name == "setup_s" {
			v = o.setup.median()
		}
		out[d.Name] = metric{v, d.Unit}
	}
	return out
}

func layerMetrics(o *outcome) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{o.layers[d.Name], d.Unit}
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	name := fs.String("workload", "", "run one workload and print its result as the last line: "+workloadNames())
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run and layer replay, per-layer metrics")
	all := fs.Bool("all", false, "run every workload, untraced then traced, and print every metric")
	jsonPath := fs.String("json", "", "with -all: also write the full report to this file")
	runs := fs.Int("runs", 1, "with -all: untraced runs per workload, on consecutive seeds; the report keeps their median and quartile spread")
	compare := fs.Bool("compare", false, "compare two -json reports: bench -compare old.json new.json")
	describe := fs.Bool("describe", false, "print the BENCHMARK.json document for this code and exit")
	fs.Int64Var(&p.seed, "seed", 1, "derives every key, id, choice and record")
	fs.Float64Var(&p.seconds, "seconds", 10, "scales every measured operation count; at 10 the measured phases of chain-mix take about 10 s on the baseline commit")
	fs.Float64Var(&p.scale, "scale", 1, "scales state sizes and counts together (smoke tests use 0.02)")
	dataDir := fs.String("data-dir", ".bench_build", "where the run's scratch directory is created (WALs and snapshots; on the real disk)")
	fs.StringVar(&p.outDir, "out", filepath.Join("bench", "out"), "directory for <workload>.trace.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		return printBenchmarkFile(stdout, stderr)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if p.seconds <= 0 || p.scale <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds, -scale and -runs must be positive")
		return 2
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dataDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	if p.dataDir, err = filepath.Abs(scratch); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	switch {
	case *all:
		return runAll(p, *runs, *jsonPath, stdout, stderr)
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		return runOne(w, p, *trace != 0, stdout, stderr)
	}
	fs.Usage()
	return 2
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runOne is the driver-facing mode: one workload, one JSON object as the
// last line of standard output.
func runOne(w workloadDef, p params, traced bool, stdout, stderr io.Writer) int {
	env := readEnv(p.dataDir)
	fmt.Fprintf(stderr, "bench: %s seed=%d seconds=%g trace=%v env=%+v\n", w.Name, p.seed, p.seconds, traced, env)
	var o *outcome
	var err error
	var metrics map[string]metric
	if traced {
		if o, err = measureTraced(w, p); err == nil {
			metrics = layerMetrics(o)
		}
	} else {
		if o, err = measure(w, p); err == nil {
			metrics = e2eMetrics(o)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	for _, pr := range o.problems {
		fmt.Fprintln(stderr, "bench: WRONG:", pr)
	}
	fmt.Fprintf(stderr, "bench: %s input digest %s\nbench: %s: %s\n", w.Name, o.digest, w.Name, o.note)
	line, err := json.Marshal(result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !o.correct() {
		return 1
	}
	return 0
}

// printBenchmarkFile prints the contract document the repository keeps
// as BENCHMARK.json; bench_test.go fails when the two drift apart.
func printBenchmarkFile(stdout, stderr io.Writer) int {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, 10, workloads, endToEnd, perLayer}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}
