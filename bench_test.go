// Root benchmark suite: BenchmarkExperiments has one sub-benchmark per
// entry of the internal/experiments registry (DESIGN.md §4). Each runs
// its entry's Quick sweep once per iteration, logs the same
// paper-shaped tables cmd/benchmed prints, and fails when the sweep
// contradicts the claim the entry verifies, so
//
//	go test -run '^$' -bench Experiments -benchtime 1x -v .
//
// is the CI smoke over the whole registry and
// `-bench 'Experiments/E15$'` regenerates one experiment. Use
// cmd/benchmed for the full-size sweeps EXPERIMENTS.md records.
package medchain_test

import (
	"bytes"
	"errors"
	"testing"

	"medchain/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) { benchExperiment(b, e) })
	}
}

// benchExperiment times e's Quick sweep through the shared run loop.
func benchExperiment(b *testing.B, e experiments.Experiment) {
	var out bytes.Buffer
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := experiments.Run(&out, []experiments.Experiment{e}, experiments.Quick, int64(i+1)); err != nil {
			b.Log("\n" + out.String())
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + out.String())
}

// TestBenchmarkFailsOnFailedVerify: the sub-benchmark of an entry whose
// sweep contradicts its claim fails instead of reporting a time.
func TestBenchmarkFailsOnFailedVerify(t *testing.T) {
	fake := experiments.Experiment{ID: "X1", Run: func(experiments.Size, int64) ([]experiments.Table, error) {
		return nil, errors.New("throughput rose with nodes")
	}}
	if res := testing.Benchmark(func(b *testing.B) { benchExperiment(b, fake) }); res.N != 0 {
		t.Fatalf("benchmark of a contradicted entry completed %d iterations", res.N)
	}
}
