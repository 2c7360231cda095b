package parexec_test

import (
	"strings"
	"testing"

	"medchain/internal/parexec"
	"medchain/internal/sim"
)

// TestSimCatchesDroppedDAGEdge: severing one dependency edge per
// transaction before wave scheduling must be fatal under the sim's
// differential oracle — proof that the DAG (not some hidden
// revalidation) is the mechanism keeping the wave scheduler
// serial-equivalent. The oracle must blame the mvcc-wave suspect by
// name with a minimized counterexample, and a replay of the same seed
// must shrink to the identical one. The seam reaches every mvcc-wave
// engine in the process, so the live nodes all run ModeSerial and only
// the suspect is mutated.
func TestSimCatchesDroppedDAGEdge(t *testing.T) {
	defer parexec.SetDropDAGEdge()()
	suspect := sim.MVCCExecutor{Workers: 4}
	cfg := sim.Config{
		Seed:      42,
		Rounds:    80,
		NoFaults:  true, // deterministic block packing => identical counterexample per seed
		Workers:   []int{0},
		Executors: []sim.Executor{suspect},
	}
	run := func() *sim.Counterexample {
		res, err := sim.Run(cfg)
		if err == nil {
			t.Fatalf("mutated executor %s was not caught", suspect.Name())
		}
		if res.Counterexample == nil {
			t.Fatalf("failed without a counterexample: %v", err)
		}
		return res.Counterexample
	}
	cex := run()
	t.Logf("counterexample:\n%s", cex)
	if cex.Executor != suspect.Name() {
		t.Fatalf("blamed executor %q, want %q", cex.Executor, suspect.Name())
	}
	if len(cex.Minimized) == 0 || len(cex.Minimized) > len(cex.BlockTxs) {
		t.Fatalf("bad minimization: %d of %d txs", len(cex.Minimized), len(cex.BlockTxs))
	}
	if !strings.Contains(cex.Repro(), "-sim.seed=42") || !strings.Contains(cex.Repro(), "-sim.rounds=80") {
		t.Fatalf("repro command does not pin seed/rounds: %s", cex.Repro())
	}
	again := run()
	if again.Height != cex.Height {
		t.Fatalf("replay diverged at height %d, first run at %d", again.Height, cex.Height)
	}
	if len(again.Minimized) != len(cex.Minimized) {
		t.Fatalf("replay minimized to %d txs, first run to %d", len(again.Minimized), len(cex.Minimized))
	}
	for i := range cex.Minimized {
		if again.Minimized[i] != cex.Minimized[i] {
			t.Fatalf("replay counterexample differs at tx %d:\n  first:  %s\n  replay: %s", i, cex.Minimized[i], again.Minimized[i])
		}
	}
}
