package experiments

import (
	"fmt"
	"reflect"
	"time"

	"medchain/internal/contract"
	"medchain/internal/parexec"
)

// --- E10: parallel execution — conflict rate x workers ---
//
// The paper's thesis is that a blockchain should become a distributed
// *parallel* computing architecture, yet baseline block application is
// serial. E10 measures the MVCC dependency-wave engine against the
// serial reference on the same seeded batch while sweeping the worker
// count and the conflict rate, and verifies on every single cell that
// the parallel state root and receipts are bit-identical to serial
// execution — speedup is only admissible if determinism holds.
//
// Beyond determinism, verifyE10 enforces the timing-free scheduling
// claim: the workload's footprints are all bounded, so at every
// conflict rate the whole batch must commit on the parallel path
// (clean ratio 1.000, no serial tail). Timings are reported for the
// tables but never gate anything: wall-clock is machine-dependent, the
// commit ratios are not.

// e10Config is the parallel-execution sweep.
type e10Config struct {
	// Workers are the pool sizes to sweep.
	Workers []int
	// ConflictRates are the hot-key shares to sweep.
	ConflictRates []float64
	// Txs is the batch size per run.
	Txs int
	// Repeats is how many timed runs each cell takes; the minimum is
	// reported.
	Repeats int
}

var e10Sizes = [...]e10Config{
	Full:  {Workers: []int{1, 2, 4, 8}, ConflictRates: []float64{0, 0.3, 0.5, 1}, Txs: 256, Repeats: 3},
	Quick: {Workers: []int{1, 2, 4}, ConflictRates: []float64{0, 0.5, 1}, Txs: 128, Repeats: 2},
}

const (
	// e10GrantShare splits the batch between policy grants and VM
	// invocations.
	e10GrantShare = 0.5
	// e10LoopIters sizes each VM invocation's compute loop.
	e10LoopIters = 3000
)

// e10Row is one (conflict rate, worker count) cell.
type e10Row struct {
	// ConflictRate is the swept hot-key share.
	ConflictRate float64
	// Workers is the pool size.
	Workers int
	// Txs is the batch size.
	Txs int
	// Serial is the serial reference apply time (min over repeats).
	Serial time.Duration
	// Parallel is the mvcc-wave engine's apply time (min over repeats).
	Parallel time.Duration
	// Speedup is Serial/Parallel.
	Speedup float64
	// Clean is how many transactions committed on the parallel path;
	// SerialTail is how many fell to the in-order tail; Waves is the
	// dependency-wave count the scheduler dispatched.
	Clean, SerialTail, Waves int64
	// CleanRatio is Clean / Txs.
	CleanRatio float64
	// Match reports that the parallel state root AND receipts are
	// bit-identical to serial execution.
	Match bool
}

// e10ParallelExec runs the sweep. It returns an error (rather than a
// row) only for harness failures; a determinism violation is reported
// through Match=false so the caller can fail loudly with the full
// table in hand.
func e10ParallelExec(cfg e10Config, seed int64) ([]e10Row, error) {
	var rows []e10Row
	for _, rate := range cfg.ConflictRates {
		wl, err := GenWorkload(WorkloadConfig{
			Txs: cfg.Txs, ConflictRate: rate, GrantShare: e10GrantShare,
			LoopIters: e10LoopIters, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		base := contract.NewState()
		for _, tx := range wl.Setup {
			r, err := base.Apply(tx, 1, 1)
			if err != nil {
				return nil, err
			}
			if !r.OK() {
				return nil, fmt.Errorf("experiments: e10 setup tx failed: %s", r.Err)
			}
		}

		// Serial reference: time the plain apply loop, keep its root and
		// receipts as ground truth for every cell below.
		var serialBest time.Duration
		var serialReceipts []*contract.Receipt
		var serialRoot string
		for rep := 0; rep < cfg.Repeats; rep++ {
			st := base.Clone()
			start := time.Now()
			receipts, err := ApplySerial(st, wl.Batch, 2, 2)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if rep == 0 || elapsed < serialBest {
				serialBest = elapsed
			}
			serialReceipts = receipts
			serialRoot = st.Root().String()
		}

		for _, w := range cfg.Workers {
			eng := parexec.NewEngine(parexec.Config{Workers: w, Mode: parexec.ModeMVCCWave})
			var parBest time.Duration
			var stats parexec.Stats
			match := true
			for rep := 0; rep < cfg.Repeats; rep++ {
				st := base.Clone()
				start := time.Now()
				receipts, bs, err := eng.ExecuteBlock(st, wl.Batch, 2, 2)
				if err != nil {
					return nil, err
				}
				elapsed := time.Since(start)
				if rep == 0 || elapsed < parBest {
					parBest = elapsed
				}
				stats = bs
				if st.Root().String() != serialRoot || !reflect.DeepEqual(receipts, serialReceipts) {
					match = false
				}
			}
			row := e10Row{
				ConflictRate: rate, Workers: w, Txs: cfg.Txs,
				Serial: serialBest, Parallel: parBest,
				Clean: stats.Clean, SerialTail: stats.Serial, Waves: stats.Waves, Match: match,
			}
			if parBest > 0 {
				row.Speedup = float64(serialBest) / float64(parBest)
			}
			if stats.Txs > 0 {
				row.CleanRatio = float64(stats.Clean) / float64(stats.Txs)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// verifyE10 applies the timing-free gates to the sweep: every cell's
// state root and receipts are bit-identical to serial (Match), and the
// whole batch committed on the parallel path — Clean == Txs with no
// serial tail — at every conflict rate.
func verifyE10(rows []e10Row) error {
	for _, r := range rows {
		if !r.Match {
			return fmt.Errorf("experiments: e10 divergence at conflict=%.2f workers=%d", r.ConflictRate, r.Workers)
		}
		if r.Clean != int64(r.Txs) || r.SerialTail != 0 {
			return fmt.Errorf("experiments: e10 clean ratio %.3f at conflict=%.2f workers=%d: clean=%d tail=%d txs=%d",
				r.CleanRatio, r.ConflictRate, r.Workers, r.Clean, r.SerialTail, r.Txs)
		}
	}
	return nil
}

var e10Columns = []column[e10Row]{
	{"conflict", func(r e10Row) string { return fmt.Sprintf("%.2f", r.ConflictRate) }},
	{"workers", func(r e10Row) string { return fmt.Sprint(r.Workers) }},
	{"txs", func(r e10Row) string { return fmt.Sprint(r.Txs) }},
	{"serial", func(r e10Row) string { return fmtDur(r.Serial) }},
	{"mvcc-wave", func(r e10Row) string { return fmtDur(r.Parallel) }},
	{"speedup", func(r e10Row) string { return fmt.Sprintf("%.2fx", r.Speedup) }},
	{"clean", func(r e10Row) string { return fmt.Sprint(r.Clean) }},
	{"tail", func(r e10Row) string { return fmt.Sprint(r.SerialTail) }},
	{"waves", func(r e10Row) string { return fmt.Sprint(r.Waves) }},
	{"cleanratio", func(r e10Row) string { return fmt.Sprintf("%.3f", r.CleanRatio) }},
	{"match", func(r e10Row) string { return fmt.Sprint(r.Match) }},
}

func runE10(size Size, seed int64) ([]Table, error) {
	rows, err := e10ParallelExec(e10Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E10 Parallel execution: serial vs mvcc-wave, conflict rate x workers (state must match serial bit-for-bit; clean ratio must be 1.000)",
		rows, e10Columns)}, verifyE10(rows)
}
