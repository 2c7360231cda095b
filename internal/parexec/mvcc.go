package parexec

// MVCC block execution: a dependency-graph scheduler over the
// multi-version state cache in contract.Versions.
//
// The schedule is a pure function of the block. Transaction j depends
// on the latest earlier writer of every key in its declared access
// set; its wave (DAG depth) is one past the deepest dependency. Every
// state mutation in the contract is a read-modify-write at key
// granularity ("a write implies a read"), so consecutive writers of a
// key chain transitively and all earlier writers of j's keys sit at
// strictly lower depth — by the time j's wave runs, the versions it
// must read are committed. Two transactions in the same wave never
// touch a key the other writes, so a wave is embarrassingly parallel.
//
// Version chains are only appended between waves (single goroutine,
// ascending transaction index), and workers only read them — the
// engine is race-free and the values every transaction observes are
// identical on every run and worker count, which is the determinism
// argument: see the package comment.

import (
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/par"
)

// prepare resolves and decodes every transaction of the block, once:
// on the engine's pool, or under ModeSerial on the calling goroutine.
// The calls carry the declared footprints the schedule is built from
// and are what speculate runs.
func (e *Engine) prepare(txs []*ledger.Transaction) []contract.Call {
	workers := e.cfg.Workers
	if e.cfg.Mode == ModeSerial {
		workers = 1
	}
	calls := make([]contract.Call, len(txs))
	par.ForEachN(len(txs), workers, func(i int) {
		calls[i] = contract.Prepare(txs[i])
	})
	return calls
}

// speculate is the first half of an MVCC execution: it runs calls on
// write snapshots over st and leaves st untouched. ModeMVCCWave runs
// each dependency wave on the pool; ModeSerial runs the transactions in
// order on the calling goroutine, every one a wave of its own. Either
// way transaction j sees exactly the writes of the transactions before
// it, so snapshots and receipts are those of serial execution. The
// error is a hard error from State.Run.
func (e *Engine) speculate(bs *Stats, st *contract.State, calls []contract.Call, height uint64, now int64) ([]contract.SpecWrite, []*contract.Receipt, error) {
	writes := make([]contract.SpecWrite, len(calls))
	receipts := make([]*contract.Receipt, len(calls))
	errs := make([]error, len(calls))
	ver := contract.NewVersions(st)
	run := func(j int) {
		acc := calls[j].Access()
		snap := ver.SnapshotAt(j, acc)
		receipts[j], errs[j] = snap.Run(calls[j], height, now)
		writes[j] = contract.SpecWrite{Snap: snap, Acc: acc}
	}
	if e.cfg.Mode == ModeSerial {
		for j := range calls {
			if run(j); errs[j] != nil {
				return nil, nil, errs[j]
			}
			ver.Commit(j, writes[j].Snap, writes[j].Acc)
		}
		return writes, receipts, nil
	}
	for _, wave := range e.buildWaves(calls) {
		bs.Waves++
		par.ForEachN(len(wave), e.cfg.Workers, func(i int) { run(wave[i]) })
		// Wave barrier: publish this wave's writes to the version
		// chains in ascending transaction index.
		for _, j := range wave {
			if errs[j] != nil {
				return nil, nil, errs[j]
			}
			ver.Commit(j, writes[j].Snap, writes[j].Acc)
		}
	}
	return writes, receipts, nil
}

// Speculation is a block executed once on write snapshots over a state
// it has not touched: what a proposer needs to put the post-state root
// in the header before consensus, and to commit the block afterwards
// without executing it again (DESIGN.md "Commit round").
type Speculation struct {
	st       *contract.State
	writes   []contract.SpecWrite
	receipts []*contract.Receipt
	root     *contract.PendingRoot
	stats    Stats
}

// Speculate executes txs against st without modifying it. The error
// mirrors State.Apply's: non-nil only for a nil transaction. Nothing is
// counted in Stats until Commit.
func (e *Engine) Speculate(st *contract.State, txs []*ledger.Transaction, height uint64, now int64) (*Speculation, error) {
	sp := &Speculation{st: st, stats: Stats{Blocks: 1, Txs: int64(len(txs))}}
	var err error
	if sp.writes, sp.receipts, err = e.speculate(&sp.stats, st, e.prepare(txs), height, now); err != nil {
		return nil, err
	}
	if e.cfg.Mode == ModeMVCCWave {
		sp.stats.Clean = int64(len(txs))
	} else {
		sp.stats.Serial = int64(len(txs))
	}
	sp.root = st.PreviewRoot(sp.writes)
	return sp, nil
}

// Root is the state root the block leaves behind.
func (sp *Speculation) Root() cryptoutil.Digest { return sp.root.Root() }

// Commit materialises a speculation into the state it was made over,
// which must not have changed since, and returns the receipts
// (index-aligned with the block's transactions). State and receipts are
// those of applying the block in order; the tree patch Root was read
// from is installed in the state's tree, so nothing is hashed twice. A
// speculation commits at most once.
func (e *Engine) Commit(sp *Speculation) []*contract.Receipt {
	sp.st.AdoptSpeculative(sp.writes, sp.root)
	e.record(sp.stats)
	return sp.receipts
}

// dropDAGEdge is a mutation seam (export_test.go sets it): buildWaves
// drops each transaction's highest-indexed dependency edge before
// computing wave depths, letting dependents run alongside (or before)
// their predecessors, so the sim's differential oracle can prove the
// DAG is load-bearing. False outside tests.
var dropDAGEdge bool

// buildWaves derives the dependency DAG from the declared access sets
// and groups transactions into execution waves by DAG depth.
func (e *Engine) buildWaves(calls []contract.Call) [][]int {
	if len(calls) == 0 {
		return nil
	}
	depth := make([]int, len(calls))
	lastWriter := make(map[contract.StateKey]int, len(calls))
	maxDepth := 0
	for j := range calls {
		acc := calls[j].Access()
		deps := make(map[int]struct{}) // dedup: keys may share a writer
		for _, k := range acc.Touched() {
			if w, ok := lastWriter[k]; ok {
				deps[w] = struct{}{}
			}
		}
		if dropDAGEdge && len(deps) > 0 {
			// Sever the highest-indexed dependency.
			hi := -1
			for w := range deps {
				if w > hi {
					hi = w
				}
			}
			delete(deps, hi)
		}
		d := 0
		for w := range deps {
			if depth[w]+1 > d {
				d = depth[w] + 1
			}
		}
		depth[j] = d
		if d > maxDepth {
			maxDepth = d
		}
		for _, k := range acc.Writes {
			lastWriter[k] = j
		}
	}
	waves := make([][]int, maxDepth+1)
	for j := range calls {
		waves[depth[j]] = append(waves[depth[j]], j)
	}
	return waves
}
