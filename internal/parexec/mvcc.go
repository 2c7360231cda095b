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
	"medchain/internal/ledger"
	"medchain/internal/par"
)

// mvccResult is one prefix transaction's execution outcome.
type mvccResult struct {
	snap *contract.State
	rec  *contract.Receipt
	err  error
}

// executeMVCC runs the block under ModeMVCCWave. See
// Engine.ExecuteBlock for the contract.
func (e *Engine) executeMVCC(bs *Stats, st *contract.State, txs []*ledger.Transaction, height uint64, now int64) ([]*contract.Receipt, error) {
	accs := make([]contract.AccessSet, len(txs))
	par.ForEachN(len(txs), e.cfg.Workers, func(i int) {
		accs[i] = contract.AccessSetOf(txs[i])
	})

	// The MVCC prefix ends at the first unbounded footprint; it and
	// everything after it apply in order once the prefix materializes.
	prefix := len(txs)
	for i, acc := range accs {
		if acc.Unknown {
			prefix = i
			break
		}
	}

	receipts := make([]*contract.Receipt, prefix, len(txs))
	if prefix > 0 {
		results := make([]mvccResult, prefix)
		ver := contract.NewVersions(st)
		for _, wave := range e.buildWaves(accs[:prefix]) {
			bs.Waves++
			wave := wave
			par.ForEachN(len(wave), e.cfg.Workers, func(i int) {
				j := wave[i]
				snap := ver.SnapshotAt(j, accs[j])
				rec, err := snap.Apply(txs[j], height, now)
				results[j] = mvccResult{snap: snap, rec: rec, err: err}
			})
			// Wave barrier: publish this wave's writes to the version
			// chains in ascending transaction index.
			for _, j := range wave {
				if results[j].err != nil {
					// Unreachable today: Apply hard-errors only on nil
					// transactions, which always derive Unknown
					// footprints and land in the serial tail. st is
					// still untouched, so apply the whole block in order
					// for exact serial state and bookkeeping.
					*bs = Stats{Blocks: 1, Txs: int64(len(txs))}
					all, err := applyInOrder(st, txs, height, now)
					bs.Serial = int64(len(all))
					return all, err
				}
				ver.Commit(j, results[j].snap, accs[j])
			}
		}

		// Materialize: adopt every transaction's writes into the live
		// state in canonical order — the newest writer of each key
		// lands last, so the final objects are exactly serial's.
		for j := 0; j < prefix; j++ {
			st.MergeSpeculative(results[j].snap, accs[j])
			receipts[j] = results[j].rec
		}
		bs.Clean = int64(prefix)
	}

	tail, err := applyInOrder(st, txs[prefix:], height, now)
	bs.Serial = int64(len(tail))
	for _, acc := range accs[prefix : prefix+len(tail)] {
		if acc.Unknown {
			bs.Unknown++
		}
	}
	return append(receipts, tail...), err
}

// buildWaves derives the dependency DAG from the declared access sets
// and groups transactions into execution waves by DAG depth.
func (e *Engine) buildWaves(accs []contract.AccessSet) [][]int {
	depth := make([]int, len(accs))
	lastWriter := make(map[contract.StateKey]int, len(accs))
	maxDepth := 0
	for j, acc := range accs {
		deps := make(map[int]struct{}) // dedup: keys may share a writer
		for _, k := range acc.Touched() {
			if w, ok := lastWriter[k]; ok {
				deps[w] = struct{}{}
			}
		}
		if e.cfg.UnsafeDropDAGEdge && len(deps) > 0 {
			// Mutation knob: sever the highest-indexed dependency.
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
	for j := range accs {
		waves[depth[j]] = append(waves[depth[j]], j)
	}
	return waves
}
