package chain

import (
	"fmt"
	"slices"

	"medchain/internal/ledger"
	"medchain/internal/store"
)

// reopenStore recovers a disk-backed node's state from its data
// directory; memory-only nodes are a no-op. Called while the node is
// not running, so the caller owns the replica: by NewNode, and by
// Restart under lifeMu.
func (n *Node) reopenStore() error {
	if n.storeOpts == nil || n.rep.st != nil {
		return nil
	}
	st, rec, err := store.Open(*n.storeOpts)
	if err != nil {
		return fmt.Errorf("chain: recover node %s: %w", n.id, err)
	}
	n.rep.adoptRecovered(st, rec)
	return nil
}

// adoptRecovered swaps a recovery's ledger, state and receipts into the
// replica and publishes them as one view. The mempool is dropped (a
// crashed process loses it; gossip and ResubmitPending repopulate it),
// and committed-transaction dedupe needs no rebuild — SubmitLocal
// consults the recovered chain's transaction index directly. The
// recovered state is complete as it stands: HOST calls read replicated
// state, which the replay rebuilt.
func (r *replica) adoptRecovered(st *store.Store, rec *store.Recovered) {
	r.pending = nil // a preview is tied to the state object it was made over
	r.chain, r.state = rec.Chain, rec.State
	r.pool.Reset()
	// The audit nonce sequence re-anchors to the recovered chain: any
	// in-flight audit transactions died with the pool, and continuing
	// the old sequence would leave a permanent nonce gap.
	r.auditNonceNext = 0
	r.receipts = newReceiptIndex(rec.Receipts)
	r.receiptLog = slices.Clip(rec.Receipts) // appends must not write into rec's array
	r.gasUsed = rec.GasUsed
	r.st, r.recovery = st, rec
	r.publishView()
}

// closeStore closes a disk-backed node's storage engine, if open.
func (r *replica) closeStore() {
	if r.st != nil {
		r.st.Close()
		r.st = nil
	}
}

// persistBlock appends a committed block to the WAL and snapshots when
// due. Persistence failures (injected disk faults, a crashed disk) are
// counted, not fatal: the block is already committed by quorum, and the
// next recovery re-fetches whatever the disk missed from peers.
func (r *replica) persistBlock(blk *ledger.Block) {
	if r.st == nil {
		return
	}
	err := r.st.AppendBlock(blk)
	if err == nil {
		_, err = r.st.MaybeSnapshot(r.chain, r.state, r.receiptLog, false)
	}
	if err != nil {
		r.persistErrs++
		r.publishView()
	}
}

// LastRecovery returns the report of the node's most recent recovery
// from disk (nil for memory-only nodes and before any recovery).
func (n *Node) LastRecovery() *store.Recovered { return n.view.Load().recovery }

// PersistErrors counts blocks or snapshots the storage engine failed
// to persist (injected faults included). Consensus is unaffected; the
// count is the observable for durability experiments.
func (n *Node) PersistErrors() int64 { return n.view.Load().persistErrs }

// Persistent reports whether the node is disk-backed.
func (n *Node) Persistent() bool { return n.storeOpts != nil }

// DataDir returns the node's data directory ("" for memory-only).
func (n *Node) DataDir() string {
	if n.storeOpts == nil {
		return ""
	}
	return n.storeOpts.Dir
}

// SyncStore forces pending group-commit WAL frames to disk — the
// explicit durability barrier (Close does this implicitly).
func (n *Node) SyncStore() (err error) {
	n.do(func(r *replica) {
		if r.st != nil {
			err = r.st.Sync()
		}
	})
	return err
}

// Snapshot forces a snapshot at the current height regardless of the
// SnapshotEvery schedule. It runs on the loop, between two commits, so
// chain, state and receipt log are of one height.
func (n *Node) Snapshot() (err error) {
	n.do(func(r *replica) {
		if r.st != nil {
			_, err = r.st.MaybeSnapshot(r.chain, r.state, r.receiptLog, true)
		}
	})
	return err
}
