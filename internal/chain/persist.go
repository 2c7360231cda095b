package chain

import (
	"fmt"
	"slices"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/store"
)

// reopenStore recovers a disk-backed node's state from its data
// directory; memory-only nodes are a no-op. Called while the node is
// not running (no loop, no appends in flight): by NewNode, and by
// Restart under lifeMu. persistMu is never held across adoptRecovered —
// acceptBlock acquires applyMu before persistMu, and holding them in
// the opposite order here would deadlock.
func (n *Node) reopenStore() error {
	n.persistMu.Lock()
	open := n.st != nil
	n.persistMu.Unlock()
	if n.storeOpts == nil || open {
		return nil
	}
	st, rec, err := store.Open(*n.storeOpts)
	if err != nil {
		return fmt.Errorf("chain: recover node %s: %w", n.id, err)
	}
	n.adoptRecovered(rec)
	n.persistMu.Lock()
	n.st = st
	n.lastRecovery = rec
	n.persistMu.Unlock()
	return nil
}

// adoptRecovered swaps recovered ledger/state/receipts into the node.
// The mempool is dropped (a crashed process loses it; gossip and
// ResubmitPending repopulate it), and committed-transaction dedupe
// needs no rebuild — SubmitLocal consults the recovered chain's
// transaction index directly. Host functions installed on the previous
// state (oracle bridges) carry over.
func (n *Node) adoptRecovered(rec *store.Recovered) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.setPending(nil) // a preview is tied to the state object it was made over
	n.mu.Lock()
	defer n.mu.Unlock()
	rec.State.AdoptHostFrom(n.state)
	n.chain = rec.Chain
	n.state = rec.State
	n.pool.Reset()
	// The audit nonce sequence re-anchors to the recovered chain: any
	// in-flight audit transactions died with the pool, and continuing
	// the old sequence would leave a permanent nonce gap.
	n.auditMu.Lock()
	n.auditNonceNext = 0
	n.auditMu.Unlock()
	n.receipts = make(map[cryptoutil.Digest]*contract.Receipt, len(rec.Receipts))
	for _, r := range rec.Receipts {
		n.receipts[r.TxID] = r
	}
	n.receiptLog = slices.Clip(rec.Receipts) // appends must not write into rec's array
	n.gasUsed = rec.GasUsed
	n.events.fire() // the height may have changed
}

// persistBlock appends a committed block to the WAL and snapshots when
// due; the caller, acceptBlock, holds applyMu. Persistence failures
// (injected disk faults, a crashed disk) are counted, not fatal: the
// block is already committed by quorum, and the next recovery re-fetches
// whatever the disk missed from peers.
func (n *Node) persistBlock(blk *ledger.Block) {
	n.persistMu.Lock()
	st := n.st
	n.persistMu.Unlock()
	if st == nil {
		return
	}
	if err := st.AppendBlock(blk); err != nil {
		n.notePersistErr()
		return
	}
	if _, err := st.MaybeSnapshot(n.chain, n.state, n.receiptLog, false); err != nil {
		n.notePersistErr()
	}
}

func (n *Node) notePersistErr() {
	n.persistMu.Lock()
	n.persistErrs++
	n.persistMu.Unlock()
}

// LastRecovery returns the report of the node's most recent recovery
// from disk (nil for memory-only nodes and before any recovery).
func (n *Node) LastRecovery() *store.Recovered {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	return n.lastRecovery
}

// PersistErrors counts blocks or snapshots the storage engine failed
// to persist (injected faults included). Consensus is unaffected; the
// count is the observable for durability experiments.
func (n *Node) PersistErrors() int64 {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	return n.persistErrs
}

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
func (n *Node) SyncStore() error {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	if n.st == nil {
		return nil
	}
	return n.st.Sync()
}

// Snapshot forces a snapshot at the current height regardless of the
// SnapshotEvery schedule. It holds applyMu, as persistBlock's caller
// does, so chain, state and receipt log are of one height: acceptBlock
// adopts a block's state before it appends the block.
func (n *Node) Snapshot() error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.persistMu.Lock()
	st := n.st
	n.persistMu.Unlock()
	if st == nil {
		return nil
	}
	_, err := st.MaybeSnapshot(n.chain, n.state, n.receiptLog, true)
	return err
}
