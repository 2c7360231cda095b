package chain

import (
	"fmt"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/store"
)

// PersistOptions configures a node's durable storage engine.
type PersistOptions struct {
	// Dir is the node's data directory.
	Dir string
	// FS overrides the filesystem (nil = the real disk). Tests and the
	// simulation harness inject store.MemFS / store.FaultFS here.
	FS store.FS
	// SyncEvery batches WAL fsyncs: one fsync per SyncEvery blocks
	// (<=1 = every block).
	SyncEvery int
	// SnapshotEvery writes a state snapshot every N blocks (0 = none).
	SnapshotEvery int
}

func (p PersistOptions) storeOptions(chainID string) store.Options {
	return store.Options{
		FS: p.FS, Dir: p.Dir, ChainID: chainID,
		SyncEvery: p.SyncEvery, SnapshotEvery: p.SnapshotEvery,
	}
}

// NodeConfig configures a node, optionally disk-backed.
type NodeConfig struct {
	// ID is the network identity.
	ID p2p.NodeID
	// Key signs votes, seals, and identifies the node on chain.
	Key *cryptoutil.KeyPair
	// ChainID must match across the cluster.
	ChainID string
	// Validators is the set the node's Quorum certifies blocks against.
	Validators *consensus.ValidatorSet
	// Network is the transport to join.
	Network *p2p.Network
	// DataDir enables the durable storage engine: the block WAL and
	// state snapshots live here and the node recovers from it on
	// construction and on Restart. Empty = memory-only.
	DataDir string
	// FS, SyncEvery, SnapshotEvery tune the storage engine; see
	// PersistOptions. Ignored when DataDir is empty.
	FS            store.FS
	SyncEvery     int
	SnapshotEvery int
}

// NewNodeFromConfig creates a node, recovering ledger, contract state,
// receipts, and nonces from DataDir first when one is configured — a
// process restart resumes at its durable height instead of genesis.
// The recovery report is non-nil exactly when DataDir is set.
func NewNodeFromConfig(cfg NodeConfig) (*Node, *store.Recovered, error) {
	n := newNode(cfg.ID, cfg.Key, cfg.ChainID, cfg.Validators)
	var rec *store.Recovered
	if cfg.DataDir != "" {
		n.popts = &PersistOptions{
			Dir: cfg.DataDir, FS: cfg.FS,
			SyncEvery: cfg.SyncEvery, SnapshotEvery: cfg.SnapshotEvery,
		}
		st, r, err := store.Open(n.popts.storeOptions(cfg.ChainID))
		if err != nil {
			return nil, nil, fmt.Errorf("chain: open store for %s: %w", cfg.ID, err)
		}
		n.st = st
		n.adoptRecovered(r)
		n.lastRecovery = r
		rec = r
	}
	ep, err := cfg.Network.Join(cfg.ID)
	if err != nil {
		if n.st != nil {
			n.st.Close()
		}
		return nil, nil, fmt.Errorf("chain: join network: %w", err)
	}
	n.net = cfg.Network
	n.start(ep)
	return n, rec, nil
}

// reopenStore recovers a disk-backed node's state from its data
// directory; memory-only nodes are a no-op. Called under lifeMu while
// the node is stopped (no loop, no appends in flight). persistMu is
// never held across adoptRecovered — acceptBlock acquires applyMu
// before persistMu, and holding them in the opposite order here would
// deadlock.
func (n *Node) reopenStore() error {
	n.persistMu.Lock()
	popts := n.popts
	open := n.st != nil
	n.persistMu.Unlock()
	if popts == nil || open {
		return nil
	}
	st, rec, err := store.Open(popts.storeOptions(n.chainID))
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
	n.gasUsed = rec.GasUsed
	n.events.fire() // the height may have changed
}

// persistBlock appends a committed block to the WAL and snapshots when
// due. Persistence failures (injected disk faults, a crashed disk) are
// counted, not fatal: the block is already committed by quorum, and the
// next recovery re-fetches whatever the disk missed from peers.
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
	// orderedReceipts walks the whole chain: only pay for it on the
	// blocks that snapshot.
	if !st.SnapshotDue() {
		return
	}
	if _, err := st.MaybeSnapshot(n.chain, n.state, n.orderedReceipts(), false); err != nil {
		n.notePersistErr()
	}
}

func (n *Node) notePersistErr() {
	n.persistMu.Lock()
	n.persistErrs++
	n.persistMu.Unlock()
}

// orderedReceipts returns the receipts of every committed transaction
// in chain order — the snapshot payload's receipt log.
func (n *Node) orderedReceipts() []*contract.Receipt {
	var out []*contract.Receipt
	n.Committed(0, func(_ *ledger.Block, receipts []*contract.Receipt) {
		out = append(out, receipts...)
	})
	return out
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
func (n *Node) Persistent() bool {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	return n.popts != nil
}

// DataDir returns the node's data directory ("" for memory-only).
func (n *Node) DataDir() string {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	if n.popts == nil {
		return ""
	}
	return n.popts.Dir
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
// SnapshotEvery schedule.
func (n *Node) Snapshot() error {
	n.persistMu.Lock()
	st := n.st
	n.persistMu.Unlock()
	if st == nil {
		return nil
	}
	_, err := st.MaybeSnapshot(n.chain, n.state, n.orderedReceipts(), true)
	return err
}
