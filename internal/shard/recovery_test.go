package shard

import (
	"encoding/json"
	"strings"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/ledger"
	"medchain/internal/store"
)

// newPersistentSystem boots a disk-backed (MemFS) sharded deployment:
// every chain's every node runs the WAL + snapshot engine, so whole
// shards can be crash-stopped and recovered.
func newPersistentSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.NodesPerShard == 0 {
		cfg.NodesPerShard = 3
	}
	if cfg.CoordNodes == 0 {
		cfg.CoordNodes = 3
	}
	if cfg.KeySeed == "" {
		cfg.KeySeed = "shardtest/" + t.Name()
	}
	disk := store.NewMemFS()
	cfg.FSFor = func(string, int) store.FS { return disk }
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// headOf captures a cluster's best head hash and height.
func headOf(t *testing.T, s *System, i int) (string, uint64) {
	t.Helper()
	n := s.Shard(i).Best()
	if n == nil {
		t.Fatalf("shard %d has no running node", i)
	}
	head := n.Chain().Head()
	return head.Hash().String(), head.Header.Height
}

// TestSystemStopRecoverMid2PC kills the destination shard mid-protocol
// — once with the prepare committed and no pump round run, once after
// the one round that applies the transfer but before the one that
// resolves it — recovers it from disk, and requires the relay to finish
// the 2PC exactly once: the recovered chain is bit-identical to its
// pre-crash head, every node resumed from a snapshot and re-executed
// only the blocks past it, the source tombstones, the destination owns
// the dataset.
func TestSystemStopRecoverMid2PC(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds int // pump rounds before the crash
	}{
		{"after-prepare", 0},
		{"applied-unresolved", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newPersistentSystem(t, Config{Shards: 2, SnapshotEvery: 2})
			owner := mustKey(t, "owner/recover-dest")
			registerDataset(t, s, 0, owner, "ds-crash")
			// Past the first snapshot on the destination in either case.
			registerDataset(t, s, 1, mustKey(t, "filler/recover-dest"), "ds-dest-filler")

			payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-crash"})
			if err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
				ID: "xfer-crash", Kind: contract.CrossTransfer, DestShard: ShardID(1), Payload: payload,
			}); err != nil {
				t.Fatalf("SubmitPrepare: %v", err)
			}
			if _, err := s.Shard(0).CommitAll(); err != nil {
				t.Fatalf("commit prepare: %v", err)
			}
			for r := 0; r < tc.rounds; r++ {
				s.PumpRound()
			}
			_, applied := s.Shard(1).Best().State().CrossInbound(ShardID(0), "xfer-crash")
			if applied != (tc.rounds > 0) || s.PendingTransfers() != 1 {
				t.Fatalf("before the crash: applied=%v pending=%d, want applied=%v and the transfer pending",
					applied, s.PendingTransfers(), tc.rounds > 0)
			}

			wantHash, wantHeight := headOf(t, s, 1)
			s.StopShard(1)
			// The relay must tolerate the dark shard: rounds make no unsafe
			// progress and record no anomalies.
			s.Pump(3)
			if err := s.RecoverShard(1); err != nil {
				t.Fatalf("RecoverShard: %v", err)
			}
			gotHash, gotHeight := headOf(t, s, 1)
			if gotHash != wantHash || gotHeight != wantHeight {
				t.Fatalf("recovered head = %s@%d, want pre-crash %s@%d", gotHash, gotHeight, wantHash, wantHeight)
			}
			for _, n := range s.Shard(1).Nodes() {
				rec := n.LastRecovery()
				if rec == nil {
					t.Fatal("disk-backed node recovered without a recovery report")
				}
				if rec.SnapshotHeight == 0 || rec.ReplayedBlocks != int(rec.Height-rec.SnapshotHeight) {
					t.Fatalf("%s recovered height %d from snapshot %d replaying %d blocks; want a snapshot and only the blocks past it",
						n.ID(), rec.Height, rec.SnapshotHeight, rec.ReplayedBlocks)
				}
			}

			rounds := s.Pump(20)
			if n := s.PendingTransfers(); n != 0 {
				t.Fatalf("still %d pending after %d rounds post-recovery; anomalies=%v", n, rounds, s.Anomalies())
			}
			src := s.Shard(0).Best().State()
			prep, ok := src.CrossOutbound("xfer-crash")
			if !ok || prep.Status != contract.CrossCommitted {
				t.Fatalf("source prepare = %+v, want committed", prep)
			}
			if ds, _ := src.Dataset("ds-crash"); ds == nil || ds.MovedTo != ShardID(1) {
				t.Fatalf("source dataset = %+v, want tombstone to %s", ds, ShardID(1))
			}
			dst := s.Shard(1).Best().State()
			if ds, ok := dst.Dataset("ds-crash"); !ok || ds.Owner != owner.Address() {
				t.Fatalf("dest dataset = %+v, ok=%v", ds, ok)
			}
			res, ok := dst.CrossInbound(ShardID(0), "xfer-crash")
			if !ok || !res.Applied {
				t.Fatalf("dest resolution = %+v, ok=%v — transfer must apply exactly once", res, ok)
			}
			applies := 0
			s.Shard(1).Best().Committed(0, func(blk *ledger.Block, receipts []*contract.Receipt) {
				for j, tx := range blk.Txs {
					if tx.Method == "apply" && receipts[j].OK() {
						applies++
					}
				}
			})
			if applies != 1 {
				t.Fatalf("destination committed %d successful applies, want exactly 1", applies)
			}
			noAnomalies(t, s)
			if err := s.VerifyConsistency(); err != nil {
				t.Fatalf("consistency: %v", err)
			}
		})
	}
}

// TestCoordStopRecoverMid2PC crashes the coordination chain between
// the gateway anchor and the relay, recovers it from disk, and
// requires the anchored roots (and therefore the transfer) to survive.
func TestCoordStopRecoverMid2PC(t *testing.T) {
	s := newPersistentSystem(t, Config{Shards: 2})
	owner := mustKey(t, "owner/recover-coord")
	registerDataset(t, s, 0, owner, "ds-coord-crash")

	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-coord-crash"})
	if err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
		ID: "xfer-coord", Kind: contract.CrossTransfer, DestShard: ShardID(1), Payload: payload,
	}); err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}
	s.PumpRound() // gateway anchors on coord
	anchored := false
	if n := s.Coord().Best(); n != nil {
		_, anchored = n.State().ShardRootAt(ShardID(0), s.Shard(0).Best().Height())
	}

	s.StopCoord()
	s.Pump(3) // relay must idle, not wedge, while coord is dark
	if err := s.RecoverCoord(); err != nil {
		t.Fatalf("RecoverCoord: %v", err)
	}
	if anchored {
		if _, ok := s.Coord().Best().State().ShardRootAt(ShardID(0), s.Shard(0).Best().Height()); !ok {
			t.Fatal("anchored root lost across coordination-chain recovery")
		}
	}

	rounds := s.Pump(20)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending after %d rounds; anomalies=%v", n, rounds, s.Anomalies())
	}
	src := s.Shard(0).Best().State()
	if prep, ok := src.CrossOutbound("xfer-coord"); !ok || prep.Status != contract.CrossCommitted {
		t.Fatalf("source prepare = %+v, want committed", prep)
	}
	noAnomalies(t, s)
	if err := s.VerifyConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

// TestRelayExpireAfterDestPartition is the abort path under chaos: the
// destination shard goes dark before the apply, comes back past the
// transfer's dest-height expiry, and the relay must abort cleanly — the
// expire recorded in the round that relays the source root, behind it,
// a late apply refused as a replay, and the source dataset thawed with
// no tombstone. (An apply past the deadline on a destination that has
// not decided is refused with ErrCrossExpired:
// contract.TestCrossApplyExpiredRejected.)
func TestRelayExpireAfterDestPartition(t *testing.T) {
	s := newPersistentSystem(t, Config{Shards: 2, DestExpiryBlocks: 2})
	owner := mustKey(t, "owner/expire-partition")
	filler := mustKey(t, "filler/expire-partition")
	registerDataset(t, s, 0, owner, "ds-expire")

	destHeight := s.Shard(1).Best().Height()
	payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "ds-expire"})
	if err := s.SubmitPrepare(0, owner, contract.CrossPrepareArgs{
		ID: "xfer-part", Kind: contract.CrossTransfer, DestShard: ShardID(1),
		DestExpiry: destHeight + 2, Payload: payload,
	}); err != nil {
		t.Fatalf("SubmitPrepare: %v", err)
	}
	if _, err := s.Shard(0).CommitAll(); err != nil {
		t.Fatalf("commit prepare: %v", err)
	}

	// Partition the destination before the relay can reach it.
	s.StopShard(1)
	s.Pump(3)
	if s.PendingTransfers() != 1 {
		t.Fatalf("pending = %d with dest dark, want 1", s.PendingTransfers())
	}
	if err := s.RecoverShard(1); err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	// Drive the recovered destination past the deadline with unrelated
	// traffic.
	for i := 0; s.Shard(1).Best().Height() <= destHeight+2 && i < 6; i++ {
		registerDataset(t, s, 1, filler, "ds-filler-"+string(rune('a'+i)))
	}

	// One pump round relays the source root onto the destination and
	// records the expiry behind it: in an earlier block, or first in the
	// same one.
	s.PumpRound()
	srcState := s.Shard(0).Best().State()
	prep, ok := srcState.CrossOutbound("xfer-part")
	if !ok {
		t.Fatal("prepare record missing on source")
	}
	rec := prep.Record
	dest := s.Shard(1).Best()
	res, ok := dest.State().CrossInbound(ShardID(0), "xfer-part")
	if !ok || res.Applied || res.Reason != "expired" {
		t.Fatalf("dest resolution after one round = %+v, ok=%v, want expired", res, ok)
	}
	var rootHeight uint64
	rootAt, expireAt := -1, -1
	dest.Committed(0, func(blk *ledger.Block, receipts []*contract.Receipt) {
		for j, tx := range blk.Txs {
			var a contract.AnchorRootArgs
			switch {
			case rootAt < 0 && tx.Method == "anchor_root" && receipts[j].OK() &&
				json.Unmarshal(tx.Args, &a) == nil && a.Shard == rec.SourceShard && a.Height == rec.SourceHeight:
				rootHeight, rootAt = blk.Header.Height, j
			case tx.Method == "expire" && blk.Header.Height == res.DestHeight && receipts[j].OK():
				expireAt = j
			}
		}
	})
	if rootAt < 0 || expireAt < 0 || rootHeight > res.DestHeight || (rootHeight == res.DestHeight && rootAt > expireAt) {
		t.Fatalf("relayed root at block %d index %d, expire at block %d index %d: want the root committed first",
			rootHeight, rootAt, res.DestHeight, expireAt)
	}

	// The destination has decided: a late apply is refused as a replay.
	proof, _, ok := s.proveLeaf(rec.SourceShard, rec.SourceHeight, rec.Leaf())
	if !ok {
		t.Fatal("prepare proof unavailable")
	}
	args, _ := json.Marshal(contract.CrossApplyArgs{Record: rec, Proof: proof})
	tx := &ledger.Transaction{
		Type: ledger.TxCross, Contract: contract.CrossContractAddr,
		Method: "apply", Args: args,
	}
	if err := SubmitSigned(s.Shard(1), mustKey(t, "relayer/expire-partition"), tx); err != nil {
		t.Fatalf("submit late apply: %v", err)
	}
	if _, err := s.Shard(1).CommitAll(); err != nil {
		t.Fatalf("commit late apply: %v", err)
	}
	r, ok := s.Shard(1).Best().Receipt(tx.ID())
	if !ok || r.OK() || !strings.Contains(r.Err, contract.ErrCrossReplay.Error()) {
		t.Fatalf("late apply receipt = %+v, ok=%v, want ErrCrossReplay", r, ok)
	}

	rounds := s.Pump(20)
	if n := s.PendingTransfers(); n != 0 {
		t.Fatalf("still %d pending after %d rounds; anomalies=%v", n, rounds, s.Anomalies())
	}
	prep, ok = srcState.CrossOutbound("xfer-part")
	if !ok || prep.Status != contract.CrossAborted {
		t.Fatalf("source prepare = %+v, want aborted", prep)
	}
	ds, ok := srcState.Dataset("ds-expire")
	if !ok || ds.Frozen || ds.MovedTo != "" {
		t.Fatalf("source dataset = %+v, want thawed with no tombstone", ds)
	}
	res, ok = s.Shard(1).Best().State().CrossInbound(ShardID(0), "xfer-part")
	if !ok || res.Applied || res.Reason != "expired" {
		t.Fatalf("dest resolution = %+v, ok=%v, want expired refusal", res, ok)
	}
	if _, leaked := s.Shard(1).Best().State().Dataset("ds-expire"); leaked {
		t.Fatal("expired transfer leaked the dataset onto the destination")
	}
	if err := s.VerifyConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}
