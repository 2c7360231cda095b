package contract

import (
	"encoding/json"
	"strings"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
)

// initShard boots a State as member shard shardID under coordinator
// coord.
func initShard(t testing.TB, shardID string, coord cryptoutil.Address) *State {
	t.Helper()
	s := NewState()
	op := key(t, "xshard-op")
	mustOK(t, apply(t, s, tx(t, op, ledger.TxCross, "init", InitCrossArgs{
		ShardID: shardID, Shards: 2, Coordinator: coord,
	})))
	return s
}

// applyAt applies a tx at an explicit block height.
func applyAt(t testing.TB, s *State, transaction *ledger.Transaction, height uint64) *Receipt {
	t.Helper()
	r, err := s.Apply(transaction, height, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// wantErrIs asserts the receipt failed with the given typed error.
func wantErrIs(t testing.TB, r *Receipt, want error) {
	t.Helper()
	if r.OK() {
		t.Fatalf("receipt succeeded, want %v", want)
	}
	if !strings.Contains(r.Err, want.Error()) {
		t.Fatalf("receipt error %q, want %v", r.Err, want)
	}
}

// prepareTransfer registers a dataset on src and commits a transfer
// prepare at the given height, returning the canonical record and the
// Merkle tree over that block's (single) cross leaf.
func prepareTransfer(t testing.TB, src *State, owner *cryptoutil.KeyPair, dsID, destShard string, height, destExpiry uint64) (CrossRecord, *merkle.Tree) {
	t.Helper()
	registerDataset(t, src, owner, dsID, "site-x")
	payload, _ := json.Marshal(CrossTransferPayload{Dataset: dsID})
	r := mustOK(t, applyAt(t, src, tx(t, owner, ledger.TxCross, "prepare", CrossPrepareArgs{
		ID: "xfer-" + dsID, Kind: CrossTransfer, DestShard: destShard,
		DestExpiry: destExpiry, Payload: payload,
	}), height))
	var rec CrossRecord
	for _, ev := range r.Events {
		if ev.Topic == "CrossPrepared" {
			if err := json.Unmarshal(ev.Data, &rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rec.ID == "" {
		t.Fatal("prepare emitted no CrossPrepared event")
	}
	return rec, merkle.New([][]byte{rec.Leaf()})
}

// resolutionOf returns the resolution an apply or expire receipt
// emitted.
func resolutionOf(t testing.TB, r *Receipt) CrossResolution {
	t.Helper()
	for _, ev := range r.Events {
		if ev.Topic == "CrossResolved" {
			var res CrossResolution
			if err := json.Unmarshal(ev.Data, &res); err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	t.Fatal("receipt emitted no CrossResolved event")
	return CrossResolution{}
}

// anchor relays a source root onto a member shard as the coordinator.
func anchor(t testing.TB, s *State, coord *cryptoutil.KeyPair, shard string, height uint64, root cryptoutil.Digest) {
	t.Helper()
	mustOK(t, apply(t, s, tx(t, coord, ledger.TxCross, "anchor_root", AnchorRootArgs{
		Shard: shard, Height: height, Root: root,
	})))
}

func TestCrossApplyForgedProofRejected(t *testing.T) {
	coord := key(t, "xshard-coord")
	owner := key(t, "xshard-owner")
	src := initShard(t, "shard-0", coord.Address())
	dst := initShard(t, "shard-1", coord.Address())

	rec, tree := prepareTransfer(t, src, owner, "ds-forge", "shard-1", 2, 100)
	anchor(t, dst, coord, "shard-0", 2, tree.Root())

	// A record never prepared on shard-0, proved against its own
	// single-leaf tree: the root differs from the anchored one.
	forged := rec
	forged.ID, forged.From = "xfer-forged", owner.Address()
	fakeProof, _ := merkle.New([][]byte{forged.Leaf()}).Prove(0)
	r := apply(t, dst, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: forged, Proof: fakeProof}))
	wantErrIs(t, r, ErrCrossProof)
}

func TestCrossApplyStaleProofRejected(t *testing.T) {
	coord := key(t, "xshard-coord")
	owner := key(t, "xshard-owner")
	src := initShard(t, "shard-0", coord.Address())
	dst := initShard(t, "shard-1", coord.Address())

	// Two prepares at different heights; each block anchors its own
	// root. A proof for the height-3 record offered against the
	// height-2 root is stale and must not verify.
	rec2, tree2 := prepareTransfer(t, src, owner, "ds-a", "shard-1", 2, 100)
	rec3, _ := prepareTransfer(t, src, owner, "ds-b", "shard-1", 3, 100)
	anchor(t, dst, coord, "shard-0", 2, tree2.Root())

	stale := rec3
	stale.SourceHeight = 2 // claim the height whose root is anchored
	proof2, _ := tree2.Prove(0)
	r := apply(t, dst, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: stale, Proof: proof2}))
	wantErrIs(t, r, ErrCrossProof)
	_ = rec2
}

func TestCrossApplyUnanchoredRootRejected(t *testing.T) {
	coord := key(t, "xshard-coord")
	owner := key(t, "xshard-owner")
	src := initShard(t, "shard-0", coord.Address())
	dst := initShard(t, "shard-1", coord.Address())

	rec, tree := prepareTransfer(t, src, owner, "ds-un", "shard-1", 2, 100)
	proof, _ := tree.Prove(0)
	// No anchor_root relayed: even a perfectly valid proof has nothing
	// to verify against.
	r := apply(t, dst, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: rec, Proof: proof}))
	wantErrIs(t, r, ErrCrossUnanchored)
}

func TestCrossApplyReplayRejected(t *testing.T) {
	coord := key(t, "xshard-coord")
	owner := key(t, "xshard-owner")
	src := initShard(t, "shard-0", coord.Address())
	dst := initShard(t, "shard-1", coord.Address())

	rec, tree := prepareTransfer(t, src, owner, "ds-rp", "shard-1", 2, 100)
	anchor(t, dst, coord, "shard-0", 2, tree.Root())
	proof, _ := tree.Prove(0)

	mustOK(t, apply(t, dst, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: rec, Proof: proof})))
	// The replayed prepare receipt must be refused BEFORE proof
	// verification — even a valid proof cannot re-apply a transfer.
	r := apply(t, dst, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: rec, Proof: proof}))
	wantErrIs(t, r, ErrCrossReplay)
}

func TestCrossApplyExpiredRejected(t *testing.T) {
	coord := key(t, "xshard-coord")
	owner := key(t, "xshard-owner")
	src := initShard(t, "shard-0", coord.Address())
	dst := initShard(t, "shard-1", coord.Address())

	rec, tree := prepareTransfer(t, src, owner, "ds-ex", "shard-1", 2, 3)
	anchor(t, dst, coord, "shard-0", 2, tree.Root())
	proof, _ := tree.Prove(0)

	r := applyAt(t, dst, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: rec, Proof: proof}), 4)
	wantErrIs(t, r, ErrCrossExpired)
	// Past the deadline only the expire path settles the transfer —
	// as a negative resolution.
	r = mustOK(t, applyAt(t, dst, tx(t, owner, ledger.TxCross, "expire", CrossApplyArgs{Record: rec, Proof: proof}), 4))
	res, ok := dst.CrossInbound("shard-0", rec.ID)
	if !ok || res.Applied {
		t.Fatalf("expire resolution = %+v ok=%v, want recorded and not applied", res, ok)
	}
}

func TestCrossUnauthorizedSenders(t *testing.T) {
	coordKey := key(t, "xshard-coord")
	gw := key(t, "xshard-gw")
	imposter := key(t, "xshard-imposter")

	// Coordination chain: register_shard and anchor_root are
	// identity-gated.
	coord := initShard(t, CoordShardID, coordKey.Address())
	r := apply(t, coord, tx(t, imposter, ledger.TxCross, "register_shard", RegisterShardArgs{
		ID: "shard-0", Gateway: gw.Address(),
	}))
	wantErrIs(t, r, ErrCrossUnauthorized)
	mustOK(t, apply(t, coord, tx(t, coordKey, ledger.TxCross, "register_shard", RegisterShardArgs{
		ID: "shard-0", Gateway: gw.Address(),
	})))
	root := cryptoutil.Sum([]byte("some-root"))
	r = apply(t, coord, tx(t, imposter, ledger.TxCross, "anchor_root", AnchorRootArgs{
		Shard: "shard-0", Height: 2, Root: root,
	}))
	wantErrIs(t, r, ErrCrossUnauthorized)
	mustOK(t, apply(t, coord, tx(t, gw, ledger.TxCross, "anchor_root", AnchorRootArgs{
		Shard: "shard-0", Height: 2, Root: root,
	})))

	// Member shard: relayed roots are accepted from the coordinator
	// only.
	member := initShard(t, "shard-1", coordKey.Address())
	r = apply(t, member, tx(t, gw, ledger.TxCross, "anchor_root", AnchorRootArgs{
		Shard: "shard-0", Height: 2, Root: root,
	}))
	wantErrIs(t, r, ErrCrossUnauthorized)
}

func TestCrossResolveReplayRejected(t *testing.T) {
	coord := key(t, "xshard-coord")
	owner := key(t, "xshard-owner")
	src := initShard(t, "shard-0", coord.Address())
	dst := initShard(t, "shard-1", coord.Address())

	rec, tree := prepareTransfer(t, src, owner, "ds-rr", "shard-1", 2, 100)
	anchor(t, dst, coord, "shard-0", 2, tree.Root())
	proof, _ := tree.Prove(0)
	r := mustOK(t, applyAt(t, dst, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: rec, Proof: proof}), 3))

	res := resolutionOf(t, r)
	resTree := merkle.New([][]byte{res.Leaf()})
	anchor(t, src, coord, "shard-1", 3, resTree.Root())
	resProof, _ := resTree.Prove(0)

	mustOK(t, apply(t, src, tx(t, coord, ledger.TxCross, "resolve", CrossResolveArgs{Resolution: res, Proof: resProof})))
	prep, ok := src.CrossOutbound(rec.ID)
	if !ok || prep.Status != CrossCommitted {
		t.Fatalf("prepare after resolve = %+v ok=%v, want committed", prep, ok)
	}
	// A second resolution for an already-settled prepare is a replay.
	r = apply(t, src, tx(t, coord, ledger.TxCross, "resolve", CrossResolveArgs{Resolution: res, Proof: resProof}))
	wantErrIs(t, r, ErrCrossReplay)
}

// TestCrossApplySkippedVerificationAcceptsForgery pins down what the
// mutation seam does: with proof verification disabled a forged record
// IS accepted on chain — by the live state and by one rebuilt from its
// export, the way a node recovers from disk. This is the exact
// unsoundness the sharded simulation's probes and shadow audit exist to
// catch (see TestShardedSimCatchesSkippedProofVerification).
func TestCrossApplySkippedVerificationAcceptsForgery(t *testing.T) {
	coord := key(t, "xshard-coord")
	owner := key(t, "xshard-owner")
	src := initShard(t, "shard-0", coord.Address())
	dst := initShard(t, "shard-1", coord.Address())

	rec, tree := prepareTransfer(t, src, owner, "ds-mu", "shard-1", 2, 100)
	anchor(t, dst, coord, "shard-0", 2, tree.Root())
	recovered := ImportState(dst.Export())

	defer SetSkipCrossProofVerify()()
	for _, c := range []struct {
		name string
		s    *State
	}{{"live", dst}, {"recovered", recovered}} {
		t.Run(c.name, func(t *testing.T) {
			forged := rec
			forged.ID = "xfer-forged-mu"
			fakeProof, _ := merkle.New([][]byte{forged.Leaf()}).Prove(0)
			r := apply(t, c.s, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: forged, Proof: fakeProof}))
			if !r.OK() {
				t.Fatalf("seam on: forged apply rejected (%s) — the mutation under test no longer exists", r.Err)
			}
			// The anchor lookup is NOT covered by the seam: an unanchored
			// height still fails, which is why the sim probes both.
			forged.ID, forged.SourceHeight = "xfer-forged-mu2", 99
			r = apply(t, c.s, tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: forged, Proof: fakeProof}))
			wantErrIs(t, r, ErrCrossUnanchored)
		})
	}
}
