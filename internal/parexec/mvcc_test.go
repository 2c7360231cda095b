package parexec_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/contract/fixtures"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
	"medchain/internal/parexec"
)

// chainBatch builds a base with datasets "ca"/"cb" and a block shaped
// as one three-deep dependency chain on ca's policy plus two
// independent transactions:
//
//	idx 0 grant(ca)   — depth 0 ┐
//	idx 1 revoke(ca)  — depth 1 ├ chain on pol/data:ca
//	idx 2 grant(ca)   — depth 2 ┘
//	idx 3 grant(cb)   — depth 0 (independent)
//	idx 4 anchor      — depth 0 (independent)
func chainBatch(t *testing.T) (*contract.State, []*ledger.Transaction) {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair("px-mvcc-owner")
	if err != nil {
		t.Fatal(err)
	}
	digest := cryptoutil.Sum([]byte("m"))
	base := contract.NewState()
	for i, id := range []string{"ca", "cb"} {
		reg := mustTx(t, kp, uint64(i), ledger.TxData, "register_dataset",
			contract.RegisterDatasetArgs{ID: id, Digest: digest, SiteID: "s"}, cryptoutil.Address{})
		if r, err := base.Apply(reg, 1, 1); err != nil || !r.OK() {
			t.Fatalf("setup: %v %v", err, r)
		}
	}
	grantee := cryptoutil.NamedAddress("px-mvcc-g")
	batch := []*ledger.Transaction{
		mustTx(t, kp, 2, ledger.TxData, "grant", contract.GrantArgs{Resource: "data:ca", Grantee: grantee, Actions: []contract.Action{contract.ActionRead}}, cryptoutil.Address{}),
		mustTx(t, kp, 3, ledger.TxData, "revoke", contract.RevokeArgs{Resource: "data:ca", Grantee: grantee}, cryptoutil.Address{}),
		mustTx(t, kp, 4, ledger.TxData, "grant", contract.GrantArgs{Resource: "data:ca", Grantee: grantee, Actions: []contract.Action{contract.ActionExecute}}, cryptoutil.Address{}),
		mustTx(t, kp, 5, ledger.TxData, "grant", contract.GrantArgs{Resource: "data:cb", Grantee: grantee, Actions: []contract.Action{contract.ActionRead}}, cryptoutil.Address{}),
		mustTx(t, kp, 6, ledger.TxAnchor, "anchor", contract.AnchorArgs{Label: "ma", Digest: digest}, cryptoutil.Address{}),
	}
	return base, batch
}

// TestMVCCSchedulerAccounting pins the wave structure and counters for
// a known DAG: waves == chain depth, and the scheduler runs everything
// exactly once on the parallel path (all Clean, no serial tail) even
// though three of the five transactions conflict.
func TestMVCCSchedulerAccounting(t *testing.T) {
	base, batch := chainBatch(t)
	serial := base.Clone()
	want := applyAll(t, serial, batch)

	st := base.Clone()
	got, stats, err := newEngine(parexec.ModeMVCCWave, 4).ExecuteBlock(st, batch, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Root() != serial.Root() || !reflect.DeepEqual(got, want) {
		t.Fatal("diverged from serial")
	}
	checkStats(t, parexec.ModeMVCCWave, stats)
	if stats.Clean != 5 || stats.Waves != 3 || stats.Serial != 0 {
		t.Fatalf("want clean=5 waves=3 serial=0, got %+v", stats)
	}
}

// TestMVCCDropDAGEdgeDiverges proves the dropped-edge seam is
// load-bearing at the engine level: on a conflicting workload, the
// mutated engine must produce a state root or receipts that differ from
// serial, while the unmutated configuration matches exactly.
// (TestSimCatchesDroppedDAGEdge proves the same end to end.)
func TestMVCCDropDAGEdgeDiverges(t *testing.T) {
	defer parexec.SetDropDAGEdge()()
	base, batch := chainBatch(t)
	serial := base.Clone()
	want := applyAll(t, serial, batch)
	cfg := parexec.Config{Workers: 4, Mode: parexec.ModeMVCCWave}

	mutated := base.Clone()
	got, _, err := parexec.NewEngine(cfg).ExecuteBlock(mutated, batch, 2, 2)
	if err != nil {
		t.Fatalf("mutated engine errored instead of diverging: %v", err)
	}
	if mutated.Root() == serial.Root() && reflect.DeepEqual(got, want) {
		t.Fatal("knob enabled but results still match serial — the guard it deletes is dead code")
	}
	// The divergence must be deterministic (seed-reproducible in the
	// sim): a second mutated run lands on the identical wrong answer.
	again := base.Clone()
	got2, _, err := parexec.NewEngine(cfg).ExecuteBlock(again, batch, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Root() != mutated.Root() || !reflect.DeepEqual(got, got2) {
		t.Fatal("mutated divergence is nondeterministic")
	}

	// The relay's blocks: without the anchor_root → dependent edge the
	// dependent transaction runs in the root's wave and finds no root.
	relayBase, relay := relayBlocks(t)
	for i, batch := range relay {
		got, _, err := parexec.NewEngine(cfg).ExecuteBlock(relayBase.Clone(), batch, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if r := got[1]; r.OK() || !strings.Contains(r.Err, contract.ErrCrossUnanchored.Error()) {
			t.Fatalf("relay block %d: %s receipt ok=%v err=%q, want ErrCrossUnanchored", i, batch[1].Method, r.OK(), r.Err)
		}
	}
}

// relayBlocks builds, over the fixtures' member shard "shard-1", the two
// blocks the cross-shard relay makes, each a relayed shard-0 root
// followed by the coordinator's transaction whose proof needs it (the
// coordinator signs both, so nonce order fixes that order): the
// destination side [anchor_root(shard-0, 20), apply(record@20)] and the
// source side [anchor_root(shard-0, 21), resolve(resolution@21)] of the
// fixtures' pending transfer out-1. Every receipt of both is OK under
// the serial reference.
func relayBlocks(t *testing.T) (*contract.State, [][]*ledger.Transaction) {
	t.Helper()
	base := fixtures.New(t).Member
	cfg, ok := base.CrossConfig()
	if !ok {
		t.Fatal("fixtures member shard has no cross config")
	}
	nonce := uint64(0)
	tx := func(method string, args any) *ledger.Transaction {
		raw, err := json.Marshal(args)
		if err != nil {
			t.Fatal(err)
		}
		nonce++
		return &ledger.Transaction{Type: ledger.TxCross, From: cfg.Coordinator, Nonce: nonce, Method: method, Args: raw, Timestamp: 1}
	}
	relayed := func(height uint64, leaf []byte) (contract.AnchorRootArgs, *merkle.Proof) {
		tree := merkle.New([][]byte{leaf})
		proof, err := tree.Prove(0)
		if err != nil {
			t.Fatal(err)
		}
		return contract.AnchorRootArgs{Shard: "shard-0", Height: height, Root: tree.Root()}, proof
	}

	payload, _ := json.Marshal(contract.CrossTransferPayload{
		Dataset: "ds-same-block", Digest: cryptoutil.Sum([]byte("sb")), Schema: "cdf/v1", Records: 4, SiteID: "site-0",
	})
	rec := contract.CrossRecord{
		ID: "in-same-block", Kind: contract.CrossTransfer, SourceShard: "shard-0", DestShard: "shard-1",
		From: cryptoutil.NamedAddress("px-same-block"), SourceHeight: 20, DestExpiry: 100, Payload: payload,
	}
	recRoot, recProof := relayed(rec.SourceHeight, rec.Leaf())
	res := contract.CrossResolution{
		ID: "out-1", SourceShard: "shard-1", DestShard: "shard-0", Kind: contract.CrossTransfer,
		Resource: "ds-moving", Applied: true, DestHeight: 21,
	}
	resRoot, resProof := relayed(res.DestHeight, res.Leaf())
	blocks := [][]*ledger.Transaction{
		{tx("anchor_root", recRoot), tx("apply", contract.CrossApplyArgs{Record: rec, Proof: recProof})},
		{tx("anchor_root", resRoot), tx("resolve", contract.CrossResolveArgs{Resolution: res, Proof: resProof})},
	}
	for i, batch := range blocks {
		for j, r := range applyAll(t, base.Clone(), batch) {
			if !r.OK() {
				t.Fatalf("relay block %d: serial %s receipt failed: %s", i, batch[j].Method, r.Err)
			}
		}
	}
	return base, blocks
}
