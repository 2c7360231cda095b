package contract

import (
	"encoding/json"
	"testing"

	"medchain/internal/ledger"
	"medchain/internal/merkle"
)

// FuzzImportState feeds arbitrary bytes through the snapshot decoder:
// whatever json.Unmarshal accepts as a StateExport (duplicate or
// colliding keys, nil pointers, orphan VM storage) must import without
// panicking, and the imported state must be a fixed point of
// Export → ImportState — a node that recovers from its own snapshot has
// to land on the root it had.
func FuzzImportState(f *testing.F) {
	golden, err := json.Marshal(allKindsExport(f))
	if err != nil {
		f.Fatal(err)
	}
	nilHeavy := []byte(`{"datasets":[{},{}],"trials":[{"reports":[{}]}],"policies":[{"policy":{"grants":[{}]}}],` +
		`"evidence":[{}],"deployed":[{}],"vm_storage":[{"pairs":[{}]},{"address":"00000000000000000000000000000000000000ff"}],"cross_config":null,` +
		`"shard_dir":[{}],"shard_roots":[{}],"cross_out":[{}],"cross_in":[{}],"fl_rounds":[{"contributions":[{}]}],` +
		`"routing":{"current":null,"pending":{}}}`)
	for _, seed := range [][]byte{golden, []byte(`{}`), nilHeavy} {
		if err := json.Unmarshal(seed, new(StateExport)); err != nil {
			f.Fatalf("seed does not decode: %v", err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ex StateExport
		if json.Unmarshal(data, &ex) != nil {
			return
		}
		s := ImportState(&ex)
		root := s.Root()
		if again := ImportState(s.Export()).Root(); again != root {
			t.Fatalf("re-imported root %s, first import %s", again, root)
		}
	})
}

// FuzzCrossApply feeds arbitrary bytes as the args of cross/apply,
// expire and resolve to member shard-1, which holds one anchored root:
// shard-0's block 2, whose cross leaves are a live prepare, a prepare
// past its deadline and the resolution of shard-1's own outbound
// transfer. No input may panic; a receipt may succeed only when
// merkle.Verify independently accepts the leaf it names under that root;
// a refused call leaves the state root where it was.
func FuzzCrossApply(f *testing.F) {
	const height = 3 // past expired's deadline, before live's
	coord := key(f, "xshard-coord")
	owner := key(f, "xshard-owner")
	src := initShard(f, "shard-0", coord.Address())
	dst := initShard(f, "shard-1", coord.Address())

	out, outTree := prepareTransfer(f, dst, owner, "ds-fz-out", "shard-0", 1, 100)
	outProof, _ := outTree.Prove(0)
	anchor(f, src, coord, "shard-1", 1, outTree.Root())
	res := resolutionOf(f, mustOK(f, applyAt(f, src, tx(f, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: out, Proof: outProof}), 2)))
	live, _ := prepareTransfer(f, src, owner, "ds-fz-live", "shard-1", 2, 100)
	expired, _ := prepareTransfer(f, src, owner, "ds-fz-expired", "shard-1", 2, 1)
	tree := merkle.New([][]byte{live.Leaf(), expired.Leaf(), res.Leaf()})
	anchor(f, dst, coord, "shard-0", 2, tree.Root())
	root := dst.Root()

	methods := []string{"apply", "expire", "resolve"}
	call := func(t testing.TB, m uint8, args []byte) (*State, *Receipt) {
		transaction := &ledger.Transaction{Type: ledger.TxCross, Method: methods[int(m)%len(methods)], Args: args, Timestamp: 1}
		if err := transaction.Sign(owner); err != nil {
			t.Fatal(err)
		}
		s := dst.Clone()
		return s, applyAt(t, s, transaction, height)
	}
	// seed adds one input; a genuine one must be accepted, or the target
	// only ever sees refusals.
	seed := func(m uint8, args any, genuine bool) {
		raw, err := json.Marshal(args)
		if err != nil {
			f.Fatal(err)
		}
		if genuine {
			_, r := call(f, m, raw)
			mustOK(f, r)
		}
		f.Add(m, raw)
	}
	oneLeaf := func(leaf []byte) *merkle.Proof {
		p, _ := merkle.New([][]byte{leaf}).Prove(0)
		return p
	}
	for i, rec := range []CrossRecord{live, expired} { // apply, expire
		proof, _ := tree.Prove(i)
		seed(uint8(i), CrossApplyArgs{Record: rec, Proof: proof}, true)
		forged := rec
		forged.ID = rec.ID + "-forged"
		seed(uint8(i), CrossApplyArgs{Record: forged, Proof: oneLeaf(forged.Leaf())}, false)
		unanchored := rec
		unanchored.SourceHeight = 99
		seed(uint8(i), CrossApplyArgs{Record: unanchored, Proof: proof}, false)
		seed(uint8(i), nil, false)
	}
	resProof, _ := tree.Prove(2)
	seed(2, CrossResolveArgs{Resolution: res, Proof: resProof}, true)
	forged := res
	forged.Applied, forged.Reason = false, "forged"
	seed(2, CrossResolveArgs{Resolution: forged, Proof: oneLeaf(forged.Leaf())}, false)
	unanchored := res
	unanchored.DestHeight = 99
	seed(2, CrossResolveArgs{Resolution: unanchored, Proof: resProof}, false)
	seed(2, nil, false)

	f.Fuzz(func(t *testing.T, m uint8, args []byte) {
		method := methods[int(m)%len(methods)]
		s, r := call(t, m, args)
		if !r.OK() {
			if got := s.Root(); got != root {
				t.Fatalf("refused %s (%s) moved the root %s -> %s", method, r.Err, root, got)
			}
			return
		}
		var (
			shard string
			at    uint64
			leaf  []byte
			proof *merkle.Proof
		)
		if method == "resolve" {
			var a CrossResolveArgs
			if err := json.Unmarshal(args, &a); err != nil {
				t.Fatalf("resolve accepted args that do not decode: %v", err)
			}
			shard, at, leaf, proof = a.Resolution.DestShard, a.Resolution.DestHeight, a.Resolution.Leaf(), a.Proof
		} else {
			var a CrossApplyArgs
			if err := json.Unmarshal(args, &a); err != nil {
				t.Fatalf("%s accepted args that do not decode: %v", method, err)
			}
			shard, at, leaf, proof = a.Record.SourceShard, a.Record.SourceHeight, a.Record.Leaf(), a.Proof
		}
		if shard != "shard-0" || at != 2 || !merkle.Verify(tree.Root(), leaf, proof) {
			t.Fatalf("%s accepted a leaf of %s@%d that the anchored root does not verify", method, shard, at)
		}
	})
}
