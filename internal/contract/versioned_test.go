package contract

import (
	"reflect"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// versionedBase builds a state with one registered dataset owned by kp.
func versionedBase(t *testing.T, kp *cryptoutil.KeyPair, id string) *State {
	t.Helper()
	st := NewState()
	reg := tx(t, kp, ledger.TxData, "register_dataset",
		RegisterDatasetArgs{ID: id, Digest: cryptoutil.Sum([]byte(id)), SiteID: "s"})
	if r, err := st.Apply(reg, 1, 1); err != nil || !r.OK() {
		t.Fatalf("setup: %v %v", err, r)
	}
	return st
}

// TestVersionsVisibilityChain drives a write-write conflict pair
// (grant then revoke of the same policy) through the version chains by
// hand: the revoke at position 1 must observe the grant committed at
// position 0, and both receipts must equal serial's.
func TestVersionsVisibilityChain(t *testing.T) {
	kp := key(t, "ver-owner")
	base := versionedBase(t, kp, "vd0")
	grantee := cryptoutil.NamedAddress("ver-grantee")
	txGrant := tx(t, kp, ledger.TxData, "grant",
		GrantArgs{Resource: "data:vd0", Grantee: grantee, Actions: []Action{ActionRead}})
	txRevoke := tx(t, kp, ledger.TxData, "revoke",
		RevokeArgs{Resource: "data:vd0", Grantee: grantee})

	serial := base.Clone()
	wantGrant, err := serial.Apply(txGrant, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRevoke, err := serial.Apply(txRevoke, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	ver := NewVersions(base)
	acc0, acc1 := AccessSetOf(txGrant), AccessSetOf(txRevoke)
	snap0 := ver.SnapshotAt(0, acc0)
	rec0, err := snap0.Apply(txGrant, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ver.Commit(0, snap0, acc0)

	snap1 := ver.SnapshotAt(1, acc1)
	rec1, err := snap1.Apply(txRevoke, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec0, wantGrant) || !reflect.DeepEqual(rec1, wantRevoke) {
		t.Fatalf("versioned receipts diverged from serial:\n got %+v / %+v\nwant %+v / %+v",
			rec0, rec1, wantGrant, wantRevoke)
	}
	// The revoke must genuinely have depended on the version read: the
	// same revoke at position 0 sees no version, only the block-start
	// state, and finds no grant.
	stale, err := ver.SnapshotAt(0, acc1).Apply(txRevoke, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(stale, wantRevoke) {
		t.Fatal("test vacuous: revoke does not depend on the grant's version")
	}
	// Nothing leaked into the base state: only the chains hold writes.
	if got, want := base.Root(), versionedBase(t, key(t, "ver-owner"), "vd0").Root(); got != want {
		t.Fatal("versioned execution mutated the base state")
	}
}

// TestVersionsRegistryOverlay: a whole-registry read (the footprint of
// VM invokes) at position n must see datasets registered earlier in
// the block overlaid on the base registry, while position 0 sees only
// the base.
func TestVersionsRegistryOverlay(t *testing.T) {
	kp := key(t, "ver-reg-owner")
	base := versionedBase(t, kp, "vold")
	txReg := tx(t, kp, ledger.TxData, "register_dataset",
		RegisterDatasetArgs{ID: "vnew", Digest: cryptoutil.Sum([]byte("vnew")), SiteID: "s2"})

	ver := NewVersions(base)
	acc0 := AccessSetOf(txReg)
	snap0 := ver.SnapshotAt(0, acc0)
	if r, err := snap0.Apply(txReg, 2, 2); err != nil || !r.OK() {
		t.Fatalf("register: %v %v", err, r)
	}
	ver.Commit(0, snap0, acc0)

	regRead := AccessSet{Reads: []StateKey{KeyRegistry}}
	at1 := ver.SnapshotAt(1, regRead)
	if at1.datasets["vnew"] == nil {
		t.Fatal("registry read at position 1 missed the dataset registered at position 0")
	}
	if at1.datasets["vold"] == nil {
		t.Fatal("registry overlay dropped a base dataset")
	}
	at0 := ver.SnapshotAt(0, regRead)
	if at0.datasets["vnew"] != nil {
		t.Fatal("registry read at position 0 saw a later write")
	}
}

// TestVersionsSeqChain: the request-sequence counter must flow through
// the chains — position 1's snapshot starts from the value position 0
// committed, not from the base.
func TestVersionsSeqChain(t *testing.T) {
	kp := key(t, "ver-seq-owner")
	base := versionedBase(t, kp, "vsq")
	mkReq := func() *ledger.Transaction {
		return tx(t, kp, ledger.TxData, "request_access",
			RequestAccessArgs{Resource: "data:vsq", Action: ActionRead})
	}
	req0, req1 := mkReq(), mkReq()

	serial := base.Clone()
	want0, _ := serial.Apply(req0, 2, 2)
	want1, _ := serial.Apply(req1, 2, 2)

	ver := NewVersions(base)
	acc0, acc1 := AccessSetOf(req0), AccessSetOf(req1)
	snap0 := ver.SnapshotAt(0, acc0)
	rec0, err := snap0.Apply(req0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ver.Commit(0, snap0, acc0)
	snap1 := ver.SnapshotAt(1, acc1)
	if snap1.requestSeq != snap0.requestSeq {
		t.Fatalf("position 1 snapshot seq = %d, want %d (position 0's committed value)",
			snap1.requestSeq, snap0.requestSeq)
	}
	rec1, err := snap1.Apply(req1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec0, want0) || !reflect.DeepEqual(rec1, want1) {
		t.Fatal("request receipts diverged from serial through the seq chain")
	}
	if reflect.DeepEqual(want0, want1) {
		t.Fatal("test vacuous: consecutive requests produced identical receipts")
	}
}

// TestVersionsFallbackToBase: keys with no committed version read the
// base state, and write snapshots deep-copy so mutating them leaves
// both the base and earlier versions untouched.
func TestVersionsFallbackToBase(t *testing.T) {
	kp := key(t, "ver-fb-owner")
	base := versionedBase(t, kp, "vfb")
	ver := NewVersions(base)
	acc := AccessSet{Writes: []StateKey{KeyDataset("vfb")}}
	snap := ver.SnapshotAt(5, acc)
	if snap.datasets["vfb"] == nil {
		t.Fatal("write key with no versions did not fall back to base")
	}
	if snap.datasets["vfb"] == base.datasets["vfb"] {
		t.Fatal("write key shares the base object instead of a deep copy")
	}
	snap.datasets["vfb"].SiteID = "mutated"
	if base.datasets["vfb"].SiteID == "mutated" {
		t.Fatal("mutating a write snapshot leaked into the base")
	}
}

// TestSnapshotAtCarriesUnkeyedFields: SnapshotAt is the only snapshot
// builder, so the one State field that no StateKey addresses — the
// request sequence — must reach the snapshot exactly as Clone carries
// it.
func TestSnapshotAtCarriesUnkeyedFields(t *testing.T) {
	kp := key(t, "ver-unkeyed-owner")
	base := versionedBase(t, kp, "vuk")
	req := tx(t, kp, ledger.TxData, "request_access",
		RequestAccessArgs{Resource: "data:vuk", Action: ActionRead})
	if _, err := base.Apply(req, 2, 2); err != nil {
		t.Fatal(err)
	}

	clone := base.Clone()
	snap := NewVersions(base).SnapshotAt(0, AccessSet{})
	if clone.requestSeq == 0 {
		t.Fatal("test vacuous: the clone carries no request sequence")
	}
	if snap.requestSeq != clone.requestSeq {
		t.Errorf("requestSeq = %d, Clone carries %d", snap.requestSeq, clone.requestSeq)
	}
}

// specPair runs grant then revoke of one policy on snapshots over base,
// the way the proposer's preview does, and returns the writes in order.
func specPair(t *testing.T, base *State, kp *cryptoutil.KeyPair, id string) []SpecWrite {
	t.Helper()
	grantee := cryptoutil.NamedAddress("spec-grantee")
	txs := []*ledger.Transaction{
		tx(t, kp, ledger.TxData, "grant", GrantArgs{Resource: "data:" + id, Grantee: grantee, Actions: []Action{ActionRead}}),
		tx(t, kp, ledger.TxData, "revoke", RevokeArgs{Resource: "data:" + id, Grantee: grantee}),
		tx(t, kp, ledger.TxData, "register_dataset", RegisterDatasetArgs{ID: id + "/new", Digest: cryptoutil.Sum([]byte("n")), SiteID: "s"}),
	}
	ver := NewVersions(base)
	writes := make([]SpecWrite, len(txs))
	for j, x := range txs {
		acc := AccessSetOf(x)
		snap := ver.SnapshotAt(j, acc)
		if _, err := snap.Apply(x, 2, 2); err != nil {
			t.Fatal(err)
		}
		ver.Commit(j, snap, acc)
		writes[j] = SpecWrite{Snap: snap, Acc: acc}
	}
	return writes
}

// TestPreviewRootThenAdopt: the previewed root is the root after the
// merge, read before it; the base is unchanged until AdoptSpeculative,
// which installs the previewed tree (nothing left to re-hash) and leaves
// a state whose tree equals a rebuild.
func TestPreviewRootThenAdopt(t *testing.T) {
	kp := key(t, "spec-owner")
	base := versionedBase(t, kp, "sp0")
	before := base.Root()
	writes := specPair(t, base, kp, "sp0")

	serial := base.Clone()
	serial.AdoptSpeculative(writes, nil)
	p := base.PreviewRoot(writes)
	if base.Root() != before || freshRoot(base) != before {
		t.Fatal("PreviewRoot changed the base state")
	}
	if p.Root() != serial.Root() {
		t.Fatalf("previewed root %s, merged root %s", p.Root().Short(), serial.Root().Short())
	}
	base.AdoptSpeculative(writes, p)
	if len(base.dirty) != 0 || rootDigest(base.tree.nodes[1]) != p.Root() {
		t.Fatalf("adopted state still has %d marks / a tree without the patch", len(base.dirty))
	}
	if base.Root() != serial.Root() || freshRoot(base) != serial.Root() {
		t.Fatal("adopted state diverged from the merged one")
	}
}

// TestAdoptSpeculativeKeepsItsOwnTreeWhenMarkedSince: a preview made
// before the state was written again must not install its patch — also
// when the state was rooted in between, which clears the marks — the
// writes are marked and re-hashed instead, so the root stays pure.
func TestAdoptSpeculativeKeepsItsOwnTreeWhenMarkedSince(t *testing.T) {
	for _, rerooted := range []bool{false, true} {
		kp := key(t, "spec-owner-2")
		base := versionedBase(t, kp, "sq0")
		base.Root()
		writes := specPair(t, base, kp, "sq0")
		p := base.PreviewRoot(writes)

		other := tx(t, kp, ledger.TxAnchor, "anchor", AnchorArgs{Label: "between", Digest: cryptoutil.Sum([]byte("b"))})
		if _, err := base.Apply(other, 2, 2); err != nil {
			t.Fatal(err)
		}
		if rerooted {
			base.Root()
		}
		base.AdoptSpeculative(writes, p)
		if len(base.dirty) == 0 {
			t.Fatalf("rerooted=%v: a stale preview's patch was installed", rerooted)
		}
		if base.Root() != freshRoot(base) {
			t.Fatalf("rerooted=%v: root impure after adopting past a stale preview", rerooted)
		}
		if base.Root() == p.Root() {
			t.Fatalf("rerooted=%v: the anchor written in between is missing from the root", rerooted)
		}
	}
}

// TestDroppedAdoptedWriteFailsTheRebuildCheck is the mutation the
// adopted tree invites: a write that reached the previewed tree but not
// the tables. Replicas would agree on the header root; root == rebuild
// is what sees it.
func TestDroppedAdoptedWriteFailsTheRebuildCheck(t *testing.T) {
	kp := key(t, "spec-owner-3")
	base := versionedBase(t, kp, "sr0")
	writes := specPair(t, base, kp, "sr0")
	p := base.PreviewRoot(writes)
	dropped := 0
	defer SetDropAdoptedWrite(func(k StateKey) bool {
		if k == KeyDataset("sr0/new") {
			dropped++
			return true
		}
		return false
	})()
	base.AdoptSpeculative(writes, p)
	if dropped != 1 {
		t.Fatalf("seam dropped %d keys, want 1", dropped)
	}
	if base.Root() != p.Root() {
		t.Fatal("adopted tree should still carry the dropped write's leaf")
	}
	if base.Root() == freshRoot(base) {
		t.Fatal("a dropped materialised write passed the rebuild check")
	}
}
