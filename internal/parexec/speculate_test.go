package parexec_test

import (
	"reflect"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
)

// TestSpeculateThenCommitEqualsExecuteBlock pins the one way a node
// applies a block, in both modes, against the serial reference loop
// over a block with a three-deep conflict chain: Speculate leaves the
// state exactly as it was (root and export), names the root the
// reference ends on before anything is merged, and Commit lands on that
// state, those receipts and a tree that equals a rebuild — with the
// block counted once, at Commit.
func TestSpeculateThenCommitEqualsExecuteBlock(t *testing.T) {
	for _, mode := range allModes {
		base, batch := chainBatch(t)
		base.Root() // rooted, as a live node's state always is
		serial := base.Clone()
		want := applyAll(t, serial, batch)

		st := base.Clone()
		eng := newEngine(mode, 4)
		spec, err := eng.Speculate(st, batch, 2, 2)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := eng.Stats(); got != (parexec.Stats{}) {
			t.Fatalf("%v: Speculate alone counted %+v", mode, got)
		}
		if st.Root() != base.Root() || !reflect.DeepEqual(st.Export(), base.Export()) {
			t.Fatalf("%v: Speculate touched the state", mode)
		}
		if spec.Root() != serial.Root() {
			t.Fatalf("%v: previewed root %s, serial %s", mode, spec.Root().Short(), serial.Root().Short())
		}
		got := eng.Commit(spec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: receipts diverged", mode)
		}
		if st.Root() != serial.Root() || contract.ImportState(st.Export()).Root() != serial.Root() {
			t.Fatalf("%v: committed state diverged from serial", mode)
		}
		stats := eng.Stats()
		checkStats(t, mode, stats)
		if stats.Blocks != 1 || stats.Txs != int64(len(batch)) {
			t.Fatalf("%v: block not counted exactly once: %+v", mode, stats)
		}
		if wantWaves := int64(3); mode == parexec.ModeMVCCWave && stats.Waves != wantWaves {
			t.Fatalf("waves = %d, want %d", stats.Waves, wantWaves)
		}

		// The adopted tree keeps rooting incrementally.
		more := mustTx(t, mustKey(t), 9, ledger.TxAnchor, "anchor",
			contract.AnchorArgs{Label: "after", Digest: cryptoutil.Sum([]byte("after"))}, cryptoutil.Address{})
		for _, s := range []*contract.State{st, serial} {
			if _, err := s.Apply(more, 3, 3); err != nil {
				t.Fatal(err)
			}
		}
		if st.Root() != serial.Root() {
			t.Fatalf("%v: root diverged one block after the adopted tree", mode)
		}
	}
}

// TestSpeculateUndecodableArgsAndNilTx: a block holding a payload whose
// arguments do not decode speculates in either mode, wherever the
// payload sits, and Speculate + Commit ends where the serial reference
// ends. Only a nil transaction — a programming error — is refused, with
// nothing counted.
func TestSpeculateUndecodableArgsAndNilTx(t *testing.T) {
	base, batch := chainBatch(t)
	base.Root()
	bad := &ledger.Transaction{Type: ledger.TxData, Method: "grant", Args: []byte("{not json"), Nonce: 7}
	for _, mode := range allModes {
		for _, block := range [][]*ledger.Transaction{
			append([]*ledger.Transaction{bad}, batch...),
			append(append([]*ledger.Transaction{}, batch...), bad),
		} {
			direct := base.Clone()
			want := applyAll(t, direct, block)
			st := base.Clone()
			eng := newEngine(mode, 2)
			spec, err := eng.Speculate(st, block, 2, 2)
			if err != nil {
				t.Fatalf("%v: a block with an undecodable payload refused: %v", mode, err)
			}
			if st.Root() != base.Root() {
				t.Fatalf("%v: Speculate touched the state", mode)
			}
			if spec.Root() != direct.Root() {
				t.Fatalf("%v: previewed root %s, serial %s", mode, spec.Root().Short(), direct.Root().Short())
			}
			if got := eng.Commit(spec); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: receipts diverged from serial", mode)
			}
			if st.Root() != direct.Root() || contract.ImportState(st.Export()).Root() != direct.Root() {
				t.Fatalf("%v: committed state diverged from serial", mode)
			}
			checkStats(t, mode, eng.Stats())

			eng = newEngine(mode, 2)
			if _, err := eng.Speculate(st, append(block[:1:1], nil), 3, 3); err == nil {
				t.Fatalf("%v: a nil transaction speculated", mode)
			}
			if got := eng.Stats(); got != (parexec.Stats{}) {
				t.Fatalf("%v: refused speculation counted %+v", mode, got)
			}
		}
	}
}

// TestSpeculateEmptyBlock: an empty block previews to the current root
// and commits to it.
func TestSpeculateEmptyBlock(t *testing.T) {
	base, _ := chainBatch(t)
	eng := newEngine(parexec.ModeSerial, 1)
	spec, err := eng.Speculate(base, nil, 2, 2)
	if err != nil || spec.Root() != base.Root() {
		t.Fatalf("empty block: err=%v root=%s want %s", err, spec.Root().Short(), base.Root().Short())
	}
	if recs := eng.Commit(spec); len(recs) != 0 || eng.Stats().Blocks != 1 {
		t.Fatalf("empty commit: %d receipts, stats %+v", len(recs), eng.Stats())
	}
}

func mustKey(t *testing.T) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair("px-mvcc-owner")
	if err != nil {
		t.Fatal(err)
	}
	return kp
}
