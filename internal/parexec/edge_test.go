package parexec_test

import (
	"fmt"
	"reflect"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
)

// gasOf sums receipt gas, the quantity the gas-conservation invariant
// tracks.
func gasOf(recs []*contract.Receipt) int64 {
	var g int64
	for _, r := range recs {
		g += r.GasUsed
	}
	return g
}

// TestEmptyBlock: zero transactions must be a no-op in every mode —
// no receipts, an unchanged root, and one block counted.
func TestEmptyBlock(t *testing.T) {
	for _, mode := range allModes {
		st := contract.NewState()
		before := st.Root()
		recs, stats, err := newEngine(mode, 4).ExecuteBlock(st, nil, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("%v: empty block produced %d receipts", mode, len(recs))
		}
		if st.Root() != before {
			t.Fatalf("%v: empty block mutated state", mode)
		}
		checkStats(t, mode, stats)
		if stats.Blocks != 1 || stats.Txs != 0 || stats.Waves != 0 {
			t.Fatalf("%v: stats for empty block: %+v", mode, stats)
		}
	}
}

// TestSingleTxBlock: a one-transaction block has nothing to conflict
// with; it must match serial bit-for-bit in every mode, and mvcc-wave
// commits it clean in exactly one wave.
func TestSingleTxBlock(t *testing.T) {
	kp, err := cryptoutil.DeriveKeyPair("px-edge-single")
	if err != nil {
		t.Fatal(err)
	}
	tx := mustTx(t, kp, 0, ledger.TxData, "register_dataset",
		contract.RegisterDatasetArgs{ID: "e0", Digest: cryptoutil.Sum([]byte("e")), SiteID: "s"}, cryptoutil.Address{})

	serial := contract.NewState()
	want, err := serial.Apply(tx, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range allModes {
		st := contract.NewState()
		recs, stats, err := newEngine(mode, 4).ExecuteBlock(st, []*ledger.Transaction{tx}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Root() != serial.Root() {
			t.Fatalf("%v: single-tx root diverged from serial", mode)
		}
		if len(recs) != 1 || !reflect.DeepEqual(recs[0], want) {
			t.Fatalf("%v: single-tx receipt diverged: %+v vs %+v", mode, recs, want)
		}
		checkStats(t, mode, stats)
		if mode == parexec.ModeMVCCWave && (stats.Clean != 1 || stats.Serial != 0 || stats.Waves != 1) {
			t.Fatalf("%v: single tx should commit clean in one wave: %+v", mode, stats)
		}
	}
}

// TestAllConflictingBlock: every transaction mutates the same policy —
// the worst case for a parallel scheduler. MVCC wave runs every tx
// exactly once against its predecessor's version (n clean, n waves, 0
// serial) and must match serial's receipts, root, and gas exactly.
func TestAllConflictingBlock(t *testing.T) {
	kp, err := cryptoutil.DeriveKeyPair("px-edge-conflict")
	if err != nil {
		t.Fatal(err)
	}
	digest := cryptoutil.Sum([]byte("c"))
	setup := mustTx(t, kp, 0, ledger.TxData, "register_dataset",
		contract.RegisterDatasetArgs{ID: "hot", Digest: digest, SiteID: "s"}, cryptoutil.Address{})

	const n = 12
	batch := make([]*ledger.Transaction, 0, n)
	for i := 0; i < n; i++ {
		grantee := cryptoutil.NamedAddress("px-edge-g" + string(rune('a'+i)))
		batch = append(batch, mustTx(t, kp, uint64(1+i), ledger.TxData, "grant",
			contract.GrantArgs{Resource: "data:hot", Grantee: grantee, Actions: []contract.Action{contract.ActionRead}},
			cryptoutil.Address{}))
	}

	base := contract.NewState()
	if r, err := base.Apply(setup, 1, 1); err != nil || !r.OK() {
		t.Fatalf("setup: %v %v", err, r)
	}
	serial := base.Clone()
	want := applyAll(t, serial, batch)

	st := base.Clone()
	got, stats, err := newEngine(parexec.ModeMVCCWave, 8).ExecuteBlock(st, batch, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Root() != serial.Root() {
		t.Fatal("root diverged under total conflict")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("receipts diverged under total conflict")
	}
	if gasOf(got) != gasOf(want) {
		t.Fatalf("gas diverged: %d vs %d", gasOf(got), gasOf(want))
	}
	checkStats(t, parexec.ModeMVCCWave, stats)
	if stats.Clean != n || stats.Serial != 0 || stats.Waves != n {
		t.Fatalf("want clean=%d serial=0 waves=%d, got %+v", n, n, stats)
	}
}

// TestUnknownMidBlockSerialTail (the name predates the behaviour): an
// undecodable payload at position k used to push itself and everything
// after it onto a serial tail. It declares nothing now, so the whole
// block — the transactions after it included — runs in waves, and still
// matches the serial reference's receipts, root, and gas.
func TestUnknownMidBlockSerialTail(t *testing.T) {
	kp, err := cryptoutil.DeriveKeyPair("px-edge-unknown")
	if err != nil {
		t.Fatal(err)
	}
	digest := cryptoutil.Sum([]byte("u"))
	// Pre-register disjoint datasets so the block itself is pure
	// grants: each grant writes only its own policy key, keeping the
	// block conflict-free (register_dataset itself always conflicts via
	// the shared registry key).
	base := contract.NewState()
	for i, nonce := 0, uint64(0); i < 6; i++ {
		tx := mustTx(t, kp, nonce, ledger.TxData, "register_dataset",
			contract.RegisterDatasetArgs{ID: fmt.Sprintf("u%d", i), Digest: digest, SiteID: "s"}, cryptoutil.Address{})
		nonce++
		if r, err := base.Apply(tx, 1, 1); err != nil || !r.OK() {
			t.Fatalf("setup: %v %v", err, r)
		}
	}
	mk := func(nonce uint64, id string) *ledger.Transaction {
		return mustTx(t, kp, nonce, ledger.TxData, "grant",
			contract.GrantArgs{Resource: "data:" + id, Grantee: cryptoutil.NamedAddress("px-edge-u-" + id),
				Actions: []contract.Action{contract.ActionRead}}, cryptoutil.Address{})
	}
	const k = 3 // where the undecodable transaction sits
	batch := []*ledger.Transaction{
		mk(6, "u0"), mk(7, "u1"), mk(8, "u2"),
		// Position k: args that fail the per-method decode.
		{Type: ledger.TxData, From: kp.Address(), Nonce: 9, Method: "grant", Args: []byte(`{"resource":7}`), Timestamp: 50},
		mk(10, "u4"), mk(11, "u5"),
	}

	serial := base.Clone()
	want := applyAll(t, serial, batch)

	for _, mode := range allModes {
		st := base.Clone()
		got, stats, err := newEngine(mode, 4).ExecuteBlock(st, batch, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.Root() != serial.Root() {
			t.Fatalf("%v: root diverged around the undecodable tx", mode)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: receipts diverged around the undecodable tx", mode)
		}
		if gasOf(got) != gasOf(want) {
			t.Fatalf("%v: gas diverged: %d vs %d", mode, gasOf(got), gasOf(want))
		}
		checkStats(t, mode, stats)
		if mode == parexec.ModeSerial {
			continue
		}
		if got[k].OK() {
			t.Fatalf("%v: undecodable tx succeeded: %+v", mode, got[k])
		}
		// Nothing conflicts and nothing is unbounded: one wave, all clean.
		if stats.Clean != stats.Txs || stats.Serial != 0 || stats.Waves != 1 {
			t.Fatalf("%v: want clean=%d serial=0 waves=1, got %+v", mode, len(batch), stats)
		}
	}
}

// TestMidBlockHardErrorGasMatchesSerial: a nil transaction mid-block
// aborts the block in every mode. Under ModeSerial the applied prefix's
// receipts AND gas must equal the serial prefix, and the recorded stats
// must cover exactly that prefix; under ModeMVCCWave nothing was
// applied, so there is no receipt, no gas and no stat.
func TestMidBlockHardErrorGasMatchesSerial(t *testing.T) {
	kp, err := cryptoutil.DeriveKeyPair("px-edge-err")
	if err != nil {
		t.Fatal(err)
	}
	digest := cryptoutil.Sum([]byte("z"))
	mk := func(nonce uint64, id string) *ledger.Transaction {
		return mustTx(t, kp, nonce, ledger.TxData, "register_dataset",
			contract.RegisterDatasetArgs{ID: id, Digest: digest, SiteID: "s"}, cryptoutil.Address{})
	}
	batch := []*ledger.Transaction{mk(0, "z0"), mk(1, "z1"), nil, mk(2, "z2")}

	serial := contract.NewState()
	var wantRecs []*contract.Receipt
	var wantErr error
	for _, tx := range batch {
		var r *contract.Receipt
		if r, wantErr = serial.Apply(tx, 2, 2); wantErr != nil {
			break
		}
		wantRecs = append(wantRecs, r)
	}

	for _, mode := range allModes {
		st := contract.NewState()
		got, stats, gotErr := newEngine(mode, 4).ExecuteBlock(st, batch, 2, 2)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("%v: expected hard errors, got serial=%v parallel=%v", mode, wantErr, gotErr)
		}
		if mode == parexec.ModeMVCCWave {
			if st.Root() != contract.NewState().Root() || len(got) != 0 || stats != (parexec.Stats{}) {
				t.Fatalf("%v: a refused block left %d receipts, stats %+v, or touched the state", mode, len(got), stats)
			}
			continue
		}
		if st.Root() != serial.Root() {
			t.Fatalf("%v: post-error root diverged", mode)
		}
		if !reflect.DeepEqual(got, wantRecs) {
			t.Fatalf("%v: post-error prefix receipts diverged", mode)
		}
		if gasOf(got) != gasOf(wantRecs) {
			t.Fatalf("%v: post-error gas diverged: %d vs %d", mode, gasOf(got), gasOf(wantRecs))
		}
		checkStats(t, mode, stats)
		if stats.Txs != int64(len(wantRecs)) {
			t.Fatalf("%v: post-error stats cover %d txs, want %d", mode, stats.Txs, len(wantRecs))
		}
	}
}
