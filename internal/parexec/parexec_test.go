package parexec_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/experiments"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
)

func mustTx(t testing.TB, kp *cryptoutil.KeyPair, nonce uint64, typ ledger.TxType, method string, args any, to cryptoutil.Address) *ledger.Transaction {
	t.Helper()
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	tx := &ledger.Transaction{
		Type: typ, From: kp.Address(), Nonce: nonce, Contract: to,
		Method: method, Args: raw, Timestamp: int64(nonce) + 1,
	}
	return tx
}

// mixedBatch exercises every transaction family, including the
// request-sequence counter (request_access/request_run always conflict
// with each other), trials, anchors, duplicate registrations that must
// fail identically, and malformed payloads.
func mixedBatch(t testing.TB, kp *cryptoutil.KeyPair) (setup, batch []*ledger.Transaction) {
	t.Helper()
	nonce := uint64(0)
	next := func() uint64 { nonce++; return nonce - 1 }
	digest := cryptoutil.Sum([]byte("x"))
	setup = append(setup,
		mustTx(t, kp, next(), ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{ID: "d0", Digest: digest, SiteID: "s0"}, cryptoutil.Address{}),
		mustTx(t, kp, next(), ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{ID: "d1", Digest: digest, SiteID: "s1"}, cryptoutil.Address{}),
		mustTx(t, kp, next(), ledger.TxAnalytics, "register_tool", contract.RegisterToolArgs{ID: "t0", Digest: digest}, cryptoutil.Address{}),
	)
	grantee := cryptoutil.NamedAddress("px-grantee")
	batch = append(batch,
		// Disjoint writes: parallel-friendly.
		mustTx(t, kp, next(), ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{ID: "d2", Digest: digest, SiteID: "s2"}, cryptoutil.Address{}),
		mustTx(t, kp, next(), ledger.TxAnchor, "anchor", contract.AnchorArgs{Label: "a0", Digest: digest}, cryptoutil.Address{}),
		mustTx(t, kp, next(), ledger.TxTrial, "register_trial", contract.RegisterTrialArgs{ID: "tr0", ProtocolDigest: digest, PrimaryOutcomes: []string{"os"}}, cryptoutil.Address{}),
		// Same-policy pair: write-write conflict, order matters.
		mustTx(t, kp, next(), ledger.TxData, "grant", contract.GrantArgs{Resource: "data:d0", Grantee: grantee, Actions: []contract.Action{contract.ActionRead}}, cryptoutil.Address{}),
		mustTx(t, kp, next(), ledger.TxData, "revoke", contract.RevokeArgs{Resource: "data:d0", Grantee: grantee}, cryptoutil.Address{}),
		// Sequence-counter contenders: every one conflicts with the others.
		mustTx(t, kp, next(), ledger.TxData, "request_access", contract.RequestAccessArgs{Resource: "data:d1", Action: contract.ActionRead}, cryptoutil.Address{}),
		mustTx(t, kp, next(), ledger.TxAnalytics, "request_run", contract.RequestRunArgs{Tool: "t0", Dataset: "d1"}, cryptoutil.Address{}),
		// Trial mutations on one trial: conflicting appends, plus a
		// registered-this-block dependency (tr0 created above).
		mustTx(t, kp, next(), ledger.TxTrial, "enroll", contract.EnrollArgs{Trial: "tr0", Patient: "p1", Site: "s0"}, cryptoutil.Address{}),
		mustTx(t, kp, next(), ledger.TxTrial, "enroll", contract.EnrollArgs{Trial: "tr0", Patient: "p2", Site: "s1"}, cryptoutil.Address{}),
		// Duplicate registration must fail with the same receipt either way.
		mustTx(t, kp, next(), ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{ID: "d2", Digest: digest, SiteID: "s2"}, cryptoutil.Address{}),
		// Enroll args with an extraneous non-string field: decodes under
		// EnrollArgs (what Apply uses) though stricter shapes would reject
		// it. The derived footprint must still cover tr0 so the enrollment
		// lands exactly as in serial execution.
		&ledger.Transaction{Type: ledger.TxTrial, From: kp.Address(), Nonce: next(), Method: "enroll", Args: []byte(`{"trial":"tr0","patient":"p3","site":"s2","id":42}`), Timestamp: 98},
		// Malformed args and an unknown method: deterministic error receipts.
		&ledger.Transaction{Type: ledger.TxData, From: kp.Address(), Nonce: next(), Method: "grant", Args: []byte("{not json"), Timestamp: 99},
		// Args that fail the per-method decode: an ErrBadArgs receipt and
		// an empty footprint.
		&ledger.Transaction{Type: ledger.TxTrial, From: kp.Address(), Nonce: next(), Method: "enroll", Args: []byte(`{"trial":7}`), Timestamp: 100},
		mustTx(t, kp, next(), ledger.TxTrial, "no_such_method", struct{}{}, cryptoutil.Address{}),
		// Invoke of a contract that does not exist: ErrNotFound receipt.
		mustTx(t, kp, next(), ledger.TxInvoke, "run", contract.InvokeArgs{}, cryptoutil.NamedAddress("px-nowhere")),
	)
	return setup, batch
}

func applyAll(t *testing.T, st *contract.State, txs []*ledger.Transaction) []*contract.Receipt {
	t.Helper()
	receipts, err := experiments.ApplySerial(st, txs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return receipts
}

// allModes spans the engine's execution strategies; the correctness
// battery runs every case under each, against the independent
// experiments.ApplySerial reference loop.
var allModes = []parexec.Mode{parexec.ModeSerial, parexec.ModeMVCCWave}

// newEngine builds an engine for one mode × worker-count cell.
func newEngine(mode parexec.Mode, workers int) *parexec.Engine {
	return parexec.NewEngine(parexec.Config{Workers: workers, Mode: mode})
}

// checkStats asserts the accounting invariant every executed block
// must satisfy — Clean + Serial == Txs (with Txs the applied prefix on
// ModeSerial's hard-error path) — plus the serial mode's zeros.
func checkStats(t *testing.T, mode parexec.Mode, stats parexec.Stats) {
	t.Helper()
	if stats.Clean+stats.Serial != stats.Txs {
		t.Fatalf("%v: invariant Clean+Serial==Txs violated: %+v", mode, stats)
	}
	if mode == parexec.ModeSerial && (stats.Clean != 0 || stats.Waves != 0) {
		t.Fatalf("serial: Clean and Waves must be 0: %+v", stats)
	}
	if stats.Waves > stats.Txs {
		t.Fatalf("%v: more waves than transactions: %+v", mode, stats)
	}
}

// TestMixedBatchMatchesSerial covers every transaction family, and the
// cross-shard relay's root-then-dependent blocks, against the serial
// reference at several worker counts.
func TestMixedBatchMatchesSerial(t *testing.T) {
	kp, err := cryptoutil.DeriveKeyPair("px-owner")
	if err != nil {
		t.Fatal(err)
	}
	setup, batch := mixedBatch(t, kp)
	base := contract.NewState()
	for _, tx := range setup {
		if r, err := base.Apply(tx, 1, 1); err != nil || !r.OK() {
			t.Fatalf("setup: %v %v", err, r)
		}
	}
	matchesSerial(t, "mixed", base, batch)
	relayBase, relay := relayBlocks(t)
	for i, b := range relay {
		matchesSerial(t, fmt.Sprintf("relay-%d", i), relayBase, b)
	}
}

// matchesSerial runs batch on clones of base under every mode and
// worker count and requires the serial reference's root and receipts,
// with every transaction on the wave path and at least two waves.
func matchesSerial(t *testing.T, input string, base *contract.State, batch []*ledger.Transaction) {
	t.Helper()
	serial := base.Clone()
	wantReceipts := applyAll(t, serial, batch)
	wantRoot := serial.Root()

	for _, mode := range allModes {
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s: %v workers=%d", input, mode, workers)
			st := base.Clone()
			got, stats, err := newEngine(mode, workers).ExecuteBlock(st, batch, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if root := st.Root(); root != wantRoot {
				t.Fatalf("%s: root %s != serial %s", name, root.Short(), wantRoot.Short())
			}
			if !reflect.DeepEqual(got, wantReceipts) {
				t.Fatalf("%s: receipts diverged from serial", name)
			}
			checkStats(t, mode, stats)
			if stats.Txs != int64(len(batch)) {
				t.Fatalf("%s: stats do not cover the batch: %+v", name, stats)
			}
			if mode == parexec.ModeSerial {
				continue
			}
			if stats.Clean != stats.Txs {
				t.Fatalf("%s: undecodable payloads and an unlisted method must run in waves like the rest: %+v", name, stats)
			}
			if stats.Waves < 2 {
				t.Fatalf("%s: batch contains dependent prefix txs, expected >= 2 waves: %+v", name, stats)
			}
		}
	}
}

// TestDeterminismProperty is the property-style gate the satellite task
// asks for: for seeded random batches across conflict rates {0, 0.3,
// 0.5, 1.0} × worker counts {1, 2, 4, 8} × GOMAXPROCS {1, 4} × both
// modes, execution must yield bit-identical state roots, receipts
// (events and errors ride inside them), receipt order, and gas vs the
// serial reference — and the stats invariant must hold in every cell.
func TestDeterminismProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, rate := range []float64{0, 0.3, 0.5, 1.0} {
			for seed := int64(1); seed <= 3; seed++ {
				wl, err := experiments.GenWorkload(experiments.WorkloadConfig{
					Txs: 48, ConflictRate: rate, GrantShare: 0.6, LoopIters: 50, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				base := contract.NewState()
				applyAll(t, base, wl.Setup)
				serial := base.Clone()
				wantReceipts := applyAll(t, serial, wl.Batch)
				wantRoot := serial.Root()
				for _, mode := range allModes {
					for _, workers := range []int{1, 2, 4, 8} {
						name := fmt.Sprintf("procs=%d rate=%.1f seed=%d %v workers=%d", procs, rate, seed, mode, workers)
						st := base.Clone()
						got, stats, err := newEngine(mode, workers).ExecuteBlock(st, wl.Batch, 2, 2)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if root := st.Root(); root != wantRoot {
							t.Fatalf("%s: state root diverged", name)
						}
						if !reflect.DeepEqual(got, wantReceipts) {
							t.Fatalf("%s: receipts diverged", name)
						}
						if gasOf(got) != gasOf(wantReceipts) {
							t.Fatalf("%s: gas diverged", name)
						}
						checkStats(t, mode, stats)
					}
				}
			}
		}
	}
}

// TestNilTxMatchesSerialError checks the hard-error path in every
// mode: a nil transaction aborts ModeSerial exactly like the serial
// loop, leaving the same prefix applied — and the stats cover exactly
// that prefix — while ModeMVCCWave, which runs on snapshots, refuses the
// block with the state untouched and nothing counted.
func TestNilTxMatchesSerialError(t *testing.T) {
	kp, err := cryptoutil.DeriveKeyPair("px-owner-2")
	if err != nil {
		t.Fatal(err)
	}
	digest := cryptoutil.Sum([]byte("y"))
	batch := []*ledger.Transaction{
		mustTx(t, kp, 0, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{ID: "n0", Digest: digest, SiteID: "s"}, cryptoutil.Address{}),
		nil,
		mustTx(t, kp, 1, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{ID: "n1", Digest: digest, SiteID: "s"}, cryptoutil.Address{}),
	}
	serial := contract.NewState()
	var serialReceipts []*contract.Receipt
	var serialErr error
	for _, tx := range batch {
		var r *contract.Receipt
		if r, serialErr = serial.Apply(tx, 2, 2); serialErr != nil {
			break
		}
		serialReceipts = append(serialReceipts, r)
	}
	for _, mode := range allModes {
		par := contract.NewState()
		eng := newEngine(mode, 4)
		parReceipts, stats, parErr := eng.ExecuteBlock(par, batch, 2, 2)
		if serialErr == nil || parErr == nil {
			t.Fatalf("%v: expected hard errors, got serial=%v parallel=%v", mode, serialErr, parErr)
		}
		if mode == parexec.ModeMVCCWave {
			if par.Root() != contract.NewState().Root() || len(parReceipts) != 0 {
				t.Fatalf("%v: a refused block left %d receipts or touched the state", mode, len(parReceipts))
			}
			if stats != (parexec.Stats{}) || eng.Stats() != (parexec.Stats{}) {
				t.Fatalf("%v: a refused block is counted: %+v / %+v", mode, stats, eng.Stats())
			}
			continue
		}
		if serial.Root() != par.Root() {
			t.Fatalf("%v: post-error state diverged from serial", mode)
		}
		// The error return must still hand back the applied prefix's
		// receipts so callers can keep their bookkeeping aligned with
		// the serial path.
		if !reflect.DeepEqual(parReceipts, serialReceipts) {
			t.Fatalf("%v: post-error receipts diverged: got %d, want %d (prefix before the nil tx)", mode, len(parReceipts), len(serialReceipts))
		}
		// Txs is trimmed to the applied prefix so the invariant holds
		// on the error path too.
		checkStats(t, mode, stats)
		if stats.Txs != int64(len(serialReceipts)) {
			t.Fatalf("%v: post-error stats cover %d txs, want the applied prefix %d", mode, stats.Txs, len(serialReceipts))
		}
	}
}
