package parexec_test

import (
	"encoding/base64"
	"encoding/json"
	"reflect"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
	"medchain/internal/vm"
)

// fuzzTypes maps the fuzzer's type byte onto every transaction family
// plus one type Apply rejects.
var fuzzTypes = []ledger.TxType{
	ledger.TxData, ledger.TxAnalytics, ledger.TxTrial, ledger.TxAnchor,
	ledger.TxAudit, ledger.TxCross, ledger.TxDeploy, ledger.TxInvoke, "bogus",
}

// FuzzAccessSetDifferential guards the soundness of the declared access
// sets against arbitrary payloads: contract.AccessSetOf must never
// panic, and whatever footprint it derives — bounded or Unknown — a
// block holding the fuzzed transaction through ModeMVCCWave must leave
// the same root and receipts as ModeSerial. The bug class is a payload
// that fails the access-set decode but passes Apply's (or the reverse),
// so the transaction executes against a snapshot missing what it
// touches.
//
// The declared write set also decides which leaves State.Root re-hashes,
// on the serial path as much as on the wave path. The pre-state is
// rooted, so both executions run on clones that carry its tree, and
// each must root exactly like a state rebuilt from its own export: a
// write the set misses, or an Unknown footprint that fails to drop the
// tree, shows up there. A bounded transaction follows the fuzzed one so
// marks made after a dropped tree are covered too. The committed corpus
// under testdata/fuzz holds the payloads that once broke the first
// property; it runs as a plain test under `go test`.
func FuzzAccessSetDifferential(f *testing.F) {
	kp, err := cryptoutil.DeriveKeyPair("px-owner")
	if err != nil {
		f.Fatal(err)
	}
	// Seeded state: datasets, a tool, a trial with enrollments, grants,
	// an anchor, and a deployed contract, so well-formed payloads reach
	// past the existence checks.
	setup, batch := mixedBatch(f, kp)
	base := contract.NewState()
	base.SetHost(base.RegistryHostFuncs())
	for _, tx := range append(setup, batch...) {
		if _, err := base.Apply(tx, 1, 1); err != nil {
			f.Fatal(err)
		}
	}
	code := vm.MustAssemble("PUSHI 1\nHALT")
	deploy := mustTx(f, kp, 100, ledger.TxDeploy, "deploy",
		contract.DeployArgs{Name: "fuzz", Code: base64.StdEncoding.EncodeToString(code)}, cryptoutil.Address{})
	if r, err := base.Apply(deploy, 1, 1); err != nil || !r.OK() {
		f.Fatalf("deploy: %v %v", err, r)
	}
	deployed := contract.DeployedAddress(kp.Address(), 100)
	follower := mustTx(f, kp, 201, ledger.TxData, "update_dataset",
		contract.RegisterDatasetArgs{ID: "d0", Digest: cryptoutil.Sum([]byte("y")), Records: 9}, cryptoutil.Address{})
	base.Root() // from here on every clone of base roots incrementally

	// One well-formed payload per family for the mutator to start from.
	for _, seed := range []struct {
		typ    int
		method string
		args   any
	}{
		{0, "grant", contract.GrantArgs{Resource: "data:d0", Grantee: kp.Address(), Actions: []contract.Action{contract.ActionRead}}},
		{0, "request_access", contract.RequestAccessArgs{Resource: "data:d1", Action: contract.ActionRead}},
		{1, "request_run", contract.RequestRunArgs{Tool: "t0", Dataset: "d1"}},
		{2, "enroll", contract.EnrollArgs{Trial: "tr0", Patient: "p9", Site: "s0"}},
		{3, "anchor", contract.AnchorArgs{Label: "fz", Digest: cryptoutil.Sum([]byte("fz"))}},
		{4, "report_evidence", contract.ReportEvidenceArgs{}},
		{5, "prepare", contract.CrossPrepareArgs{ID: "x", Kind: contract.CrossTransfer, DestShard: "shard-1"}},
		{6, "deploy", contract.DeployArgs{Name: "again", Code: base64.StdEncoding.EncodeToString(code)}},
		{7, "run", contract.InvokeArgs{}},
	} {
		raw, err := json.Marshal(seed.args)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(seed.typ), seed.method, raw)
	}

	f.Fuzz(func(t *testing.T, typ uint8, method string, args []byte) {
		tx := &ledger.Transaction{
			Type: fuzzTypes[int(typ)%len(fuzzTypes)], From: kp.Address(), Nonce: 200,
			Contract: deployed, Method: method, Args: args, Timestamp: 7,
		}
		acc := contract.AccessSetOf(tx) // must not panic
		block := []*ledger.Transaction{tx, follower}

		serial := base.Clone()
		want, _, err := parexec.NewEngine(parexec.Config{}).ExecuteBlock(serial, block, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		wave := base.Clone()
		got, _, err := parexec.NewEngine(parexec.Config{Workers: 2, Mode: parexec.ModeMVCCWave}).ExecuteBlock(wave, block, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if wave.Root() != serial.Root() {
			t.Fatalf("root diverged for %s/%s args=%q (access set %s)", tx.Type, method, args, acc)
		}
		for name, st := range map[string]*contract.State{"serial": serial, "mvcc-wave": wave} {
			if st.Root() != contract.ImportState(st.Export()).Root() {
				t.Fatalf("%s: incremental root differs from a rebuild for %s/%s args=%q (access set %s)",
					name, tx.Type, method, args, acc)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("receipt diverged for %s/%s args=%q (access set %s):\n got %+v\nwant %+v",
				tx.Type, method, args, acc, got[0], want[0])
		}

		// The proposer's path: the block speculated on snapshots, its
		// root read off the previewed tree, then materialised. It must
		// refuse exactly the unbounded footprints, leave the state alone
		// until Commit, and end where ExecuteBlock ends — adopted tree
		// included.
		for _, cfg := range []parexec.Config{{}, {Workers: 2, Mode: parexec.ModeMVCCWave}} {
			eng := parexec.NewEngine(cfg)
			st := base.Clone()
			spec, ok := eng.Speculate(st, block, 2, 2)
			if ok == acc.Unknown {
				t.Fatalf("%s: Speculate ok=%v for access set %s", cfg.Mode, ok, acc)
			}
			if !ok {
				continue
			}
			if st.Root() != base.Root() || contract.ImportState(st.Export()).Root() != base.Root() {
				t.Fatalf("%s: Speculate changed the state for %s/%s args=%q", cfg.Mode, tx.Type, method, args)
			}
			if spec.Root() != serial.Root() {
				t.Fatalf("%s: previewed root diverged for %s/%s args=%q (access set %s)", cfg.Mode, tx.Type, method, args, acc)
			}
			recs := eng.Commit(spec)
			if st.Root() != serial.Root() || contract.ImportState(st.Export()).Root() != serial.Root() {
				t.Fatalf("%s: committed speculation diverged for %s/%s args=%q (access set %s)", cfg.Mode, tx.Type, method, args, acc)
			}
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("%s: speculated receipts diverged for %s/%s args=%q", cfg.Mode, tx.Type, method, args)
			}
		}
	})
}
