package parexec_test

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/contract/fixtures"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/parexec"
)

// fuzzTypes maps the fuzzer's type byte onto every transaction family
// plus one type Apply rejects.
var fuzzTypes = []ledger.TxType{
	ledger.TxData, ledger.TxAnalytics, ledger.TxTrial, ledger.TxAnchor,
	ledger.TxAudit, ledger.TxCross, ledger.TxDeploy, ledger.TxInvoke, "bogus",
}

// FuzzAccessSetDifferential guards the soundness of the declared access
// sets against arbitrary payloads: contract.Prepare must never panic,
// and whatever footprint it derives, a block holding the fuzzed
// transaction through ModeMVCCWave must leave the same root and
// receipts as ModeSerial. Footprint and handler come from one decode
// (contract/methods.go), so the bug class left is a table entry whose
// footprint function names fewer keys than its handler touches — the
// transaction then executes against a snapshot missing them.
//
// The declared write set also decides which leaves State.Root re-hashes,
// on the serial path as much as on the wave path. The pre-state is
// rooted, so both executions run on clones that carry its tree, and
// each must root exactly like a state rebuilt from its own export: a
// write the set misses shows up there. A bounded transaction follows
// the fuzzed one. The committed corpus under testdata/fuzz holds the
// payloads that once broke the first property; it runs as a plain test
// under `go test`.
//
// Seeds are the contract fixtures — every method's succeeding, failing
// and undecodable transaction — over the fixtures' own states (a member
// shard with relayed roots and pending transfers, the coordination
// chain with and without a pending epoch, an empty chain), sent by the
// fixtures' own addresses, so the mutator starts past every method's
// authorization and existence checks.
func FuzzAccessSetDifferential(f *testing.F) {
	set := fixtures.New(f)
	bases := []*contract.State{set.Member, set.Coord, set.CoordPending, set.Empty}
	var (
		senders []cryptoutil.Address
		counter cryptoutil.Address // the deployed contract invoke fixtures call
	)
	for _, b := range bases {
		b.Root() // from here on every clone of b roots incrementally
	}
	for _, c := range set.Cases {
		if !slices.Contains(senders, c.Tx.From) {
			senders = append(senders, c.Tx.From)
		}
		if c.Name == "invoke/bump/ok" {
			counter = c.Tx.Contract
		}
		f.Add(uint8(slices.Index(bases, c.On)), uint8(slices.Index(senders, c.Tx.From)),
			uint8(slices.Index(fuzzTypes, c.Tx.Type)), c.Tx.Method, c.Tx.Args)
	}
	if counter == (cryptoutil.Address{}) {
		f.Fatal("fixtures have no invoke/bump/ok case")
	}
	// The bounded follower: the datasets' owner (the first sender the
	// fixtures use) updates one.
	update, err := json.Marshal(contract.RegisterDatasetArgs{ID: "ds", Digest: cryptoutil.Sum([]byte("y")), Records: 9})
	if err != nil {
		f.Fatal(err)
	}
	follower := &ledger.Transaction{
		Type: ledger.TxData, From: senders[0], Nonce: 201, Method: "update_dataset", Args: update, Timestamp: 8,
	}

	f.Fuzz(func(t *testing.T, chain, sender, typ uint8, method string, args []byte) {
		base := bases[int(chain)%len(bases)]
		tx := &ledger.Transaction{
			Type: fuzzTypes[int(typ)%len(fuzzTypes)], From: senders[int(sender)%len(senders)], Nonce: 200,
			Contract: counter, Method: method, Args: args, Timestamp: 7,
		}
		acc := contract.AccessSetOf(tx) // must not panic
		block := []*ledger.Transaction{tx, follower}

		serial := base.Clone()
		want, _, err := parexec.NewEngine(parexec.Config{}).ExecuteBlock(serial, block, fixtures.Height, fixtures.Now)
		if err != nil {
			t.Fatal(err)
		}
		wave := base.Clone()
		got, stats, err := parexec.NewEngine(parexec.Config{Workers: 2, Mode: parexec.ModeMVCCWave}).ExecuteBlock(wave, block, fixtures.Height, fixtures.Now)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Clean != stats.Txs {
			t.Fatalf("%s/%s args=%q left the wave path: %+v", tx.Type, method, args, stats)
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

		// A node's path, the two halves apart: the block speculated on
		// snapshots, its root read off the previewed tree, then
		// materialised. It must accept every block, leave the state
		// alone until Commit, and end where the serial reference ends —
		// adopted tree included.
		for _, cfg := range []parexec.Config{{}, {Workers: 2, Mode: parexec.ModeMVCCWave}} {
			eng := parexec.NewEngine(cfg)
			st := base.Clone()
			spec, err := eng.Speculate(st, block, fixtures.Height, fixtures.Now)
			if err != nil {
				t.Fatalf("%s: Speculate refused %s/%s args=%q: %v", cfg.Mode, tx.Type, method, args, err)
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
