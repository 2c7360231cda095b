package contract

import (
	"reflect"
	"sort"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

func keyStrings(keys []StateKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	sort.Strings(out)
	return out
}

func wantSet(t *testing.T, got AccessSet, reads, writes []string) {
	t.Helper()
	if r := keyStrings(got.Reads); !reflect.DeepEqual(r, reads) {
		t.Fatalf("reads = %v, want %v", r, reads)
	}
	if w := keyStrings(got.Writes); !reflect.DeepEqual(w, writes) {
		t.Fatalf("writes = %v, want %v", w, writes)
	}
}

func TestAccessSetOfPerMethod(t *testing.T) {
	owner := key(t, "acc-owner")
	digest := cryptoutil.Sum([]byte("d"))

	t.Run("register_dataset", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{ID: "ds1", Digest: digest, SiteID: "s"}))
		wantSet(t, set, []string{}, []string{"ds/ds1", "pol/data:ds1", "reg"})
	})
	t.Run("grant", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxData, "grant", GrantArgs{Resource: "data:ds1", Grantee: owner.Address(), Actions: []Action{ActionRead}}))
		wantSet(t, set, []string{}, []string{"pol/data:ds1"})
	})
	t.Run("request_access", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxData, "request_access", RequestAccessArgs{Resource: "data:ds1", Action: ActionRead}))
		wantSet(t, set, []string{"ds/ds1"}, []string{"pol/data:ds1", "seq"})
	})
	t.Run("register_tool", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxAnalytics, "register_tool", RegisterToolArgs{ID: "t1", Digest: digest}))
		wantSet(t, set, []string{}, []string{"pol/tool:t1", "reg", "tool/t1"})
	})
	t.Run("analytics_revoke", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxAnalytics, "revoke", RevokeArgs{Resource: "tool:t1", Grantee: owner.Address()}))
		wantSet(t, set, []string{}, []string{"pol/tool:t1"})
	})
	t.Run("request_run", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxAnalytics, "request_run", RequestRunArgs{Tool: "t1", Dataset: "ds1"}))
		wantSet(t, set, []string{"ds/ds1", "tool/t1"}, []string{"pol/data:ds1", "pol/tool:t1", "seq"})
	})
	t.Run("register_trial", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxTrial, "register_trial", RegisterTrialArgs{ID: "tr1", ProtocolDigest: digest, PrimaryOutcomes: []string{"os"}}))
		wantSet(t, set, []string{}, []string{"trial/tr1"})
	})
	t.Run("enroll", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxTrial, "enroll", EnrollArgs{Trial: "tr1", Patient: "p", Site: "s"}))
		wantSet(t, set, []string{}, []string{"trial/tr1"})
	})
	t.Run("anchor", func(t *testing.T) {
		set := AccessSetOf(tx(t, owner, ledger.TxAnchor, "anchor", AnchorArgs{Label: "lab", Digest: digest}))
		wantSet(t, set, []string{}, []string{"anchor/lab"})
	})
	t.Run("deploy", func(t *testing.T) {
		dtx := deployTx(t, owner, 7, "c", counterSrc)
		set := AccessSetOf(dtx)
		addr := DeployedAddress(owner.Address(), 7)
		wantSet(t, set, []string{}, []string{"vm/" + addr.String()})
	})
	t.Run("invoke", func(t *testing.T) {
		addr := DeployedAddress(owner.Address(), 7)
		itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 8, Contract: addr, Timestamp: 1}
		if err := itx.Sign(owner); err != nil {
			t.Fatal(err)
		}
		set := AccessSetOf(itx)
		wantSet(t, set, []string{"reg"}, []string{"vm/" + addr.String()})
	})
	// Arguments that do not decode never reach a handler: the footprint
	// is empty, not unbounded.
	t.Run("malformed_args_unknown", func(t *testing.T) {
		bad := &ledger.Transaction{Type: ledger.TxData, Method: "grant", Args: []byte("{oops"), Timestamp: 1}
		wantSet(t, AccessSetOf(bad), []string{}, []string{})
	})
	// Regression: a payload that a combined/alternative decoding would
	// reject but the per-method struct accepts (extraneous "id": 42 on
	// enroll args) must derive the same footprint Apply acts on — not an
	// empty set that commits a no-op while serial execution enrolls.
	t.Run("enroll_extraneous_field_still_bounded", func(t *testing.T) {
		raw := []byte(`{"trial":"tr1","patient":"p1","site":"s1","id":42}`)
		set := AccessSetOf(&ledger.Transaction{Type: ledger.TxTrial, Method: "enroll", Args: raw, Timestamp: 1})
		wantSet(t, set, []string{}, []string{"trial/tr1"})
	})
	// Any per-method decode failure is the one decode failure the
	// handler will report, so it declares nothing.
	t.Run("per_method_decode_failure_unknown", func(t *testing.T) {
		cases := []struct {
			typ    ledger.TxType
			method string
			args   string
		}{
			{ledger.TxTrial, "enroll", `{"trial":42}`},
			{ledger.TxTrial, "register_trial", `{"id":[]}`},
			{ledger.TxTrial, "adverse_event", `{"trial":"t","severity":"high"}`},
			{ledger.TxData, "grant", `{"resource":"data:d","max_uses":"many"}`},
			{ledger.TxData, "revoke", `{"resource":7}`},
			{ledger.TxAnalytics, "request_run", `{"tool":"t","dataset":{}}`},
			{ledger.TxAnchor, "anchor", `{"label":1}`},
			{ledger.TxAudit, "report_evidence", `{"height":"seven"}`},
			{ledger.TxDeploy, "deploy", `{"name":1}`},
			{ledger.TxCross, "init", `{"shards":"two"}`},
		}
		for _, tc := range cases {
			set := AccessSetOf(&ledger.Transaction{Type: tc.typ, Method: tc.method, Args: []byte(tc.args), Timestamp: 1})
			if len(set.Touched()) != 0 {
				t.Fatalf("%v/%s: want no keys, got %s", tc.typ, tc.method, set)
			}
		}
	})
	// A method behind a guard declares what the guard reads whatever its
	// arguments are: the guard speaks before the decode failure does,
	// and must see the same state on a snapshot as on the live state.
	t.Run("decode_failure_behind_a_guard", func(t *testing.T) {
		for _, method := range []string{"register_shard", "acquire_lease", "begin_epoch", "commit_epoch", "anchor_root", "prepare", "apply", "expire", "resolve"} {
			set := AccessSetOf(&ledger.Transaction{Type: ledger.TxCross, Method: method, Args: []byte(`{"`), Timestamp: 1})
			wantSet(t, set, []string{"xcfg"}, []string{})
		}
		addr := cryptoutil.NamedAddress("acc-contract")
		set := AccessSetOf(&ledger.Transaction{Type: ledger.TxInvoke, Contract: addr, Args: []byte(`{"`), Timestamp: 1})
		wantSet(t, set, []string{"reg"}, []string{"vm/" + addr.String()})
	})
	// One rule for input the table does not list, whatever the type: no
	// footprint (and an ErrUnknownMethod receipt, see TestGoldenReceipts).
	t.Run("unlisted_type_or_method", func(t *testing.T) {
		for _, typ := range []ledger.TxType{ledger.TxData, ledger.TxAnalytics, ledger.TxTrial, ledger.TxAudit, ledger.TxCross, "bogus"} {
			for _, args := range []string{`{}`, `{"`, `{"kind":"double-vote","height":3}`} {
				set := AccessSetOf(&ledger.Transaction{Type: typ, Method: "no_such_method", Args: []byte(args), Timestamp: 1})
				wantSet(t, set, []string{}, []string{})
			}
		}
	})
	// A cross payload of a kind nobody handles, or one that does not
	// decode, adds nothing to its method's own keys.
	t.Run("cross_payload_unknown_or_undecodable", func(t *testing.T) {
		for _, payload := range []CrossPrepareArgs{
			{ID: "x", Kind: "teleport", Payload: []byte(`{}`)},
			{ID: "x", Kind: CrossTransfer, Payload: []byte(`{"dataset":7}`)},
		} {
			wantSet(t, AccessSetOf(tx(t, owner, ledger.TxCross, "prepare", payload)), []string{"xcfg"}, []string{"xout/x"})
			rec := CrossRecord{ID: "x", Kind: payload.Kind, SourceShard: "s0", SourceHeight: 2, Payload: payload.Payload}
			wantSet(t, AccessSetOf(tx(t, owner, ledger.TxCross, "apply", CrossApplyArgs{Record: rec})),
				[]string{"xcfg", "xroot/s0/2"}, []string{"xin/s0/x"})
		}
	})
	t.Run("nil_tx_unknown", func(t *testing.T) {
		wantSet(t, AccessSetOf(nil), []string{}, []string{})
	})
}

// TestSnapshotExecuteMergeMatchesDirectApply runs each transaction kind
// the speculative way — SnapshotAt, Apply on the snapshot,
// AdoptSpeculative back — and checks the root and receipt match a
// direct Apply on a clone. This is the single-transaction soundness
// property the parallel engine composes.
func TestSnapshotExecuteMergeMatchesDirectApply(t *testing.T) {
	owner := key(t, "snap-owner")
	grantee := key(t, "snap-grantee")
	base := NewState()
	registerDataset(t, base, owner, "ds1", "site-1")
	mustOK(t, apply(t, base, tx(t, owner, ledger.TxAnalytics, "register_tool", RegisterToolArgs{
		ID: "t1", Digest: cryptoutil.Sum([]byte("t1")),
	})))
	mustOK(t, apply(t, base, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:ds1", Grantee: owner.Address(), Actions: []Action{ActionRead, ActionExecute},
	})))
	mustOK(t, apply(t, base, deployTx(t, owner, 0, "counter", counterSrc)))
	addr := DeployedAddress(owner.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(owner); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, base, itx)) // storage is non-empty before the snapshot run

	itx2 := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 2, Contract: addr, Timestamp: 1}
	if err := itx2.Sign(owner); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tx   *ledger.Transaction
	}{
		{"register_dataset", tx(t, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{ID: "ds2", Digest: cryptoutil.Sum([]byte("ds2")), SiteID: "s2"})},
		{"grant", tx(t, owner, ledger.TxData, "grant", GrantArgs{Resource: "data:ds1", Grantee: grantee.Address(), Actions: []Action{ActionRead}})},
		{"request_access", tx(t, owner, ledger.TxData, "request_access", RequestAccessArgs{Resource: "data:ds1", Action: ActionRead})},
		{"request_run", tx(t, owner, ledger.TxAnalytics, "request_run", RequestRunArgs{Tool: "t1", Dataset: "ds1"})},
		{"register_trial", tx(t, owner, ledger.TxTrial, "register_trial", RegisterTrialArgs{ID: "tr1", ProtocolDigest: cryptoutil.Sum([]byte("p")), PrimaryOutcomes: []string{"os"}})},
		{"anchor", tx(t, owner, ledger.TxAnchor, "anchor", AnchorArgs{Label: "l1", Digest: cryptoutil.Sum([]byte("a"))})},
		{"invoke", itx2},
		{"failing_duplicate", tx(t, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{ID: "ds1", Digest: cryptoutil.Sum([]byte("ds1")), SiteID: "s"})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct := base.Clone()
			wantReceipt, err := direct.Apply(tc.tx, 2, 2000)
			if err != nil {
				t.Fatal(err)
			}

			spec := base.Clone()
			acc := AccessSetOf(tc.tx)
			snap := NewVersions(spec).SnapshotAt(0, acc)
			gotReceipt, err := snap.Apply(tc.tx, 2, 2000)
			if err != nil {
				t.Fatal(err)
			}
			spec.AdoptSpeculative([]SpecWrite{{Snap: snap, Acc: acc}}, nil)

			if !reflect.DeepEqual(gotReceipt, wantReceipt) {
				t.Fatalf("receipt mismatch:\n got %+v\nwant %+v", gotReceipt, wantReceipt)
			}
			if spec.Root() != direct.Root() {
				t.Fatalf("root mismatch after merge: %s != %s", spec.Root().Short(), direct.Root().Short())
			}
			// The untouched base must be unaffected by the speculation.
			if base.Root() == spec.Root() && wantReceipt.OK() && tc.name != "request_access" {
				// Most OK transactions change the root; a failed duplicate
				// or pure-read would not. Only assert for mutating cases.
				if tc.name != "failing_duplicate" {
					t.Fatal("merge did not change state for a mutating transaction")
				}
			}
		})
	}
}

// TestSnapshotIsolation: mutations inside a speculative snapshot must
// never leak into the base state before AdoptSpeculative.
func TestSnapshotIsolation(t *testing.T) {
	owner := key(t, "iso-owner")
	grantee := key(t, "iso-grantee")
	base := NewState()
	registerDataset(t, base, owner, "ds1", "site-1")
	rootBefore := base.Root()

	gtx := tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:ds1", Grantee: grantee.Address(), Actions: []Action{ActionRead},
	})
	acc := AccessSetOf(gtx)
	snap := NewVersions(base).SnapshotAt(0, acc)
	if r, err := snap.Apply(gtx, 2, 2000); err != nil || !r.OK() {
		t.Fatalf("speculative apply: %v %v", err, r)
	}
	if freshRoot(base) != rootBefore {
		t.Fatal("speculative execution leaked into the base state")
	}
	pol, ok := base.PolicyOf("data:ds1")
	if !ok {
		t.Fatal("policy missing")
	}
	for _, g := range pol.Grants {
		if g.Grantee == grantee.Address() {
			t.Fatal("grant visible in base before merge")
		}
	}
	base.AdoptSpeculative([]SpecWrite{{Snap: snap, Acc: acc}}, nil)
	if base.Root() == rootBefore {
		t.Fatal("merge had no effect")
	}
}
