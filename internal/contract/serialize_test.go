package contract

import (
	"encoding/json"
	"strings"
	"testing"

	"medchain/internal/ledger"
)

// Export/ImportState back the storage engine's state snapshots: the
// round trip through JSON must reproduce the exact state root, or a
// node recovered from a snapshot would diverge from the live quorum.
func TestExportImportRoundTrip(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "researcher")
	registerDataset(t, s, owner, "d1", "site-1")
	registerDataset(t, s, owner, "d2", "site-2")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d1", Grantee: researcher.Address(),
		Actions: []Action{ActionRead}, Purpose: "research", MaxUses: 3,
	})))
	mustOK(t, apply(t, s, tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d1", Action: ActionRead, Purpose: "research",
	})))
	dev := key(t, "dev")
	mustOK(t, apply(t, s, deployTx(t, dev, 0, "counter", counterSrc)))
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, s, itx))

	body, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatalf("marshal export: %v", err)
	}
	var ex StateExport
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatalf("unmarshal export: %v", err)
	}
	got := ImportState(&ex)
	if got.Root() != s.Root() {
		t.Fatalf("imported root %s != source root %s", got.Root(), s.Root())
	}

	// The imported state must be live, not a frozen copy: applying the
	// same next transaction to both must keep the roots in lockstep
	// (request counter, grant uses, and VM storage all advance).
	next := tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d1", Action: ActionRead, Purpose: "research",
	})
	mustOK(t, apply(t, s, next))
	mustOK(t, apply(t, got, next))
	if got.Root() != s.Root() {
		t.Fatalf("post-import apply diverged: %s != %s", got.Root(), s.Root())
	}
}

// Exports must be byte-stable: two exports of the same state encode
// identically (map iteration order must not leak into snapshots, whose
// checksums and diffs rely on determinism).
func TestExportDeterministic(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	for _, id := range []string{"z", "a", "m", "k"} {
		registerDataset(t, s, owner, id, "site-"+id)
	}
	a, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two exports of the same state encode differently")
	}
}

// An imported state answers registry.* HOST calls from its own tables
// with nothing installed on it: a node's recovery replays blocks on
// one, and a VM that reads the registry must see the recovered data.
func TestImportStateAnswersRegistryHostCalls(t *testing.T) {
	owner := key(t, "owner")
	src := NewState()
	registerDataset(t, src, owner, "fresh-data", "site-2")
	fresh := ImportState(src.Export())

	dev := key(t, "dev")
	listSrc := `
		PUSHB "registry.datasets"
		PUSHB ""
		HOST
		PUSHB "ids"
		SWAP
		SSTORE
		HALT
	`
	mustOK(t, apply(t, fresh, deployTx(t, dev, 0, "lister", listSrc)))
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, fresh, itx))
	v, ok := fresh.StorageValue(addr, []byte("ids"))
	if !ok {
		t.Fatal("host result not stored")
	}
	if string(v) == "" || string(v) == "[]" {
		t.Fatal("registry host func returned nothing")
	}
	if !strings.Contains(string(v), "fresh-data") {
		t.Fatalf("imported state lost its registry: %s", v)
	}
}
