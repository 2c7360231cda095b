package contract

import (
	"strings"
	"testing"

	"medchain/internal/ledger"
)

// Clone underpins proposal preview execution: the proposer runs the
// candidate block on a clone, so a failed consensus round must leave
// the source untouched and vice versa.
func TestCloneIsDeepAndIndependent(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "researcher")
	registerDataset(t, s, owner, "d", "site-1")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: researcher.Address(),
		Actions: []Action{ActionRead}, Purpose: "research", MaxUses: 2,
	})))
	dev := key(t, "dev")
	mustOK(t, apply(t, s, deployTx(t, dev, 0, "counter", counterSrc)))
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, s, itx))

	c := s.Clone()
	srcRoot, cloneRoot := s.Root(), c.Root()
	if srcRoot != cloneRoot {
		t.Fatalf("clone root %x differs from source %x", cloneRoot, srcRoot)
	}

	// Mutating the clone must not leak into the source: consume a grant
	// use, add a dataset, and bump contract storage on the clone only.
	access := tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionRead, Purpose: "research",
	})
	mustOK(t, apply(t, c, access))
	registerDataset(t, c, owner, "clone-only", "site-2")
	itx2 := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 2, Contract: addr, Timestamp: 1}
	if err := itx2.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, c, itx2))

	if freshRoot(s) != srcRoot {
		t.Fatal("mutating the clone changed the source root")
	}
	if _, ok := s.Dataset("clone-only"); ok {
		t.Fatal("dataset registered on clone visible in source")
	}
	pol, _ := s.PolicyOf("data:d")
	if pol.Grants[0].Uses != 0 {
		t.Fatalf("grant use consumed on clone leaked to source: %d", pol.Grants[0].Uses)
	}

	// And the other direction: source mutations stay out of the clone.
	beforeSrcMutation := c.Root()
	registerDataset(t, s, owner, "source-only", "site-3")
	if freshRoot(c) != beforeSrcMutation {
		t.Fatal("mutating the source changed the clone root")
	}
}

// The clone's registry.* host functions must read the clone's own
// tables, not the source's — otherwise preview execution of a block
// that registers a dataset and then invokes a contract listing
// datasets would compute a root no follower can reproduce.
func TestCloneRebindsRegistryHostFuncs(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	registerDataset(t, s, owner, "shared", "site-1")

	c := s.Clone()
	registerDataset(t, c, owner, "clone-only", "site-2")

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
	mustOK(t, apply(t, c, deployTx(t, dev, 0, "lister", listSrc)))
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, c, itx))
	v, ok := c.StorageValue(addr, []byte("ids"))
	if !ok {
		t.Fatal("host result not stored")
	}
	if !strings.Contains(string(v), "clone-only") {
		t.Fatalf("clone host funcs read stale registry: %s", v)
	}
}
