package contract

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// invalidateRoot drops s's root tree, as if s had never been rooted.
// Only Apply and AdoptSpeculative mark what they write, so a test that
// pokes a table directly calls this before it reads the root. It lives
// in a test file on purpose: nothing shipped can reach it.
func (s *State) invalidateRoot() { s.tree, s.dirty = nil, nil }

// freshRoot is the root of s built from scratch, s's own tree unused and
// untouched: the reference the incremental root must equal, and the way
// to see a write that nothing marked.
func freshRoot(s *State) cryptoutil.Digest { return ImportState(s.Export()).Root() }

// TestUnmarkedWriteFailsTheRebuildCheck gives the oracle its teeth:
// every shipped root goes through the kept tree, so replicas would all
// agree on a root that missed a write. The check the sim runs on every
// block — incremental root == root rebuilt from the export — is what
// catches it.
func TestUnmarkedWriteFailsTheRebuildCheck(t *testing.T) {
	s := ImportState(allKindsExport(t))
	if s.Root() != freshRoot(s) {
		t.Fatal("a freshly built tree disagrees with a second build")
	}
	s.datasets["gold/emr"].Version++ // a write that marks nothing
	if s.Root() == freshRoot(s) {
		t.Fatal("the rebuild check did not notice an unmarked write")
	}
	s.invalidateRoot()
	if s.Root() != freshRoot(s) {
		t.Fatal("a rebuilt tree still disagrees")
	}
}

// bucketsReplaced counts the buckets whose entry slice was reallocated
// between two views of a tree. Buckets are replaced, never edited, so
// this is the number of buckets the last update re-hashed.
func bucketsReplaced(before, after *[rootBuckets][]StateLeaf) int {
	n := 0
	for b := range before {
		if unsafe.SliceData(before[b]) != unsafe.SliceData(after[b]) {
			n++
		}
	}
	return n
}

// TestRootCostFollowsWriteSet pins the point of the tree with counts,
// not timings: after a warm Root, one update_dataset re-hashes the same
// few buckets and allocates the same whether the state holds 1k or 12k
// datasets; a Root with nothing applied re-hashes nothing, and neither
// does one after a transaction whose arguments do not decode; a clone
// taken with marks pending roots like its source.
func TestRootCostFollowsWriteSet(t *testing.T) {
	owner := key(t, "cost-owner")
	update := tx(t, owner, ledger.TxData, "update_dataset", RegisterDatasetArgs{ID: "hot", Records: 7})
	writes := len(AccessSetOf(update).Writes)

	var replaced []int
	var allocs []float64
	for _, n := range []int{1_000, 12_000} {
		s := NewState()
		registerDataset(t, s, owner, "hot", "site")
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("cold-%d", i)
			s.datasets[id] = &Dataset{ID: id, Owner: owner.Address(), Version: 1}
			s.policies[dataKey(id)] = &Policy{Owner: owner.Address()}
		}
		s.Root() // warm: the one build

		before := s.tree.buckets
		s.Root()
		if got := bucketsReplaced(&before, &s.tree.buckets); got != 0 {
			t.Fatalf("%d datasets: a Root with nothing applied re-hashed %d buckets", n, got)
		}

		mustOK(t, apply(t, s, update))
		pending := s.Clone()
		root := s.Root()
		got := bucketsReplaced(&before, &s.tree.buckets)
		if got == 0 || got > writes {
			t.Fatalf("%d datasets: one update re-hashed %d buckets, want 1..%d", n, got, writes)
		}
		replaced = append(replaced, got)
		if pending.Root() != root {
			t.Fatalf("%d datasets: a clone taken with marks pending roots differently from its source", n)
		}
		if root != freshRoot(s) {
			t.Fatalf("%d datasets: incremental root differs from a rebuild", n)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			mustOK(t, apply(t, s, update))
			s.Root()
		}))

		// An undecodable payload never reaches its handler and declares
		// no writes: the next Root re-hashes nothing, whatever the state
		// holds (it used to drop the tree and cost a full rebuild).
		s.Root()
		before = s.tree.buckets
		bad := apply(t, s, &ledger.Transaction{Type: ledger.TxData, From: owner.Address(), Method: "grant", Args: []byte("{not json")})
		if bad.OK() || !strings.Contains(bad.Err, ErrBadArgs.Error()) {
			t.Fatalf("%d datasets: undecodable grant: %+v", n, bad)
		}
		root = s.Root()
		if got := bucketsReplaced(&before, &s.tree.buckets); got != 0 {
			t.Fatalf("%d datasets: the Root after an undecodable grant re-hashed %d buckets", n, got)
		}
		if root != freshRoot(s) {
			t.Fatalf("%d datasets: root after an undecodable grant differs from a rebuild", n)
		}
	}
	if replaced[0] != replaced[1] {
		t.Errorf("buckets re-hashed per update: %d at 1k datasets, %d at 12k", replaced[0], replaced[1])
	}
	// A walk of the state would add tens of thousands; a GC emptying
	// fmt's and encoding/json's pools mid-run moves the count by a few.
	if d := allocs[1] - allocs[0]; d < -16 || d > 16 {
		t.Errorf("allocations per update+Root: %.0f at 1k datasets, %.0f at 12k", allocs[0], allocs[1])
	}
}

// TestNeverRootedStateCarriesNoTree: speculative snapshots and clones of
// unrooted states are never rooted, so they must not pay for a tree.
func TestNeverRootedStateCarriesNoTree(t *testing.T) {
	owner := key(t, "lazy-owner")
	s := NewState()
	registerDataset(t, s, owner, "d", "site")
	update := tx(t, owner, ledger.TxData, "update_dataset", RegisterDatasetArgs{ID: "d", Records: 2})
	snap := NewVersions(s).SnapshotAt(0, AccessSetOf(update))
	mustOK(t, apply(t, snap, update))
	s.AdoptSpeculative([]SpecWrite{{Snap: snap, Acc: AccessSetOf(update)}}, nil)
	for name, st := range map[string]*State{"state": s, "snapshot": snap, "clone": s.Clone()} {
		if st.tree != nil || st.dirty != nil {
			t.Errorf("%s: a tree or marks exist before the first Root", name)
		}
	}
}

// TestStateProofBucketSiblings proves a key whose bucket holds other
// entries, so the proof's Bucket part is exercised too.
func TestStateProofBucketSiblings(t *testing.T) {
	s := NewState()
	for i := 0; i < 3*rootBuckets; i++ {
		label := fmt.Sprintf("a-%d", i)
		s.anchors[label] = &Anchor{Label: label}
	}
	root := s.Root()
	for i := 0; ; i++ {
		k := KeyAnchor(fmt.Sprintf("a-%d", i))
		p, ok := s.Prove(k)
		if !ok {
			t.Fatal("no anchor shares a bucket")
		}
		if len(p.Bucket) == 0 {
			continue
		}
		if !VerifyStateProof(root, k, p) {
			t.Fatal("a proof with bucket siblings does not verify")
		}
		p.Bucket[0].Leaf[0] ^= 1
		if VerifyStateProof(root, k, p) {
			t.Fatal("a proof verifies after a bucket sibling changed")
		}
		p.Bucket[0].Leaf[0] ^= 1
		p.Bucket = p.Bucket[1:]
		if VerifyStateProof(root, k, p) {
			t.Fatal("a proof verifies with a bucket sibling missing")
		}
		return
	}
}

// TestRootRacesWithApplyCloneAndReads hammers everything that touches
// the tree from several goroutines at once. It only bites under -race.
func TestRootRacesWithApplyCloneAndReads(t *testing.T) {
	s := NewState()
	owner := key(t, "root-race-owner")
	registerDataset(t, s, owner, "d", "site")
	const rounds = 150
	updates := make([]*ledger.Transaction, rounds)
	for i := range updates {
		updates[i] = tx(t, owner, ledger.TxData, "update_dataset", RegisterDatasetArgs{ID: "d", Records: i + 1})
	}
	s.Root()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, loop := range []func(){
		func() { s.Root() },
		func() { s.Clone().Root() },
		func() { s.Prove(KeyDataset("d")) },
		func() { s.Dataset("d"); s.Export() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					loop()
				}
			}
		}()
	}
	for _, u := range updates {
		if r, err := s.Apply(u, 1, 1); err != nil || !r.OK() {
			t.Errorf("apply: %v %v", err, r)
		}
	}
	close(stop)
	wg.Wait()
	if s.Root() != freshRoot(s) {
		t.Fatal("root after the race differs from a rebuild")
	}
}
