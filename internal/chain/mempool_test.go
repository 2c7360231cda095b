package chain

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
)

// poolTxFrom builds a signed transaction with an explicit nonce,
// expiry height (0 = no deadline), and a unique payload.
func poolTxFrom(t testing.TB, kp *cryptoutil.KeyPair, nonce, expiry uint64) *ledger.Transaction {
	t.Helper()
	tx := &ledger.Transaction{
		Type: ledger.TxTrial, Nonce: nonce, Method: "enroll",
		Args:      []byte(fmt.Sprintf(`{"n":%d,"e":%d}`, nonce, expiry)),
		Timestamp: int64(1 + nonce), Expiry: expiry,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func poolKey(t testing.TB, label string) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair("mempool-test/" + label)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// zeroNext is the committed-nonce view of an empty chain.
func zeroNext(cryptoutil.Address) uint64 { return 0 }

func TestMempoolRejectsDuplicatesAndOccupiedNonces(t *testing.T) {
	m := NewMempool(MempoolConfig{Capacity: 16})
	kp := poolKey(t, "dup")
	tx := poolTxFrom(t, kp, 0, 0)
	if err := m.Add(tx, guard.ClassNormal, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(tx, guard.ClassNormal, 0, 0); !errors.Is(err, ledger.ErrDuplicateTx) {
		t.Fatalf("duplicate admitted: %v", err)
	}
	// A different transaction on the same (sender, nonce) slot is a
	// conflict, not a replacement.
	other := poolTxFrom(t, kp, 0, 99)
	if err := m.Add(other, guard.ClassNormal, 0, 0); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("occupied nonce: %v", err)
	}
	// A nonce below the committed horizon can never commit again.
	stale := poolTxFrom(t, kp, 1, 0)
	if err := m.Add(stale, guard.ClassNormal, 5, 0); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("stale nonce: %v", err)
	}
	st := m.Stats()
	if st.DroppedDuplicate != 1 || st.DroppedStale != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMempoolBuffersGapsWithinWindowOnly(t *testing.T) {
	m := NewMempool(MempoolConfig{Capacity: 16})
	kp := poolKey(t, "gap")
	// Nonce 3 with nothing committed: a gapped future arrival —
	// buffered (a lagging node may simply not have synced 0..2 yet)…
	if err := m.Add(poolTxFrom(t, kp, 3, 0), guard.ClassNormal, 0, 0); err != nil {
		t.Fatalf("in-window future rejected: %v", err)
	}
	// …but never proposed while the prefix is missing.
	if got := m.Take(0, 0, zeroNext); len(got) != 0 {
		t.Fatalf("proposed across a nonce gap: %d txs", len(got))
	}
	if got := m.NextNonce(kp.Address(), 0); got != 0 {
		t.Fatalf("NextNonce through a gap = %d, want 0", got)
	}
	// The window's last nonce is held too; one beyond it is refused, so
	// a far-future flood cannot squat capacity.
	if err := m.Add(poolTxFrom(t, kp, maxFuture-1, 0), guard.ClassNormal, 0, 0); err != nil {
		t.Fatalf("last in-window future rejected: %v", err)
	}
	if err := m.Add(poolTxFrom(t, kp, maxFuture, 0), guard.ClassNormal, 0, 0); !errors.Is(err, ErrNonceGap) {
		t.Fatalf("out-of-window future: %v", err)
	}
	// Filling the hole makes the contiguous prefix proposable in order;
	// the far future stays gapped.
	for n := uint64(0); n < 3; n++ {
		if err := m.Add(poolTxFrom(t, kp, n, 0), guard.ClassNormal, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Take(0, 0, zeroNext)
	if len(got) != 4 {
		t.Fatalf("took %d txs, want 4", len(got))
	}
	for i, tx := range got {
		if tx.Nonce != uint64(i) {
			t.Fatalf("take order broken at %d: nonce %d", i, tx.Nonce)
		}
	}
}

func TestMempoolEvictsStrictlyLowerClassTails(t *testing.T) {
	m := NewMempool(MempoolConfig{Capacity: 4})
	bulkKey, normalKey := poolKey(t, "bulk"), poolKey(t, "normal")
	for n := uint64(0); n < 4; n++ {
		if err := m.Add(poolTxFrom(t, bulkKey, n, 0), guard.ClassBulk, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A normal-class arrival at capacity evicts the bulk run's tail.
	if err := m.Add(poolTxFrom(t, normalKey, 0, 0), guard.ClassNormal, 0, 0); err != nil {
		t.Fatalf("normal tx not admitted over bulk: %v", err)
	}
	if m.Size() != 4 {
		t.Fatalf("size %d after eviction, want capacity 4", m.Size())
	}
	st := m.Stats()
	if st.Evicted != 1 || st.DroppedFull != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The victim was the tail (highest nonce), not the head: the bulk
	// prefix 0..2 is still contiguous and proposable.
	got := m.Take(0, 0, zeroNext)
	bulkLeft := 0
	for _, tx := range got {
		if tx.From == bulkKey.Address() {
			bulkLeft++
		}
	}
	if bulkLeft != 3 {
		t.Fatalf("bulk prefix after eviction = %d txs, want 3", bulkLeft)
	}
	// A pool with no strictly-lower-class resident refuses both peers
	// and juniors with a typed pool-full instead of evicting.
	m2 := NewMempool(MempoolConfig{Capacity: 4})
	for n := uint64(0); n < 4; n++ {
		if err := m2.Add(poolTxFrom(t, normalKey, n, 0), guard.ClassNormal, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Add(poolTxFrom(t, poolKey(t, "normal2"), 0, 0), guard.ClassNormal, 0, 0); !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("same-class eviction should be refused: %v", err)
	}
	if err := m2.Add(poolTxFrom(t, poolKey(t, "bulk2"), 0, 0), guard.ClassBulk, 0, 0); !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("bulk displaced higher class: %v", err)
	}
	if st := m2.Stats(); st.DroppedFull != 2 || st.Evicted != 0 {
		t.Fatalf("full-pool stats %+v", st)
	}
}

// TTL at the proposal boundary: a transaction whose deadline is height
// h may be packed into block h but not h+1 — Take at chain height h-1
// still proposes it, Take at h drops it with a typed stat instead of
// returning it.
func TestMempoolExpiryExactlyAtProposalAssembly(t *testing.T) {
	m := NewMempool(MempoolConfig{Capacity: 16})
	kp := poolKey(t, "ttl")
	if err := m.Add(poolTxFrom(t, kp, 0, 5), guard.ClassNormal, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Take(0, 4, zeroNext); len(got) != 1 {
		t.Fatalf("tx unproposable one block before its deadline: %d", len(got))
	}
	if got := m.Take(0, 5, zeroNext); len(got) != 0 {
		t.Fatalf("expired tx proposed for block 6: %d", len(got))
	}
	if st := m.Stats(); st.ExpiredInPool != 1 || m.Size() != 0 {
		t.Fatalf("expiry not recorded: %+v size=%d", st, m.Size())
	}
	// Admission applies the same boundary: a deadline the next block
	// already misses is refused up front.
	if err := m.Add(poolTxFrom(t, kp, 1, 5), guard.ClassNormal, 0, 5); !errors.Is(err, ErrExpired) {
		t.Fatalf("dead-on-arrival tx admitted: %v", err)
	}
}

// An expired transaction strands its same-sender successors: they are
// dropped with it (typed as gapped-by-expiry), because no successor
// can commit before the expired predecessor is re-signed.
func TestMempoolExpiryCascadeDropsSuccessors(t *testing.T) {
	m := NewMempool(MempoolConfig{Capacity: 16})
	kp := poolKey(t, "cascade")
	if err := m.Add(poolTxFrom(t, kp, 0, 3), guard.ClassNormal, 0, 0); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n < 3; n++ {
		if err := m.Add(poolTxFrom(t, kp, n, 0), guard.ClassNormal, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Take(0, 3, zeroNext); len(got) != 0 {
		t.Fatalf("successors of an expired tx proposed: %d", len(got))
	}
	st := m.Stats()
	if st.ExpiredInPool != 1 || st.GappedByExpiry != 2 || m.Size() != 0 {
		t.Fatalf("cascade stats %+v size=%d", st, m.Size())
	}
}

// Take order is a pure function of pool content — class descending,
// then sender address, then nonce — regardless of arrival order, so
// two nodes holding the same transactions propose identical blocks.
func TestMempoolTakeOrderDeterministicAcrossArrivalOrders(t *testing.T) {
	keys := []*cryptoutil.KeyPair{poolKey(t, "o1"), poolKey(t, "o2"), poolKey(t, "o3")}
	classes := []guard.Class{guard.ClassBulk, guard.ClassNormal, guard.ClassCritical}
	type entry struct {
		tx    *ledger.Transaction
		class guard.Class
	}
	var entries []entry
	for ki, kp := range keys {
		for n := uint64(0); n < 3; n++ {
			entries = append(entries, entry{poolTxFrom(t, kp, n, 0), classes[ki]})
		}
	}
	fill := func(order []int) *Mempool {
		m := NewMempool(MempoolConfig{Capacity: 16})
		for _, i := range order {
			if err := m.Add(entries[i].tx, entries[i].class, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	forward := make([]int, len(entries))
	backward := make([]int, len(entries))
	for i := range entries {
		forward[i] = i
	}
	// Reversed per-sender runs would violate the nonce-gap rule, so
	// reverse across senders while keeping nonces ascending.
	for i := range entries {
		sender, nonce := i/3, i%3
		backward[i] = (len(keys)-1-sender)*3 + nonce
	}
	a := fill(forward).Take(0, 0, zeroNext)
	b := fill(backward).Take(0, 0, zeroNext)
	if len(a) != len(entries) || len(b) != len(entries) {
		t.Fatalf("take sizes %d/%d, want %d", len(a), len(b), len(entries))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("take order diverges at %d: %s vs %s", i, a[i].ID().Short(), b[i].ID().Short())
		}
	}
	// Critical-class sender leads, bulk trails.
	if a[0].From != keys[2].Address() {
		t.Fatal("critical sender not proposed first")
	}
	if a[len(a)-1].From != keys[0].Address() {
		t.Fatal("bulk sender not proposed last")
	}
}

// Cluster.Submit must preserve each node's typed rejection instead of
// reporting only the first: the caller can see the whole edge is
// saturated (not down).
func TestClusterSubmitJoinsPerNodeReasons(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 3, KeySeed: "submit-reasons",
		Mempool: &MempoolConfig{Capacity: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kp := poolKey(t, "flood")
	// Fill every pool over the shed threshold with bulk traffic; the
	// pools gossip, so capacity is reached cluster-wide.
	var lastErr error
	for n := uint64(0); lastErr == nil && n < 64; n++ {
		lastErr = c.Submit(datasetTx(t, kp, n, fmt.Sprintf("fill-%d", n)))
	}
	if lastErr == nil {
		t.Fatal("flood never rejected")
	}
	if !errors.Is(lastErr, ErrMempoolFull) {
		t.Fatalf("rejection not typed as mempool-full: %v", lastErr)
	}
	// Every node's verdict is present, not just the first one's.
	msg := lastErr.Error()
	for i := 0; i < 3; i++ {
		if want := fmt.Sprintf("node %d:", i); !strings.Contains(msg, want) {
			t.Fatalf("joined error missing %q: %v", want, lastErr)
		}
	}
}

func TestClusterSubmitViaNamesTheNode(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 3, KeySeed: "submit-via",
		Mempool: &MempoolConfig{Capacity: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kp := poolKey(t, "via")
	// Two bulk transactions fill node 2's pool; the third is refused.
	for n := uint64(0); n < 2; n++ {
		if err := c.SubmitVia(2, datasetTx(t, kp, n, fmt.Sprintf("via-%d", n))); err != nil {
			t.Fatal(err)
		}
	}
	err = c.SubmitVia(2, datasetTx(t, kp, 2, "via-2"))
	if !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("full pool not typed as mempool-full: %v", err)
	}
	if !strings.Contains(err.Error(), "node 2:") {
		t.Fatalf("rejection does not name the node: %v", err)
	}
}
