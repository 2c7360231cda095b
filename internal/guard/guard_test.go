package guard

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic decay tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }
func newTestGuard(c *fakeClock, cfg Config) *Guard {
	cfg.Clock = c.Now
	return New(cfg)
}

func TestScoresAccumulateToQuarantine(t *testing.T) {
	clk := newFakeClock()
	g := newTestGuard(clk, Config{})
	// Default malformed weight 10, threshold 100: the 10th offense tips.
	for i := 0; i < 9; i++ {
		if g.Record("evil", OffenseMalformed) {
			t.Fatalf("quarantined after %d offenses", i+1)
		}
	}
	if !g.Record("evil", OffenseMalformed) {
		t.Fatal("10th malformed payload did not quarantine")
	}
	if !g.Quarantined("evil") {
		t.Fatal("Quarantined() disagrees with Record()")
	}
	if g.Quarantined("honest") {
		t.Fatal("unscored peer quarantined")
	}
}

func TestEquivocationQuarantinesInstantly(t *testing.T) {
	g := newTestGuard(newFakeClock(), Config{})
	if !g.Record("evil", OffenseEquivocation) {
		t.Fatal("equivocation did not quarantine instantly")
	}
}

func TestDecayReleasesQuarantine(t *testing.T) {
	clk := newFakeClock()
	g := newTestGuard(clk, Config{DecayHalfLife: 10 * time.Second})
	g.Record("evil", OffenseEquivocation) // score 100
	if !g.Quarantined("evil") {
		t.Fatal("not quarantined")
	}
	clk.advance(5 * time.Second) // half a half-life: ~70, still >= 50
	if !g.Quarantined("evil") {
		t.Fatal("released too early")
	}
	clk.advance(15 * time.Second) // 2 half-lives total: 25 < 50
	if g.Quarantined("evil") {
		t.Fatal("quarantine did not decay away")
	}
	// Re-offending after release re-quarantines and counts a second
	// transition.
	g.Record("evil", OffenseEquivocation)
	if st := g.Stats(); st.Quarantines != 2 {
		t.Fatalf("Quarantines = %d, want 2", st.Quarantines)
	}
}

func TestSyncTokenBucket(t *testing.T) {
	clk := newFakeClock()
	g := newTestGuard(clk, Config{})
	for i := 0; i < syncBurst; i++ {
		if !g.AllowSync("peer") {
			t.Fatalf("request %d denied within burst", i+1)
		}
	}
	if g.AllowSync("peer") {
		t.Fatal("burst exceeded but allowed")
	}
	clk.advance(2 * syncRefillEvery) // refills 2 tokens
	if !g.AllowSync("peer") || !g.AllowSync("peer") {
		t.Fatal("refilled tokens denied")
	}
	if g.AllowSync("peer") {
		t.Fatal("over-refilled")
	}
	// A long quiet spell refills the bucket to its burst, no further.
	clk.advance(time.Hour)
	for i := 0; i < syncBurst; i++ {
		if !g.AllowSync("peer") {
			t.Fatalf("request %d after refill denied", i+1)
		}
	}
	if g.AllowSync("peer") {
		t.Fatal("bucket refilled past its burst")
	}
	// Buckets are per-peer.
	if !g.AllowSync("other") {
		t.Fatal("fresh peer denied")
	}
}

func TestStatsSnapshot(t *testing.T) {
	clk := newFakeClock()
	g := newTestGuard(clk, Config{})
	g.Record("b", OffenseMalformed)
	g.Record("a", OffenseInvalidVote)
	g.Record("a", OffenseInvalidVote)
	st := g.Stats()
	if len(st.Peers) != 2 || st.Peers[0].Peer != "a" || st.Peers[1].Peer != "b" {
		t.Fatalf("stats peers = %+v", st.Peers)
	}
	if st.Peers[0].Offenses[OffenseInvalidVote] != 2 {
		t.Fatalf("offense count = %d", st.Peers[0].Offenses[OffenseInvalidVote])
	}
	if g.OffenseTotal(OffenseInvalidVote) != 2 || g.OffenseTotal(OffenseSyncFlood) != 0 {
		t.Fatal("OffenseTotal mismatch")
	}
	// Mutating the snapshot must not touch guard state.
	st.Peers[0].Offenses[OffenseInvalidVote] = 99
	if g.OffenseTotal(OffenseInvalidVote) != 2 {
		t.Fatal("snapshot aliases guard state")
	}
}

func TestScoreDecaysToZero(t *testing.T) {
	clk := newFakeClock()
	g := newTestGuard(clk, Config{DecayHalfLife: time.Second})
	g.Record("p", OffenseMalformed)
	clk.advance(time.Hour)
	st := g.Stats()
	if st.Peers[0].Score != 0 {
		t.Fatalf("score after an hour = %v, want 0", st.Peers[0].Score)
	}
}
