package loadgen

import (
	"testing"
	"time"

	"medchain/internal/chain"
	"medchain/internal/guard"
	"medchain/internal/ledger"
)

func newCluster(t *testing.T, cfg chain.ClusterConfig) *chain.Cluster {
	t.Helper()
	c, err := chain.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// A closed-loop fleet against an unconstrained cluster commits
// everything it submits, with sane metrics.
func TestClosedLoopCommitsAll(t *testing.T) {
	c := newCluster(t, chain.ClusterConfig{Nodes: 3, KeySeed: "lg-closed", MaxBlockTxs: 64})
	res, err := Run(c, Config{
		Clients:  3,
		Window:   4,
		Duration: 300 * time.Millisecond,
		KeySeed:  "lg-closed",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("closed loop committed nothing")
	}
	if res.Committed != res.Submitted {
		t.Fatalf("committed %d != submitted %d (drain incomplete)", res.Committed, res.Submitted)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 || res.Max < res.P999 {
		t.Fatalf("quantiles disordered: p50=%v p99=%v p999=%v max=%v", res.P50, res.P99, res.P999, res.Max)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness %v out of range", res.Fairness)
	}
	if res.Blocks == 0 {
		t.Fatal("no blocks produced")
	}
}

// An open-loop flood against a tiny pool with admission control gets
// typed backpressure, and the pool never exceeds its capacity.
func TestOpenLoopFloodIsShedWithTypedErrors(t *testing.T) {
	capacity := 32
	c := newCluster(t, chain.ClusterConfig{
		Nodes:       3,
		KeySeed:     "lg-flood",
		MaxBlockTxs: 8,
		Mempool:     &chain.MempoolConfig{Capacity: capacity},
	})
	for _, n := range c.Nodes() {
		n.SetAdmissionConfig(guard.AdmissionConfig{ClientRate: 50, ClientBurst: 10})
	}
	res, err := Run(c, Config{
		Clients:  2,
		Rate:     2000,
		Duration: 250 * time.Millisecond,
		Type:     ledger.TxData,
		KeySeed:  "lg-flood",
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, n := range res.Rejected {
		total += n
	}
	if total == 0 {
		t.Fatalf("flood was not rejected at all: %+v", res)
	}
	if res.Rejected[ReasonOther] > 0 {
		t.Fatalf("untyped rejections: %+v", res.Rejected)
	}
	for i, n := range c.Nodes() {
		if peak := n.MempoolStats().PeakSize; peak > capacity {
			t.Fatalf("node %d pool peaked at %d > capacity %d", i, peak, capacity)
		}
	}
}

// TTL-stamped transactions that outlive their deadline dead-letter
// instead of committing late.
func TestTTLDeadLettersInsteadOfLateCommit(t *testing.T) {
	c := newCluster(t, chain.ClusterConfig{Nodes: 3, KeySeed: "lg-ttl", MaxBlockTxs: 4})
	res, err := Run(c, Config{
		Clients:   2,
		Rate:      600,
		Duration:  250 * time.Millisecond,
		TTLBlocks: 2,
		KeySeed:   "lg-ttl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	// Every committed transaction respected its deadline — enforced by
	// ledger validation, re-checked here across the whole chain.
	for _, n := range c.Nodes() {
		if err := n.Chain().VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}
