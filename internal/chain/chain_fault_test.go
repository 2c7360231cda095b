package chain

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// waitRunningMempools waits until every running node has at least want
// pending txs (crashed nodes cannot receive gossip).
func waitRunningMempools(t testing.TB, c *Cluster, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, n := range c.Nodes() {
			if n.Running() && n.MempoolSize() < want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("transactions did not gossip to all running mempools")
		}
		time.Sleep(time.Millisecond)
	}
}

// A non-proposer crash must not cost any committed transactions, and
// the crashed node must replay everything it missed after Restart.
func TestCrashedFollowerRestartsAndResyncs(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "crash-follower",
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "crash-user")

	submitAndCommit(t, c, datasetTx(t, user, 0, "pre-crash"))

	c.StopNode(3)
	if c.Node(3).Running() {
		t.Fatal("stopped node reports running")
	}
	for i := 1; i <= 2; i++ {
		tx := datasetTx(t, user, uint64(i), fmt.Sprintf("during-crash-%d", i))
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		waitRunningMempools(t, c, 1)
		// Quorum is 3-of-4: the surviving nodes keep committing, and
		// replication only waits on running nodes, so no error here.
		if _, err := c.Commit(); err != nil {
			t.Fatalf("commit with crashed follower: %v", err)
		}
	}
	if h := c.Node(3).Height(); h != 1 {
		t.Fatalf("crashed node advanced to height %d", h)
	}

	if err := c.RestartNode(3); err != nil {
		t.Fatal(err)
	}
	ok := waitNodes([]*Node{c.Node(3)}, 5*time.Second, nil, func(n *Node) bool { return n.Height() >= 3 })
	if !ok {
		t.Fatalf("restarted node stuck at height %d", c.Node(3).Height())
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, ok := c.Node(3).State().Dataset(fmt.Sprintf("during-crash-%d", i)); !ok {
			t.Fatalf("restarted node missing replayed dataset %d", i)
		}
	}
}

// With the scheduled proposer crashed, Commit must fail over to the
// next running candidate and still complete within CommitTimeout.
func TestProposerCrashFailsOver(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "crash-proposer",
		CommitTimeout: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "failover-user")

	// Height 1's scheduled proposer is node-1 (round-robin h%4).
	crashed := c.Node(1)
	c.StopNode(1)
	if err := c.Submit(datasetTx(t, user, 0, "failover-d")); err != nil {
		t.Fatal(err)
	}
	waitRunningMempools(t, c, 1)

	start := time.Now()
	blk, err := c.Commit()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("commit did not fail over: %v", err)
	}
	if elapsed > c.cfg.CommitTimeout {
		t.Fatalf("failover took %v, budget %v", elapsed, c.cfg.CommitTimeout)
	}
	if blk.Header.Proposer == crashed.Address() {
		t.Fatal("block claims the crashed proposer")
	}
	if len(blk.Txs) != 1 {
		t.Fatalf("failover block carries %d txs, want 1", len(blk.Txs))
	}
	// The substitute's block is accepted by every survivor.
	for _, i := range c.RunningNodes() {
		if h := c.Node(i).Height(); h != 1 {
			t.Fatalf("node %d at height %d after failover", i, h)
		}
	}
}

// A failed quorum round must leave the proposer's live state untouched
// (production previews on a clone), so the retried round commits the
// same transactions exactly once.
func TestFailedRoundLeavesStateCleanForRetry(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "clean-retry",
		CommitTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "retry-user")

	// Cut everyone else off: the proposer cannot reach quorum.
	c.Network().SetPartitions(map[p2p.NodeID]int{
		"node-0": 1, "node-2": 1, "node-3": 1,
	})
	if err := c.SubmitVia(1, datasetTx(t, user, 0, "retry-d")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).produceBlock(0, 100*time.Millisecond); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("expected ErrNoQuorum, got %v", err)
	}
	if h := c.Node(1).Height(); h != 0 {
		t.Fatalf("failed round appended a block (height %d)", h)
	}
	if root0 := c.Node(0).State().Root(); c.Node(1).State().Root() != root0 {
		t.Fatal("failed round mutated the proposer's state")
	}
	if size := c.Node(1).MempoolSize(); size != 1 {
		t.Fatalf("failed round consumed the mempool (%d txs left)", size)
	}

	// Heal and retry: the same tx commits exactly once.
	c.Network().SetPartitions(nil)
	blk, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 1 {
		t.Fatalf("retried block carries %d txs, want 1", len(blk.Txs))
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A 4-node cluster split 3/1 keeps committing on the majority side and
// re-converges — equal heights and state roots — after the partition
// heals and the minority node restarts.
func TestPartitionHealMinorityRestartReconverges(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "split-heal",
		CommitTimeout: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "split-user")

	// Isolate node-3: heights 1 and 2 are scheduled on nodes 1 and 2
	// (round robin), both on the majority side, whose three votes are a
	// quorum.
	c.Network().SetPartitions(map[p2p.NodeID]int{"node-3": 1})
	for i := 0; i < 2; i++ {
		tx := datasetTx(t, user, uint64(i), fmt.Sprintf("split-d-%d", i))
		if err := c.SubmitVia(1, tx); err != nil {
			t.Fatal(err)
		}
		ok := waitNodes([]*Node{c.Node(2)}, 3*time.Second, nil, func(n *Node) bool { return n.MempoolSize() >= 1 })
		if !ok {
			t.Fatal("gossip timeout on majority side")
		}
		// The majority commits; full replication fails (node-3 cut off).
		blk, err := c.Commit()
		if err == nil {
			t.Fatal("commit reported full replication during split")
		}
		if blk == nil {
			t.Fatalf("majority side failed to commit: %v", err)
		}
	}
	if h := c.Node(1).Height(); h != 2 {
		t.Fatalf("majority height %d, want 2", h)
	}
	if h := c.Node(3).Height(); h != 0 {
		t.Fatalf("minority node advanced to %d", h)
	}

	// Crash the minority node, heal the split, restart: RestartNode's
	// sync replays the missed blocks.
	c.StopNode(3)
	c.Network().SetPartitions(nil)
	if err := c.RestartNode(3); err != nil {
		t.Fatal(err)
	}
	ok := waitNodes([]*Node{c.Node(3)}, 5*time.Second, nil, func(n *Node) bool { return n.Height() >= 2 })
	if !ok {
		t.Fatalf("minority node stuck at height %d after heal", c.Node(3).Height())
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}

	// Height 3 is scheduled on the restarted node-3 itself: the healed
	// cluster keeps producing with it back in rotation.
	if err := c.Submit(datasetTx(t, user, 2, "split-d-2")); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	blk, err := c.Commit()
	if err != nil {
		t.Fatalf("post-heal commit: %v", err)
	}
	if blk.Header.Proposer != c.Node(3).Address() {
		t.Fatal("restarted minority node did not resume proposing")
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// CommitAll must retry transient no-quorum rounds and, on exhaustion,
// report the blocks it did commit alongside a wrapped error.
func TestCommitAllRetriesThenReportsPartialProgress(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "commitall-retry",
		CommitTimeout: 300 * time.Millisecond, MaxBlockTxs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "commitall-user")
	for i := 0; i < 2; i++ {
		if err := c.Submit(datasetTx(t, user, uint64(i), fmt.Sprintf("ca-d-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitMempools(t, c, 2)

	// node-3 is partitioned but running: every round commits on the
	// quorum side yet fails full replication, so CommitAll retries and
	// then gives up with the progress it made.
	c.Network().SetPartitions(map[p2p.NodeID]int{"node-3": 1})
	blocks, err := c.CommitAll()
	if err == nil {
		t.Fatal("CommitAll reported success during partition")
	}
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("error %v does not wrap exhaustion + no-quorum", err)
	}
	if blocks == 0 {
		t.Fatal("CommitAll discarded partial progress")
	}

	// After heal the remaining txs drain cleanly.
	c.Network().SetPartitions(nil)
	if _, err := c.CommitAll(); err != nil {
		t.Fatalf("post-heal CommitAll: %v", err)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Under 30 % message loss — gossip, proposals, votes and blocks alike —
// a long run of CommitAll calls appends no empty block on any node:
// each call drains the pools or gives up with ErrRetriesExhausted, and
// once the loss stops everything submitted commits.
func TestCommitAllNeverBuildsAnEmptyBlock(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "lossy-commitall", CommitTimeout: 200 * time.Millisecond,
		Network: p2p.Config{LossRate: 0.3, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "lossy-user")
	var nonce uint64
	for round := 0; round < 12; round++ {
		for k := 0; k < 3; k++ {
			if err := c.Submit(datasetTx(t, user, nonce, fmt.Sprintf("lossy-%d", nonce))); err != nil {
				t.Fatal(err)
			}
			nonce++
		}
		switch _, err := c.CommitAll(); {
		case err == nil:
			if n := c.fullestPool(); n != 0 {
				t.Fatalf("round %d: CommitAll returned with %d txs pooled", round, n)
			}
		case !errors.Is(err, ErrRetriesExhausted):
			t.Fatalf("round %d: %v", round, err)
		}
	}

	c.Network().SetLossRate(0)
	c.SyncLagging()
	if _, err := c.CommitAll(); err != nil {
		t.Fatalf("loss-free CommitAll: %v", err)
	}
	if got := c.Best().Chain().NextNonce(user.Address()); got != nonce {
		t.Fatalf("%d of %d submitted txs committed", got, nonce)
	}
	for _, n := range c.Nodes() {
		n.Chain().Walk(func(b *ledger.Block) bool {
			if b.Header.Height > 0 && len(b.Txs) == 0 {
				t.Fatalf("%s holds empty block %d", n.ID(), b.Header.Height)
			}
			return true
		})
	}
}
