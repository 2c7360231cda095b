package chain

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// These tests pin the event-driven waits: waitNodes outside the
// nodes' loops, and the round timer of produceBlock. CI runs them
// under -race -count=10.

// within fails the test unless fn returns inside limit.
func within(t *testing.T, limit time.Duration, what string, fn func()) time.Duration {
	t.Helper()
	start := time.Now()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s did not return within %v", what, limit)
	}
	return time.Since(start)
}

// No lost wake-up: the condition turns true and its event fires after
// the waiter checked and before it sleeps. A waiter that took the
// channel after checking would sleep out the whole timeout.
func TestWaitNodesDoesNotLoseAWakeUpBetweenCheckAndWait(t *testing.T) {
	c := newCluster(t, 3)
	var ready atomic.Bool
	var checks atomic.Int32
	last := c.Node(2)
	var ok bool
	within(t, 5*time.Second, "waitNodes", func() {
		ok = waitNodes(c.nodes, 30*time.Second, nil, func(n *Node) bool {
			if n != last {
				return true
			}
			if checks.Add(1) == 1 {
				defer func() { ready.Store(true); last.events.fire() }()
				return false
			}
			return ready.Load()
		})
	})
	if !ok {
		t.Fatal("waitNodes timed out on a condition that held")
	}
}

// Many waiters, many events: every waiter sees the counter reach its
// target although fires and waits interleave freely (the race detector
// watches the signal itself).
func TestSignalWakesEveryWaiter(t *testing.T) {
	n := &Node{}
	var counter atomic.Int64
	const waiters, target = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(want int64) {
			defer wg.Done()
			timeout := time.NewTimer(20 * time.Second)
			defer timeout.Stop()
			for {
				woken := n.events.wait()
				if counter.Load() >= want {
					return
				}
				select {
				case <-woken:
				case <-timeout.C:
					t.Errorf("waiter for %d timed out at %d", want, counter.Load())
					return
				}
			}
		}(int64(target - w))
	}
	for i := 0; i < target; i++ {
		counter.Add(1)
		n.events.fire()
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
	within(t, 10*time.Second, "waiters", wg.Wait)
}

// The round timeout is a timer, and it is honoured: an isolated
// proposer gives up after the vote timeout — not before, not long
// after — with ErrNoQuorum.
func TestRoundTimeoutHonoured(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "round-timeout")
	p := c.Node(c.proposerIndex())
	if err := p.SubmitLocal(datasetTx(t, user, 0, "rt")); err != nil {
		t.Fatal(err)
	}
	isolate(c, p.ID())
	const timeout = 150 * time.Millisecond
	var err error
	took := within(t, 5*time.Second, "produceBlock", func() { _, err = p.produceBlock(0, timeout) })
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("isolated round: %v, want ErrNoQuorum", err)
	}
	if took < timeout || took > timeout+2*time.Second {
		t.Fatalf("round gave up after %v, timeout %v", took, timeout)
	}
}

// A follower cut off from the block broadcast is nudged with a sync
// request every timeout/4 while Commit waits for replication; when the
// wait runs out Commit returns the block together with ErrNoQuorum.
func TestPartitionedFollowerIsNudgedThenReportedWithTheBlock(t *testing.T) {
	// Commit splits CommitTimeout between its four proposer candidates;
	// the first one's budget bounds both the round and the replication wait.
	const timeout = 200 * time.Millisecond
	c, err := NewCluster(ClusterConfig{Nodes: 4, KeySeed: "nudge", CommitTimeout: 4 * timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "nudge-user")
	if err := c.Submit(datasetTx(t, user, 0, "nudge-0")); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	p := c.proposerIndex()
	cut := c.Node((p + 1) % 4)
	isolate(c, cut.ID())
	syncBytes := func() int64 { return c.Network().Stats().BytesByTopic[topicSyncReq] }
	cut.requestSync(c.Node(p).ID()) // dropped by the partition, but accounted: the size of one nudge
	one := syncBytes()
	before := syncBytes()

	start := time.Now()
	got, err := c.Commit()
	took := time.Since(start)
	if got == nil || !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Commit with a follower cut off: block %v, err %v; want the block and ErrNoQuorum", got, err)
	}
	if took < timeout || took > timeout+2*time.Second {
		t.Fatalf("replication wait took %v, timeout %v", took, timeout)
	}
	// Nudges at timeout/4, 2/4, 3/4 (the fourth coincides with the
	// deadline): at least two must have gone out, each one sync request
	// of a few bytes.
	if sent := syncBytes() - before; one <= 0 || sent < 2*one {
		t.Fatalf("%d bytes of sync requests during the wait, want at least two nudges of %d", sent, one)
	}
	if cut.Height() != 0 {
		t.Fatal("test setup: the cut-off follower received the block")
	}

	// Healed, the next nudge (not the block broadcast, which is gone)
	// brings it up: Commit of the next block succeeds well inside the
	// timeout, but not before a nudge interval has passed for the
	// follower that is two blocks behind.
	isolate(c, "")
	if err := c.Submit(datasetTx(t, user, 1, "nudge-1")); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	if _, err := c.Commit(); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Stop during the vote wait returns the proposer's round promptly.
func TestStopDuringVoteWaitReturnsPromptly(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "stop-vote")
	p := c.Node(c.proposerIndex())
	if err := p.SubmitLocal(datasetTx(t, user, 0, "sv")); err != nil {
		t.Fatal(err)
	}
	isolate(c, p.ID())
	var err error
	took := within(t, 5*time.Second, "produceBlock", func() {
		go func() { time.Sleep(30 * time.Millisecond); p.Stop() }()
		_, err = p.produceBlock(0, time.Minute)
	})
	if err == nil {
		t.Fatal("a stopped proposer committed a block")
	}
	t.Logf("round returned %v after Stop: %v", took, err)
	if p.Height() != 0 {
		t.Fatal("a stopped proposer appended a block")
	}
}

// Stop of the one follower the replication wait is sleeping on lets
// Commit return at once: a stopped node is not waited for.
func TestStopDuringReplicationWaitReturnsPromptly(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, KeySeed: "stop-repl", CommitTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "stop-repl-user")
	if err := c.Submit(datasetTx(t, user, 0, "sr")); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	cut := c.Node((c.proposerIndex() + 1) % 4)
	isolate(c, cut.ID())
	var cerr error
	within(t, 10*time.Second, "Commit", func() {
		go func() { time.Sleep(50 * time.Millisecond); cut.Stop() }()
		_, cerr = c.Commit()
	})
	if cerr != nil {
		t.Fatalf("Commit with the lagging follower stopped: %v", cerr)
	}
}

// Close during a cluster wait: every node stops, the wait returns.
func TestCloseDuringWaitPooledReturnsPromptly(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, KeySeed: "close-wait"})
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	within(t, 5*time.Second, "WaitPooled", func() {
		go func() { time.Sleep(30 * time.Millisecond); c.Close() }()
		ok = c.WaitPooled(1, time.Minute)
	})
	if !ok {
		t.Fatal("WaitPooled should hold vacuously once no node is running")
	}
}

// WaitPooled returns as soon as gossip has reached every running node,
// and reports a timeout when it cannot.
func TestWaitPooled(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "wait-pooled")
	if c.WaitPooled(1, 20*time.Millisecond) {
		t.Fatal("WaitPooled held on empty pools")
	}
	for i := 0; i < 3; i++ {
		if err := c.Submit(datasetTx(t, user, uint64(i), "wp")); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitPooled(3, 5*time.Second) {
		t.Fatal("gossip did not reach every node")
	}
	for i, n := range c.Nodes() {
		if n.MempoolSize() != 3 {
			t.Fatalf("node %d pooled %d", i, n.MempoolSize())
		}
	}
	c.StopNode(3) // a stopped node is not waited for
	if err := c.Submit(datasetTx(t, user, 3, "wp")); err != nil {
		t.Fatal(err)
	}
	if !c.WaitPooled(4, 5*time.Second) {
		t.Fatal("WaitPooled waited for a stopped node")
	}
}

// After Close no goroutine of the cluster is left: loops, sync servers,
// delivery timers, and the waits' own timers all end — also after a
// round that timed out and a replication wait that gave up.
func TestNoGoroutineLeftAfterClusterClose(t *testing.T) {
	settle := func(limit int) int {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= limit || time.Now().After(deadline) {
				return n
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	base := runtime.NumGoroutine() // whatever the test binary itself keeps
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "leak", CommitTimeout: 200 * time.Millisecond,
		Network: p2p.Config{BaseLatency: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	user := userKey(t, "leak-user")
	submitAndCommit(t, c, datasetTx(t, user, 0, "leak-0"))
	p := c.Node(c.proposerIndex())
	if err := c.Submit(datasetTx(t, user, 1, "leak-1")); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	isolate(c, p.ID())
	if _, err := p.produceBlock(0, 30*time.Millisecond); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("isolated round: %v", err)
	}
	isolate(c, c.Node((c.proposerIndex()+1)%4).ID())
	if blk, err := c.Commit(); blk == nil || !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("commit with a follower cut off: %v %v", blk, err)
	}
	c.Close()
	if left := settle(base); left > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before the cluster:\n%s", left, base, buf[:runtime.Stack(buf, true)])
	}
}

// awaitWork waits for a proposer whose pool keeps growing, however
// slowly: here each transaction reaches it later than one backoff step
// but sooner than commitAllRetries of them, and the wait lasts until the
// proposer holds the whole batch. The node that holds the batch is cut
// off, so its re-gossip cannot fill the proposer's pool.
func TestAwaitWorkWaitsWhileThePoolGrows(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "trickle")
	p := c.Proposer()
	entry := c.Node(0)
	if entry == p {
		entry = c.Node(1)
	}
	isolate(c, entry.ID())
	const batch, step = 6, 25 * time.Millisecond
	txs := make([]*ledger.Transaction, batch)
	for i := range txs {
		txs[i] = datasetTx(t, user, uint64(i), fmt.Sprintf("trickle-%d", i))
		if err := entry.SubmitLocal(txs[i]); err != nil {
			t.Fatal(err)
		}
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for _, tx := range txs {
			time.Sleep(step * 7 / 5)
			if err := p.SubmitLocal(tx); err != nil {
				t.Error(err)
			}
		}
	}()
	c.awaitWork(p, &backoff{next: step, max: step})
	held := p.MempoolSize()
	<-fed
	if held != batch {
		t.Fatalf("awaitWork returned with %d of %d transactions on the proposer", held, batch)
	}
}
