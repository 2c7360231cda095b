package chaos

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

func newCluster(t testing.TB, seed string) *chain.Cluster {
	t.Helper()
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes: 4, KeySeed: seed,
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func datasetTx(t testing.TB, kp *cryptoutil.KeyPair, nonce uint64, id string) *ledger.Transaction {
	t.Helper()
	args, err := json.Marshal(contract.RegisterDatasetArgs{
		ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1", Records: 10, SiteID: "site",
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := &ledger.Transaction{
		Type: ledger.TxData, Nonce: nonce, Method: "register_dataset",
		Args: args, Timestamp: 1,
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

// runWorkload drives rounds of submit+commit with the orchestrator
// injecting faults, then heals, drains, and awaits recovery. Returns
// the submitted transactions. A schedule that injected nothing fails
// the test: the recovery it checks would be vacuous.
func runWorkload(t testing.TB, c *chain.Cluster, o *Orchestrator, rounds int) []*ledger.Transaction {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair("chaos-user")
	if err != nil {
		t.Fatal(err)
	}
	var txs []*ledger.Transaction
	for r := 0; r < rounds; r++ {
		o.Advance(r)
		tx := datasetTx(t, kp, uint64(r), fmt.Sprintf("chaos-d-%d", r))
		if err := c.Submit(tx); err != nil {
			t.Fatalf("round %d submit: %v", r, err)
		}
		txs = append(txs, tx)
		_, _ = c.Commit() // partial replication during faults is expected
	}
	o.Finish()
	if _, err := c.CommitAll(); err != nil {
		t.Fatalf("post-heal drain: %v", err)
	}
	if err := o.AwaitRecovery(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(o.FaultLog()) == 0 {
		t.Fatal("no faults injected")
	}
	return txs
}

func assertAllCommitted(t testing.TB, c *chain.Cluster, txs []*ledger.Transaction) {
	t.Helper()
	for i, n := range c.Nodes() {
		for _, tx := range txs {
			if _, ok := n.Receipt(tx.ID()); !ok {
				t.Fatalf("node %d missing receipt for tx %s", i, tx.ID().Short())
			}
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(int64) Schedule{
		"crash-follower": func(s int64) Schedule { return CrashFollower(4, 8, s) },
		"crash-proposer": func(s int64) Schedule { return CrashProposer(4, 8, s) },
		"loss":           func(s int64) Schedule { return LossSpike(8, 0.3, s) },
		"latency":        func(s int64) Schedule { return LatencySpike(8, time.Millisecond, 0, s) },
		"rolling":        func(s int64) Schedule { return RollingPartitions(4, 8, s) },
		"slow":           func(s int64) Schedule { return SlowNode(4, 8, time.Millisecond, s) },
		"partition-heal": func(s int64) Schedule { return PartitionAndHeal(4, 8, s) },
	}
	for name, gen := range gens {
		for seed := int64(0); seed < 5; seed++ {
			a, b := gen(seed), gen(seed)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: seed %d produced diverging schedules:\n%+v\n%+v", name, seed, a, b)
			}
			for i := 1; i < len(a.Steps); i++ {
				if a.Steps[i].Round < a.Steps[i-1].Round {
					t.Fatalf("%s: seed %d: rounds not monotone: %+v", name, seed, a.Steps)
				}
			}
		}
	}
}

func TestCrashFollowerScheduleAvoidsProposers(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sched := CrashFollower(4, 8, seed)
		crash, restart := sched.Steps[0], sched.Steps[1]
		if crash.Kind != KindCrash || restart.Kind != KindRestart {
			t.Fatalf("seed %d: unexpected steps %+v", seed, sched.Steps)
		}
		if crash.Node != restart.Node {
			t.Fatalf("seed %d: restart targets a different node", seed)
		}
		for r := crash.Round; r <= restart.Round; r++ {
			if proposerFor(r, 4) == crash.Node {
				t.Fatalf("seed %d: victim %d proposes round %d while down", seed, crash.Node, r)
			}
		}
	}
}

// Same seed, same schedule, same injected-fault log, whatever the
// timing-dependent observations: a failing chaos run replays from its
// seed.
func TestSameSeedSameFaultLog(t *testing.T) {
	logs := make([][]string, 2)
	for i := range logs {
		c := newCluster(t, "chaos-repro") // identical cluster both times
		o := New(c, RollingPartitions(4, 6, 42))
		runWorkload(t, c, o, 6)
		logs[i] = o.FaultLog()
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("same seed, diverging fault logs:\n%v\n%v", logs[0], logs[1])
	}
}

func TestCrashFollowerScenarioRecovers(t *testing.T) {
	c := newCluster(t, "chaos-crash-follower")
	o := New(c, CrashFollower(4, 6, 7))
	txs := runWorkload(t, c, o, 6)
	assertAllCommitted(t, c, txs)

	events := o.Events()
	var sawCrash, sawRecovered bool
	for _, e := range events {
		if e.Injected && e.Step.Kind == KindCrash {
			sawCrash = true
		}
		if !e.Injected && e.Detail != "" {
			sawRecovered = true
		}
	}
	if !sawCrash || !sawRecovered {
		t.Fatalf("event log incomplete: %+v", events)
	}
}

func TestCrashProposerScenarioRecovers(t *testing.T) {
	c := newCluster(t, "chaos-crash-proposer")
	o := New(c, CrashProposer(4, 6, 11))
	txs := runWorkload(t, c, o, 6)
	assertAllCommitted(t, c, txs)
}

func TestLossSpikeScenarioRecovers(t *testing.T) {
	c := newCluster(t, "chaos-loss")
	o := New(c, LossSpike(6, 0.3, 3))
	txs := runWorkload(t, c, o, 6)
	assertAllCommitted(t, c, txs)
}

func TestPartitionAndHealScenarioRecovers(t *testing.T) {
	c := newCluster(t, "chaos-part")
	o := New(c, PartitionAndHeal(4, 6, 5))
	txs := runWorkload(t, c, o, 6)
	assertAllCommitted(t, c, txs)
}

func TestSlowNodeScenarioRecovers(t *testing.T) {
	c := newCluster(t, "chaos-slow")
	o := New(c, SlowNode(4, 5, 2*time.Millisecond, 9))
	txs := runWorkload(t, c, o, 5)
	assertAllCommitted(t, c, txs)
}

// Finish must clear every standing fault even when the schedule never
// heals them itself.
func TestFinishHealsStandingFaults(t *testing.T) {
	c := newCluster(t, "chaos-finish")
	o := New(c, Schedule{Name: "scripted", Steps: []Step{
		{Round: 0, Kind: KindCrash, Node: 3},
		{Round: 0, Kind: KindLoss, Loss: 0.9},
		{Round: 0, Kind: KindSlowNode, Node: 1, Delay: time.Millisecond},
	}})
	o.Advance(0)
	if c.Node(3).Running() {
		t.Fatal("crash step did not stop the node")
	}
	o.Finish()
	if !c.Node(3).Running() {
		t.Fatal("Finish did not restart the crashed node")
	}
	kp, err := cryptoutil.DeriveKeyPair("finish-user")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(datasetTx(t, kp, 0, "post-finish")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitAll(); err != nil {
		t.Fatalf("post-Finish commit (loss not cleared?): %v", err)
	}
	if err := o.AwaitRecovery(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// AwaitRecovery without Finish cannot converge while a node is down: it
// gives up at its budget with the per-node heights and logs the
// timeout; after Finish the same orchestrator recovers.
func TestAwaitRecoveryTimesOutWhileANodeIsDown(t *testing.T) {
	c := newCluster(t, "chaos-timeout")
	o := New(c, Schedule{Name: "scripted", Steps: []Step{{Round: 0, Kind: KindCrash, Node: 3}}})
	o.Advance(0)
	kp, err := cryptoutil.DeriveKeyPair("timeout-user")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(datasetTx(t, kp, 0, "while-down")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitAll(); err != nil {
		t.Fatal(err)
	}
	const budget = 100 * time.Millisecond
	start := time.Now()
	err = o.AwaitRecovery(budget)
	if elapsed := time.Since(start); elapsed < budget {
		t.Fatalf("gave up after %v, before its %v budget", elapsed, budget)
	}
	// node-3's head is still genesis, so VerifyConsistency names it.
	if err == nil || !strings.Contains(err.Error(), "did not recover (heights [1 1 1 0])") {
		t.Fatalf("AwaitRecovery with node-3 down: %v", err)
	}
	want := fmt.Sprintf("observed: recovery timed out after %v", budget)
	if events := o.Events(); events[len(events)-1].String() != want {
		t.Fatalf("last event %q, want %q", events[len(events)-1], want)
	}
	o.Finish()
	if err := o.AwaitRecovery(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
