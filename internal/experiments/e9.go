package experiments

import (
	"fmt"
	"time"

	"medchain/internal/chain"
	"medchain/internal/chaos"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// --- E9: availability under faults ---
//
// The paper's Fig. 2 puts the medical blockchain across hospital sites
// on a wide-area network, where crashes, partitions, and lossy links
// are routine. E9 drives a commit workload while the chaos harness
// (internal/chaos) injects scripted faults and measures what survives:
// the committed-transaction ratio, the time to recover full
// consistency after the faults heal, and whether every node converges
// to the same head and state root.

// e9Config is the fault-availability run.
type e9Config struct {
	// Rounds is the number of submit+commit workload rounds per
	// scenario.
	Rounds int
	// CommitTimeout bounds one commit round (kept short so faulted
	// rounds fail fast instead of stalling the run).
	CommitTimeout time.Duration
}

var e9Sizes = [...]e9Config{
	Full:  {Rounds: 8, CommitTimeout: 2 * time.Second},
	Quick: {Rounds: 5, CommitTimeout: time.Second},
}

const (
	// e9Nodes is the cluster size: 4 tolerates one crash under the 2f+1
	// quorum rule.
	e9Nodes = 4
	// e9LossRate is the drop probability of the loss-spike scenario.
	e9LossRate = 0.3
	// e9RecoveryTimeout bounds the post-heal convergence wait.
	e9RecoveryTimeout = 10 * time.Second
)

// e9Row is one scenario's availability outcome.
type e9Row struct {
	// Scenario names the fault script.
	Scenario string
	// Faults is the number of injected fault events.
	Faults int
	// Submitted and Committed count workload transactions.
	Submitted, Committed int
	// Ratio is Committed/Submitted (1.0 = no tx lost to the faults).
	Ratio float64
	// Recovery is the post-heal time to full consistency.
	Recovery time.Duration
	// Consistent reports whether every node converged to the same head
	// and state root after recovery.
	Consistent bool
	// Overflow counts inbox-overflow drops observed by the chaos log.
	Overflow int64
}

// e9Scenario runs one fault script against a fresh cluster: submit one
// tx per round while the orchestrator injects faults, heal, drain the
// mempools, await convergence, and account for every transaction.
func e9Scenario(cfg e9Config, seed int64, name string, sched chaos.Schedule) (e9Row, error) {
	row := e9Row{Scenario: name}
	c, err := chain.NewCluster(chain.ClusterConfig{
		Nodes:         e9Nodes,
		KeySeed:       fmt.Sprintf("e9-%s-%d", name, seed),
		CommitTimeout: cfg.CommitTimeout,
	})
	if err != nil {
		return row, err
	}
	defer c.Close()
	orch := chaos.New(c, sched)

	user, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("e9-user-%d", seed))
	if err != nil {
		return row, err
	}
	var txs []*ledger.Transaction
	for r := 0; r < cfg.Rounds; r++ {
		orch.Advance(r)
		tx, err := registerTx(user, uint64(r), fmt.Sprintf("e9/%s/d-%d", name, r))
		if err != nil {
			return row, err
		}
		if err := c.Submit(tx); err != nil {
			return row, fmt.Errorf("experiments: e9 %s round %d submit: %w", name, r, err)
		}
		txs = append(txs, tx)
		_, _ = c.Commit() // faulted rounds may fail or replicate partially
	}

	orch.Finish()
	healed := time.Now()
	if _, err := c.CommitAll(); err != nil {
		return row, fmt.Errorf("experiments: e9 %s post-heal drain: %w", name, err)
	}
	recoveryErr := orch.AwaitRecovery(e9RecoveryTimeout)
	row.Recovery = time.Since(healed)
	row.Consistent = recoveryErr == nil && c.VerifyConsistency() == nil
	row.Overflow = orch.ObserveOverflow()
	row.Faults = len(orch.FaultLog())
	row.Submitted = len(txs)
	for _, tx := range txs {
		if _, ok := c.Node(0).Receipt(tx.ID()); ok {
			row.Committed++
		}
	}
	if row.Submitted > 0 {
		row.Ratio = float64(row.Committed) / float64(row.Submitted)
	}
	return row, nil
}

// e9Availability runs the availability-under-faults suite: a fault-free
// baseline, a mid-run crash of a follower, a crash of the scheduled
// proposer (exercising Commit failover), a transient loss spike, and a
// partition that heals. Every scenario must end consistent with all
// submitted transactions committed.
func e9Availability(cfg e9Config, seed int64) ([]e9Row, error) {
	scenarios := []struct {
		name  string
		sched chaos.Schedule
	}{
		{"baseline (no faults)", chaos.Schedule{Name: "baseline"}},
		{"crash follower", chaos.CrashFollower(e9Nodes, cfg.Rounds, seed)},
		{"crash proposer", chaos.CrashProposer(e9Nodes, cfg.Rounds, seed)},
		{fmt.Sprintf("loss %.0f%%", e9LossRate*100), chaos.LossSpike(cfg.Rounds, e9LossRate, seed)},
		{"partition + heal", chaos.PartitionAndHeal(e9Nodes, cfg.Rounds, seed)},
	}
	rows := make([]e9Row, 0, len(scenarios))
	for _, sc := range scenarios {
		row, err := e9Scenario(cfg, seed, sc.name, sc.sched)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// verifyE9 holds the availability bar: in every scenario every
// submitted transaction commits and the cluster converges; the baseline
// injects no fault and every other scenario injects some.
func verifyE9(rows []e9Row) error {
	if len(rows) != 5 {
		return fmt.Errorf("experiments: e9: %d rows, want 5 scenarios", len(rows))
	}
	for i, r := range rows {
		if r.Ratio < 1.0 {
			return fmt.Errorf("experiments: e9 %s: committed ratio %.2f (%d/%d)", r.Scenario, r.Ratio, r.Committed, r.Submitted)
		}
		if !r.Consistent {
			return fmt.Errorf("experiments: e9 %s: cluster not consistent after recovery", r.Scenario)
		}
		if (i == 0) != (r.Faults == 0) {
			return fmt.Errorf("experiments: e9 %s: injected %d faults", r.Scenario, r.Faults)
		}
	}
	return nil
}

var e9Columns = []column[e9Row]{
	{"scenario", func(r e9Row) string { return r.Scenario }},
	{"faults", func(r e9Row) string { return fmt.Sprint(r.Faults) }},
	{"committed", func(r e9Row) string { return fmt.Sprintf("%d/%d", r.Committed, r.Submitted) }},
	{"ratio", func(r e9Row) string { return fmt.Sprintf("%.2f", r.Ratio) }},
	{"recovery", func(r e9Row) string { return fmtDur(r.Recovery) }},
	{"consistent", func(r e9Row) string { return fmt.Sprint(r.Consistent) }},
	{"overflow", func(r e9Row) string { return fmt.Sprint(r.Overflow) }},
}

func runE9(size Size, seed int64) ([]Table, error) {
	rows, err := e9Availability(e9Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E9  Availability under faults: crash/partition/loss chaos vs committed-tx ratio and recovery",
		rows, e9Columns)}, verifyE9(rows)
}
