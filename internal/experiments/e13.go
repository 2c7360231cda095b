package experiments

import (
	"fmt"
	"time"

	"medchain/internal/sim"
)

// --- E13: Byzantine resilience ---
//
// The paper's architecture federates mutually distrusting hospital
// sites into one consortium chain; its security story therefore rests
// on what happens when a member site is compromised, not just when one
// crashes. E13 measures the peer-guard layer under an active insider:
// the deterministic simulation arms its adversary (the last node's
// validator key handed to a raw wire endpoint) with one behavior at a
// time and compares each run against an honest baseline of the same
// seed and length. Reported per scenario:
//
//   - liveness: blocks committed and transaction throughput while the
//     Byzantine member attacks (the honest quorum must keep serving);
//   - containment: committed blocks from the first offense until every
//     honest node has the attacker quarantined, plus how many of its
//     messages ingress discarded outright;
//   - accountability: equivocation-evidence records landed on chain by
//     the audit contract (equivocation scenarios only);
//   - cost: delivered-message amplification over the honest baseline —
//     what the attack added to the gossip fabric before quarantine cut
//     it off.
//
// Runs are loss-free (NoFaults) so every metric is a pure function of
// the seed; TestSimAdversaryUnderChaos covers the layered-faults case.

// e13Rounds is the per-scenario run length.
var e13Rounds = [...]int{Full: 200, Quick: 40}

// e13Row is one scenario (honest baseline or a single adversary
// behavior) of the resilience comparison.
type e13Row struct {
	// Scenario is "baseline" or the behavior name.
	Scenario string
	// Blocks and Txs are the committed totals; FailedRounds counts
	// commit rounds that produced nothing.
	Blocks, Txs, FailedRounds int
	// Offenses is how many attack bursts fired; MutedRounds how many
	// rounds quarantine kept the adversary silent.
	Offenses, MutedRounds int
	// QuarantineBlocks is the containment latency in committed blocks
	// (-1: no adversary / never fully quarantined).
	QuarantineBlocks int
	// Evidence counts equivocation records the audit contract holds.
	Evidence int
	// Delivered and Quarantined are network totals: messages placed in
	// inboxes and messages ingress discarded from quarantined peers.
	Delivered, Quarantined int64
	// Amplification is Delivered over the baseline's Delivered.
	Amplification float64
	// Elapsed is the run wall time; TPS the committed-tx throughput.
	Elapsed time.Duration
	TPS     float64
}

// e13Resilience runs the honest baseline and one run per adversary
// behavior, all on the same seed and round count.
func e13Resilience(rounds int, seed int64) ([]e13Row, error) {
	row := func(scenario string, acfg *sim.AdversaryConfig) (e13Row, error) {
		start := time.Now()
		res, err := sim.Run(sim.Config{
			Seed: seed, Rounds: rounds, NoFaults: true, Adversary: acfg,
		})
		if err != nil {
			return e13Row{}, fmt.Errorf("experiments: e13 %s: %w", scenario, err)
		}
		elapsed := time.Since(start)
		offenses := 0
		for _, n := range res.AdversaryOffenses {
			offenses += n
		}
		r := e13Row{
			Scenario: scenario,
			Blocks:   res.Blocks, Txs: res.Txs, FailedRounds: res.FailedRounds,
			Offenses: offenses, MutedRounds: res.AdversaryMutedRounds,
			QuarantineBlocks: res.QuarantineBlocks,
			Evidence:         res.EvidenceRecords,
			Delivered:        res.MessagesDelivered,
			Quarantined:      res.MessagesQuarantined,
			Elapsed:          elapsed,
		}
		if elapsed > 0 {
			r.TPS = float64(res.Txs) / elapsed.Seconds()
		}
		return r, nil
	}

	baseline, err := row("baseline", nil)
	if err != nil {
		return nil, err
	}
	rows := []e13Row{baseline}
	for _, b := range sim.AllBehaviors() {
		r, err := row(string(b), &sim.AdversaryConfig{Behaviors: []sim.Behavior{b}})
		if err != nil {
			return nil, err
		}
		if baseline.Delivered > 0 {
			r.Amplification = float64(r.Delivered) / float64(baseline.Delivered)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// verifyE13 enforces the resilience acceptance bars on a finished
// comparison: the baseline is clean (no evidence, nothing
// quarantined), and every adversarial scenario kept committing, was
// contained within the simulation's latency bound, had its traffic
// discarded at ingress, and — for the equivocation scenario — produced
// on-chain evidence.
func verifyE13(rows []e13Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: e13 produced no rows")
	}
	for _, r := range rows {
		if r.Scenario == "baseline" {
			if r.Evidence != 0 || r.Quarantined != 0 {
				return fmt.Errorf("experiments: e13 baseline not clean: evidence=%d quarantined=%d", r.Evidence, r.Quarantined)
			}
			continue
		}
		if r.Blocks == 0 {
			return fmt.Errorf("experiments: e13 %s: no blocks committed", r.Scenario)
		}
		if r.Offenses == 0 {
			return fmt.Errorf("experiments: e13 %s: adversary never acted", r.Scenario)
		}
		if r.QuarantineBlocks < 0 || r.QuarantineBlocks > sim.AdversaryQuarantineBound {
			return fmt.Errorf("experiments: e13 %s: quarantine latency %d blocks outside [0, %d]",
				r.Scenario, r.QuarantineBlocks, sim.AdversaryQuarantineBound)
		}
		if r.Quarantined == 0 {
			return fmt.Errorf("experiments: e13 %s: ingress never discarded quarantined traffic", r.Scenario)
		}
		if r.Scenario == string(sim.BehaviorEquivocate) && r.Evidence == 0 {
			return fmt.Errorf("experiments: e13 %s: no equivocation evidence reached the chain", r.Scenario)
		}
	}
	return nil
}

var e13Columns = []column[e13Row]{
	{"scenario", func(r e13Row) string { return r.Scenario }},
	{"blocks", func(r e13Row) string { return fmt.Sprint(r.Blocks) }},
	{"txs", func(r e13Row) string { return fmt.Sprint(r.Txs) }},
	{"failedRounds", func(r e13Row) string { return fmt.Sprint(r.FailedRounds) }},
	{"offenses", func(r e13Row) string { return fmt.Sprint(r.Offenses) }},
	{"muted", func(r e13Row) string { return fmt.Sprint(r.MutedRounds) }},
	{"quarantineBlks", func(r e13Row) string {
		if r.QuarantineBlocks < 0 {
			return "-"
		}
		return fmt.Sprint(r.QuarantineBlocks)
	}},
	{"evidence", func(r e13Row) string { return fmt.Sprint(r.Evidence) }},
	{"dropped", func(r e13Row) string { return fmt.Sprint(r.Quarantined) }},
	{"msgAmp", func(r e13Row) string {
		if r.Amplification <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", r.Amplification)
	}},
	{"elapsed", func(r e13Row) string { return fmtDur(r.Elapsed) }},
	{"tps", func(r e13Row) string { return fmt.Sprintf("%.0f", r.TPS) }},
}

func runE13(size Size, seed int64) ([]Table, error) {
	rows, err := e13Resilience(e13Rounds[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E13 Byzantine resilience: honest baseline vs one compromised validator per behavior (same seed/rounds)",
		rows, e13Columns)}, verifyE13(rows)
}
