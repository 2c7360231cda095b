package chain_test

import (
	"strings"
	"testing"

	"medchain/internal/chain"
	"medchain/internal/sim"
)

// The sim's adversary runs below flip a mutation seam of this package
// (export_test.go) for the whole run — every honest node of the
// simulated cluster is mutated — and the sim's invariants must fail.

const mutationSeed = 1

// TestSimAdversaryCatchesDisabledVoteVerify is the acceptance mutation
// check: with vote-signature verification disabled at ingest on every
// honest node, the vote-forging adversary poisons the equivocation
// trackers with votes "from" honest validators — and the oracle must
// fail the run (honest nodes framing and quarantining each other,
// and/or the unscored adversary escaping quarantine).
func TestSimAdversaryCatchesDisabledVoteVerify(t *testing.T) {
	defer chain.SetSkipVoteVerify()()
	res, err := sim.Run(sim.Config{Seed: mutationSeed, Rounds: 25, NoFaults: true,
		Adversary: &sim.AdversaryConfig{Behaviors: []sim.Behavior{sim.BehaviorForgeVotes}}})
	if err == nil {
		t.Fatal("disabling vote-signature verification at ingest was not caught")
	}
	if len(res.Violations) == 0 {
		t.Fatalf("failed without a recorded violation: %v", err)
	}
	v := res.Violations[0]
	if !strings.Contains(v, "quarantined honest") && !strings.Contains(v, "never quarantined") {
		t.Fatalf("violation does not name the quarantine failure: %q", v)
	}
}

// TestSimAdversaryMinimizer checks the shrinker: a failing adversarial
// run with Minimize set must come back with a reduced schedule that
// still fails and a replayable repro command.
func TestSimAdversaryMinimizer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer chain.SetSkipVoteVerify()()
	res, err := sim.Run(sim.Config{Seed: mutationSeed, Rounds: 25, NoFaults: true,
		Adversary: &sim.AdversaryConfig{
			// Only forge-votes trips the oracle under the mutation;
			// garbage rides along as the reducible part of the schedule.
			Behaviors: []sim.Behavior{sim.BehaviorForgeVotes, sim.BehaviorGarbage},
			Minimize:  true,
		}})
	if err == nil {
		t.Fatal("mutated run passed")
	}
	cex := res.AdversaryRepro
	if cex == nil {
		t.Fatal("no adversary counterexample produced")
	}
	t.Logf("counterexample:\n%s", cex)
	if len(cex.Behaviors) != 1 || cex.Behaviors[0] != sim.BehaviorForgeVotes {
		t.Fatalf("minimized behaviors %v, want [forge-votes]", cex.Behaviors)
	}
	if cex.Rounds > 25 {
		t.Fatalf("minimizer grew the schedule to %d rounds", cex.Rounds)
	}
	if cex.Violation == "" {
		t.Fatal("counterexample lacks the violation")
	}
	repro := cex.Repro()
	for _, want := range []string{"-sim.seed=1", "-sim.adversary=forge-votes", "TestSimAdversary"} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro %q does not pin %q", repro, want)
		}
	}
}

// TestSimCatchesSkippedRootCheck: with the one comparison of a block's
// executed root against its header disabled — the comparison a vote and
// an accept both go through — honest nodes sign for the adversary's
// wrong-root proposals, and the sim must fail: on the adversary seeing
// an honest vote for one, or on a committed header whose root the serial
// replay does not reach.
func TestSimCatchesSkippedRootCheck(t *testing.T) {
	defer chain.SetSkipRootCheck()()
	res, err := sim.Run(sim.Config{Seed: mutationSeed, Rounds: 25, NoFaults: true,
		Adversary: &sim.AdversaryConfig{Behaviors: []sim.Behavior{sim.BehaviorWrongRoot}, Minimize: true}})
	if err == nil {
		t.Fatal("disabling the state-root comparison was not caught")
	}
	if len(res.Violations) == 0 {
		t.Fatalf("failed without a recorded violation: %v", err)
	}
	v := res.Violations[0]
	if !strings.Contains(v, "wrong-root:") && !strings.Contains(v, "state-root: serial replay of block") {
		t.Fatalf("caught by another invariant: %q", v)
	}
	if cex := res.AdversaryRepro; cex == nil || !strings.Contains(cex.Repro(), "-sim.adversary=wrong-root") {
		t.Fatalf("no replayable counterexample: %+v", cex)
	}
}

// TestSimCatchesShortCertificate: with every node committing the block
// it executed one vote short of 2f+1 — and taking any seal — a loss-free
// run commits blocks whose certificate does not certify them, and the
// sim must fail on the committed seal.
func TestSimCatchesShortCertificate(t *testing.T) {
	defer chain.SetSkipCertQuorum()()
	res, err := sim.Run(sim.Config{Seed: mutationSeed, Rounds: 10, NoFaults: true})
	if err == nil {
		t.Fatal("committing on a short certificate was not caught")
	}
	if len(res.Violations) == 0 {
		t.Fatalf("failed without a recorded violation: %v", err)
	}
	v := res.Violations[0]
	if !strings.Contains(v, "certificate: block") {
		t.Fatalf("caught by another invariant: %q", v)
	}
	t.Logf("caught: %s", v)
}
