package sim

import (
	"flag"
	"strings"
	"testing"
	"time"

	"medchain/internal/contract"
	"medchain/internal/ledger"
)

// The simulation is replayed, not re-randomized: `go test
// ./internal/sim -run 'TestSim$' -sim.seed=N -sim.rounds=M` re-executes
// the exact run a counterexample names.
var (
	flagSeed      = flag.Int64("sim.seed", 1, "master seed for the deterministic simulation")
	flagRounds    = flag.Int("sim.rounds", 240, "fuzz/commit rounds for the deterministic simulation")
	flagAdversary = flag.String("sim.adversary", "", "comma-separated adversary behaviors; puts TestSimAdversary in replay mode for a shrunken schedule")
)

// TestSim is the bounded default gate: a full cluster fuzzed for
// -sim.rounds rounds with chaos faults enabled, every block checked
// against every invariant and differential executor.
func TestSim(t *testing.T) {
	res, err := Run(Config{Seed: *flagSeed, Rounds: *flagRounds})
	if res != nil {
		t.Logf("sim seed=%d rounds=%d: blocks=%d txs=%d failedTxs=%d failedRounds=%d checks=%d offchainRuns=%d gas=%d faults=%d",
			res.Seed, res.Rounds, res.Blocks, res.Txs, res.FailedTxs, res.FailedRounds, res.Checks, res.OffchainRuns, res.GasUsed, len(res.FaultLog))
	}
	if err != nil {
		if res != nil && res.Counterexample != nil {
			t.Fatalf("sim failed: %v\ncounterexample:\n%s", err, res.Counterexample)
		}
		t.Fatalf("sim failed: %v", err)
	}
	// The run must be substantive, not vacuous: most rounds commit a
	// block even with faults injected, and the fuzzer exercises the
	// error paths (some receipts must carry domain errors).
	if min := *flagRounds * 5 / 6; res.Blocks < min {
		t.Fatalf("committed %d blocks, want >= %d of %d rounds", res.Blocks, min, *flagRounds)
	}
	if res.Txs < res.Blocks {
		t.Fatalf("only %d txs across %d blocks", res.Txs, res.Blocks)
	}
	if res.FailedTxs == 0 {
		t.Fatal("fuzzer produced no failing transactions; malformed/denial paths not exercised")
	}
	if res.Checks == 0 {
		t.Fatal("no invariant checks ran")
	}
	if len(res.FaultLog) == 0 {
		t.Fatal("chaos schedule injected no faults")
	}
	if res.OffchainRuns == 0 {
		t.Fatal("no offchain analytics runs were cross-checked")
	}
}

// TestSimFaultScheduleDeterministic verifies the replayability
// contract for the chaos side: the injected-fault signature is a pure
// function of the seed.
func TestSimFaultScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Rounds: 60}
	a, errA := Run(cfg)
	b, errB := Run(cfg)
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v / %v", errA, errB)
	}
	if len(a.FaultLog) != len(b.FaultLog) {
		t.Fatalf("fault log length differs: %d vs %d", len(a.FaultLog), len(b.FaultLog))
	}
	for i := range a.FaultLog {
		if a.FaultLog[i] != b.FaultLog[i] {
			t.Fatalf("fault log diverges at %d: %q vs %q", i, a.FaultLog[i], b.FaultLog[i])
		}
	}
}

// brokenExecutor is the mutation under test: a parallel engine whose
// conflict detection has been deleted. Every transaction is speculated
// against the pre-block snapshot and its receipt committed as-is —
// intra-block dependencies (a grant consumed later in the same block, a
// duplicate registration, a revoke racing a request) are silently
// lost. The harness must catch it and shrink a counterexample.
type brokenExecutor struct{}

func (brokenExecutor) Name() string { return "parallel-noconflict" }

func (brokenExecutor) Execute(st *contract.State, txs []*ledger.Transaction, height uint64, now int64) ([]*contract.Receipt, error) {
	pre := st.Clone()
	receipts := make([]*contract.Receipt, 0, len(txs))
	for _, tx := range txs {
		// Speculate on the stale pre-block snapshot…
		snap := pre.Clone()
		r, err := snap.Apply(tx, height, now)
		if err != nil {
			return receipts, err
		}
		receipts = append(receipts, r)
		// …and "commit" without re-validating against txs that landed
		// earlier in the block.
		if _, err := st.Apply(tx, height, now); err != nil {
			return receipts, err
		}
	}
	return receipts, nil
}

// mutationCase drives one deliberately broken executor through the sim
// differential oracle: it must be caught with a minimized,
// seed-reproducible counterexample blaming it by name, and a replay of
// the same seed must shrink to the identical counterexample.
func mutationCase(t *testing.T, suspect Executor) {
	t.Helper()
	cfg := Config{
		Seed:      42,
		Rounds:    80,
		NoFaults:  true, // deterministic block packing => identical counterexample per seed
		Executors: []Executor{suspect},
	}
	run := func() *Counterexample {
		res, err := Run(cfg)
		if err == nil {
			t.Fatalf("mutated executor %s was not caught", suspect.Name())
		}
		if res.Counterexample == nil {
			t.Fatalf("failed without a counterexample: %v", err)
		}
		return res.Counterexample
	}
	cex := run()
	t.Logf("counterexample:\n%s", cex)
	if cex.Executor != suspect.Name() {
		t.Fatalf("blamed executor %q, want %q", cex.Executor, suspect.Name())
	}
	if len(cex.Minimized) == 0 || len(cex.Minimized) > len(cex.BlockTxs) {
		t.Fatalf("bad minimization: %d of %d txs", len(cex.Minimized), len(cex.BlockTxs))
	}
	if !strings.Contains(cex.Repro(), "-sim.seed=42") || !strings.Contains(cex.Repro(), "-sim.rounds=80") {
		t.Fatalf("repro command does not pin seed/rounds: %s", cex.Repro())
	}
	// Seed-reproducible: the replay finds the same divergence at the
	// same height and shrinks it to the same transactions.
	again := run()
	if again.Height != cex.Height {
		t.Fatalf("replay diverged at height %d, first run at %d", again.Height, cex.Height)
	}
	if len(again.Minimized) != len(cex.Minimized) {
		t.Fatalf("replay minimized to %d txs, first run to %d", len(again.Minimized), len(cex.Minimized))
	}
	for i := range cex.Minimized {
		if again.Minimized[i] != cex.Minimized[i] {
			t.Fatalf("replay counterexample differs at tx %d:\n  first:  %s\n  replay: %s", i, cex.Minimized[i], again.Minimized[i])
		}
	}
}

// TestSimCatchesConflictBug is the mutation test from the acceptance
// criteria: with conflict detection deliberately broken, the
// differential oracle must fail with a minimized, seed-reproducible
// counterexample — and reproduce the identical counterexample when the
// same seed is replayed.
func TestSimCatchesConflictBug(t *testing.T) {
	mutationCase(t, brokenExecutor{})
}

// TestSimDifferentialOracle is the MVCC acceptance gate: a NoFaults run
// (deterministic block packing) of at least 500 fuzz rounds where
// every committed block is replayed serial vs mvcc-wave at two and
// eight workers, the live cluster itself mixes serial and mvcc-wave
// nodes, and zero divergences are tolerated.
func TestSimDifferentialOracle(t *testing.T) {
	rounds := 500
	if *flagRounds > rounds {
		rounds = *flagRounds
	}
	res, err := Run(Config{Seed: *flagSeed, Rounds: rounds, NoFaults: true})
	if res != nil {
		t.Logf("differential oracle seed=%d rounds=%d: blocks=%d txs=%d checks=%d",
			res.Seed, res.Rounds, res.Blocks, res.Txs, res.Checks)
	}
	if err != nil {
		if res != nil && res.Counterexample != nil {
			t.Fatalf("differential oracle failed: %v\ncounterexample:\n%s", err, res.Counterexample)
		}
		t.Fatalf("differential oracle failed: %v", err)
	}
	if res.Blocks < rounds*5/6 {
		t.Fatalf("committed %d blocks, want >= %d of %d rounds", res.Blocks, rounds*5/6, rounds)
	}
	if res.Checks == 0 {
		t.Fatal("no invariant checks ran")
	}
}

// TestSimNoFaultsDeterministic pins the strongest replay guarantee the
// harness offers: with faults disabled, two runs of the same seed
// commit byte-identical chains (same gas, same block/tx counts). The
// honest cluster also frames nobody: no evidence, no quarantined
// traffic.
func TestSimNoFaultsDeterministic(t *testing.T) {
	cfg := Config{Seed: 3, Rounds: 50, NoFaults: true}
	a, errA := Run(cfg)
	b, errB := Run(cfg)
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v / %v", errA, errB)
	}
	if a.Blocks != b.Blocks || a.Txs != b.Txs || a.FailedTxs != b.FailedTxs || a.GasUsed != b.GasUsed {
		t.Fatalf("replay drifted: blocks %d/%d txs %d/%d failed %d/%d gas %d/%d",
			a.Blocks, b.Blocks, a.Txs, b.Txs, a.FailedTxs, b.FailedTxs, a.GasUsed, b.GasUsed)
	}
	for _, r := range []*Result{a, b} {
		if r.EvidenceRecords != 0 || r.MessagesQuarantined != 0 {
			t.Fatalf("honest cluster framed a member: evidence=%d quarantined=%d", r.EvidenceRecords, r.MessagesQuarantined)
		}
	}
}

// TestSimPersist is the disk-recovery gate: every node's WAL/snapshot
// engine lives on its own seeded fault disk, and on a fixed cadence a
// node is torn down mid-block-write (power loss or bare process kill)
// and recovered from its durable bytes alone — the recovered block
// hashes, state root, and receipt log must be bit-identical to the
// live quorum's committed prefix every time, and the node must rejoin
// through a second live recovery.
func TestSimPersist(t *testing.T) {
	for _, seed := range []int64{*flagSeed, *flagSeed + 1} {
		res, err := Run(Config{Seed: seed, Rounds: 80, Persist: true})
		if res != nil {
			t.Logf("persist sim seed=%d: blocks=%d txs=%d diskRecoveries=%d replayedBlocks=%d tornBytes=%d",
				res.Seed, res.Blocks, res.Txs, res.DiskRecoveries, res.DiskReplayedBlocks, res.DiskTornBytes)
		}
		if err != nil {
			t.Fatalf("persist sim seed=%d failed: %v", seed, err)
		}
		if res.DiskRecoveries == 0 {
			t.Fatalf("seed=%d: disk-recovery invariant never ran", seed)
		}
		if res.DiskReplayedBlocks == 0 {
			t.Fatalf("seed=%d: no recovery replayed any WAL blocks; the invariant is vacuous", seed)
		}
	}
}

// TestSimOverload is the overload-resilience gate from the acceptance
// criteria: a 10x seeded flood (burst identities + a greedy bulk
// client) against a deliberately tiny, admission-controlled serving
// edge, with slow-drain chaos windows. The run itself enforces the
// invariants — pools within capacity at every observation, no
// committed tx past its TTL, shed honest traffic retried to commit,
// probe latency within the fairness bound, every flood and greedy
// rejection one of the chain's typed errors; the assertions below make
// sure the flood was substantive rather than vacuously green.
func TestSimOverload(t *testing.T) {
	// Scales with -sim.rounds (the nightly soak passes 10k), floored at
	// 60 so the substantive-flood assertions below stay meaningful even
	// on a shrunken replay run.
	rounds := 60
	if *flagRounds > rounds {
		rounds = *flagRounds
	}
	res, err := Run(Config{Seed: *flagSeed, Rounds: rounds, Overload: &OverloadConfig{}})
	if res != nil {
		t.Logf("overload sim seed=%d: blocks=%d txs=%d offered=%d shed=%d requeued=%d expired=%d probes=%d maxProbeLatency=%d peakPool=%d",
			res.Seed, res.Blocks, res.Txs, res.OverloadOffered, res.OverloadShed, res.OverloadRequeued,
			res.OverloadExpired, res.ProbeTxs, res.ProbeMaxLatency, res.PeakMempool)
	}
	if err != nil {
		t.Fatalf("overload sim failed: %v", err)
	}
	if res.OverloadOffered == 0 {
		t.Fatal("no flood traffic was offered")
	}
	if res.OverloadShed == 0 {
		t.Fatal("flood was never shed: the cluster is not actually overloaded")
	}
	if res.OverloadExpired == 0 {
		t.Fatal("no pool-resident tx died at its TTL: deadline propagation unexercised")
	}
	if res.ProbeTxs == 0 {
		t.Fatal("no probe transactions committed")
	}
	if res.PeakMempool == 0 {
		t.Fatal("pools never filled: flood did not reach the mempool")
	}
}

// TestSimIndexer is the off-chain data-plane gate: the fuzz stream
// anchors fresh blobs (plus forged roots, non-owner attempts, and
// never-persisted blobs) while the checker tails the committed event
// stream into an EMR index. The run itself enforces the invariants —
// a full-replay rebuild bit-identical to the tailed index, and index
// query answers equal to a direct decode-and-scan of every fetchable
// anchored blob; the assertions below make sure the anchor fuzzing was
// substantive rather than vacuously green.
func TestSimIndexer(t *testing.T) {
	res, err := Run(Config{Seed: *flagSeed, Rounds: *flagRounds})
	if res != nil {
		t.Logf("indexer sim seed=%d: blocks=%d txs=%d indexedDocs=%d indexSkipped=%d",
			res.Seed, res.Blocks, res.Txs, res.IndexedDocs, res.IndexSkipped)
	}
	if err != nil {
		t.Fatalf("indexer sim failed: %v", err)
	}
	// 40 docs come from the two sites' setup anchors; fuzzed anchors
	// must have grown the corpus past them.
	if res.IndexedDocs <= 40 {
		t.Fatalf("only %d docs indexed; fuzzed anchors never landed", res.IndexedDocs)
	}
	if res.IndexSkipped == 0 {
		t.Fatal("no entry was skipped: the missing-blob anchor mode never fired")
	}
}

// TestSimRejectsTinyCluster covers the config guard.
func TestSimRejectsTinyCluster(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Nodes: 2, Rounds: 10}); err == nil {
		t.Fatal("expected error for 2-node cluster")
	}
}

// TestSubSeedStable pins the seed-derivation lineage: sub-seeds are
// stable per (master, label) and independent across labels.
func TestSubSeedStable(t *testing.T) {
	if subSeed(1, "p2p") != subSeed(1, "p2p") {
		t.Fatal("subSeed not stable")
	}
	if subSeed(1, "p2p") == subSeed(1, "chaos") {
		t.Fatal("labels collide")
	}
	if subSeed(1, "p2p") == subSeed(2, "p2p") {
		t.Fatal("masters collide")
	}
}

// parseBehaviors turns the -sim.adversary flag value into a schedule.
func parseBehaviors(s string) []Behavior {
	var out []Behavior
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, Behavior(f))
		}
	}
	return out
}

// logAdversary prints the adversarial run's metrics.
func logAdversary(t *testing.T, res *Result) {
	t.Helper()
	if res == nil {
		return
	}
	t.Logf("adversary sim seed=%d rounds=%d: blocks=%d offenses=%v muted=%d quarantineBlocks=%d dropped=%d evidence=%d/%d expected",
		res.Seed, res.Rounds, res.Blocks, res.AdversaryOffenses, res.AdversaryMutedRounds,
		res.QuarantineBlocks, res.MessagesQuarantined, res.EvidenceRecords, res.EvidenceExpected)
}

// TestSimAdversary is the Byzantine gate: the last node's validator key
// is handed to an adversarial endpoint and the cluster must keep
// committing, quarantine it within the latency bound, discard its
// traffic at ingress, land verified evidence for every equivocation,
// and never turn on its own honest members. Each behavior soaks alone
// for 250 loss-free rounds, then all behaviors interleave for 300;
// -sim.rounds above 250 raises both (x and 1.2x), and the nightly
// sim-soak adversary leg keeps the depth at 10 000 rounds. Every
// assertion below was checked non-vacuous at 250/300 on seeds 1-3.
// With -sim.adversary=<b1,b2,...> the test instead replays exactly the
// flagged schedule (the mode AdversaryCounterexample.Repro pins).
func TestSimAdversary(t *testing.T) {
	if bs := parseBehaviors(*flagAdversary); len(bs) > 0 {
		res, err := Run(Config{Seed: *flagSeed, Rounds: *flagRounds, NoFaults: true,
			Adversary: &AdversaryConfig{Behaviors: bs}})
		logAdversary(t, res)
		if err != nil {
			t.Fatalf("replayed adversary schedule %v failed: %v", bs, err)
		}
		return
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	rounds := 250
	if *flagRounds > rounds {
		rounds = *flagRounds
	}
	for _, b := range AllBehaviors() {
		b := b
		t.Run(string(b), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: *flagSeed, Rounds: rounds, NoFaults: true,
				Adversary: &AdversaryConfig{Behaviors: []Behavior{b}}})
			logAdversary(t, res)
			if err != nil {
				t.Fatalf("adversary sim failed: %v", err)
			}
			if res.AdversaryOffenses[b] == 0 {
				t.Fatalf("behavior %s never fired", b)
			}
			// Liveness despite the Byzantine member: the honest quorum
			// keeps committing most rounds.
			if res.Blocks < res.Rounds/2 {
				t.Fatalf("only %d blocks over %d rounds with an adversary", res.Blocks, res.Rounds)
			}
			if res.QuarantineBlocks < 0 || res.QuarantineBlocks > AdversaryQuarantineBound {
				t.Fatalf("quarantine latency %d blocks, want [0, %d]", res.QuarantineBlocks, AdversaryQuarantineBound)
			}
			if res.MessagesQuarantined == 0 {
				t.Fatal("ingress never discarded the quarantined peer's traffic")
			}
			// The short decay half-life must produce release/re-offense
			// cycles, not a single one-shot quarantine.
			if res.AdversaryMutedRounds == 0 {
				t.Fatal("adversary was never muted by quarantine")
			}
			if b == BehaviorEquivocate {
				if res.EvidenceExpected == 0 {
					t.Fatal("equivocation run expected no evidence; the invariant is vacuous")
				}
				if res.EvidenceRecords == 0 {
					t.Fatal("no equivocation evidence reached the audit contract")
				}
			}
		})
	}
	t.Run("combined", func(t *testing.T) {
		t.Parallel()
		res, err := Run(Config{Seed: *flagSeed + 1, Rounds: rounds * 6 / 5, NoFaults: true,
			Adversary: &AdversaryConfig{}})
		logAdversary(t, res)
		if err != nil {
			t.Fatalf("combined adversary sim failed: %v", err)
		}
		for _, b := range AllBehaviors() {
			if res.AdversaryOffenses[b] == 0 {
				t.Errorf("behavior %s never fired in the combined run", b)
			}
		}
		if res.Blocks < res.Rounds/2 {
			t.Fatalf("only %d blocks over %d rounds", res.Blocks, res.Rounds)
		}
		if res.QuarantineBlocks < 0 || res.QuarantineBlocks > AdversaryQuarantineBound {
			t.Fatalf("quarantine latency %d blocks, want [0, %d]", res.QuarantineBlocks, AdversaryQuarantineBound)
		}
		if res.EvidenceExpected == 0 || res.EvidenceRecords == 0 {
			t.Fatalf("evidence pipeline vacuous: expected=%d records=%d", res.EvidenceExpected, res.EvidenceRecords)
		}
	})
}

// TestSimAdversaryUnderChaos layers the Byzantine node on top of the
// usual fault schedule (crashes, partitions, message loss among the
// honest members). The bar is looser than the loss-free gate —
// simultaneous all-honest quarantine is timing-dependent when a node
// can be crashed through an offense burst — but every honest-side
// invariant and the evidence no-framing rule still hold.
func TestSimAdversaryUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(Config{Seed: *flagSeed, Rounds: 150, Adversary: &AdversaryConfig{}})
	logAdversary(t, res)
	if err != nil {
		t.Fatalf("adversary sim under chaos failed: %v", err)
	}
	if res.Blocks == 0 {
		t.Fatal("no blocks committed")
	}
	total := 0
	for _, n := range res.AdversaryOffenses {
		total += n
	}
	if total == 0 {
		t.Fatal("adversary never acted")
	}
}

// Guard against pathological wall-clock growth in the default gate —
// the bounded sim must stay a unit test, not a soak.
func TestSimBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	start := time.Now()
	if _, err := Run(Config{Seed: 11, Rounds: 30}); err != nil {
		t.Fatalf("sim failed: %v", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("30-round sim took %v", d)
	}
}
