// Package sim is the deterministic simulation testing (DST) harness —
// FoundationDB-style whole-system fuzzing of a medchain cluster from a
// single seed.
//
// One Run drives consensus, chain apply (mixed serial and parallel
// execution engines per node), the p2p link model, chaos fault
// injection, and the offchain analytics runner together:
//
//   - a seeded workload fuzzer (fuzzer.go) generates admissible and
//     deliberately malformed transactions across every contract
//     method, submitted through the normal gossip path;
//   - a seeded chaos schedule (chaos.Fuzz) injects crashes, restarts,
//     partitions, loss, latency, and slow nodes between commit rounds;
//   - after every committed block, invariant checkers (invariants.go)
//     re-validate the ledger, replay the block through serial and
//     parallel differential executors (diff.go), and check state-root
//     agreement, receipt/event equality, gas conservation, consent
//     monotonicity, and offchain determinism;
//   - a divergence is shrunk to a minimized, seed-reproducible
//     Counterexample whose Repro() names the exact `go test`
//     invocation that replays the run.
//
// Seed lineage: everything random flows from Config.Seed through
// subSeed — the fuzzer's *rand.Rand, the chaos schedule generator, the
// p2p loss/jitter RNG, the synthetic EMR cohorts, and the node key
// derivation. Audit notes for the replayability contract: chaos
// generators and p2p take explicit seeds (no global rand); backoff
// jitter in resilience is seeded per Backoff; the offchain runner's
// only wall-clock read is TaskResult.Elapsed, which is observational
// and excluded from every comparison; block timestamps are logical
// (genesis 0, +1 per block), and fuzzed transaction timestamps come
// from a logical counter. Goroutine scheduling and real-time fault
// windows still vary run to run, so block *packing* can differ under
// faults; with NoFaults the harness waits for mempool convergence
// before each commit, making block contents — and therefore
// counterexamples — exactly reproducible from the seed.
package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"medchain/internal/chain"
	"medchain/internal/chaos"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/parexec"
)

// subSeed derives an independent, stable sub-seed from the master seed
// and a label, so each randomness consumer gets its own stream without
// cross-contamination (adding a draw in one consumer cannot shift
// another's sequence).
func subSeed(master int64, label string) int64 {
	var m [8]byte
	binary.LittleEndian.PutUint64(m[:], uint64(master))
	d := cryptoutil.SumAll([]byte("medchain/sim"), m[:], []byte(label))
	return int64(binary.LittleEndian.Uint64(d[:8]))
}

// Config parameterizes one simulation run. The zero value plus a Seed
// is a sensible bounded run (~2s): 4 quorum nodes (3-of-4, so one
// crash or partition is survivable), ~240 fuzzed rounds, faults on.
type Config struct {
	// Seed is the master seed; every random choice derives from it.
	Seed int64
	// Nodes is the cluster size (default 4; >= 3 required).
	Nodes int
	// Rounds is the number of fuzz/commit rounds (default 240).
	Rounds int
	// MinTxs/MaxTxs bound the per-round batch size (default 3..8).
	MinTxs, MaxTxs int
	// Actors is the number of fuzzed identities (default 5).
	Actors int
	// CommitTimeout bounds one commit round (default 800ms).
	CommitTimeout time.Duration
	// NoFaults disables chaos injection; the network is then loss-free
	// and the harness waits for mempool convergence before every
	// commit, making block contents deterministic per seed.
	NoFaults bool
	// Workers is the per-node worker pattern (index i mod len): 0 =
	// serial execution, otherwise mvcc-wave with that pool size. The
	// default {0, 2, 8, 4} makes consensus itself a live cross-engine
	// differential oracle: serial and mvcc-wave nodes must still agree
	// on every state root.
	Workers []int
	// Executors are the differential suspects replayed against the
	// serial reference after every block (default DefaultExecutors:
	// mvcc-wave at w2 and w8).
	Executors []Executor
	// OffchainBatch flushes the offchain determinism check every N
	// collected run authorizations (default 32).
	OffchainBatch int
	// MaxOffchainRuns caps total offchain executions (default 400).
	MaxOffchainRuns int
	// Persist makes every node disk-backed on its own fault-injected
	// in-memory filesystem (seeded from Seed) and enables the
	// disk-recovery invariant: on a fixed cadence a node's disk is torn
	// mid-block-write, the node is power-lossed or process-killed, its
	// durable bytes are recovered out-of-band, and the recovered state
	// root and receipt log must be bit-identical to the live quorum's
	// committed prefix before the node restarts through the same path.
	Persist bool
	// DiskCrashEvery is the disk crash/recover cycle length in rounds
	// (default 20 when Persist is set).
	DiskCrashEvery int
	// DiskSyncEvery is the nodes' WAL group-commit batch (default 2, so
	// recovery actually exercises a non-trivial durability window).
	DiskSyncEvery int
	// DiskSnapshotEvery is the nodes' snapshot cadence in blocks
	// (default 8).
	DiskSnapshotEvery int
	// Adversary, when set, turns the last node Byzantine: the node is
	// stopped and its validator key handed to an adversarial endpoint
	// driven by a seeded behavior schedule (see AdversaryConfig). The
	// run then also checks the Byzantine-resilience invariants: honest
	// nodes never quarantine each other, consensus buffers stay bounded
	// under spam, every loss-free equivocation lands on chain as
	// verified evidence naming the adversary, and the adversary is
	// quarantined by every honest node within a bounded number of
	// blocks of its first offense.
	Adversary *AdversaryConfig
	// Overload, when set, constrains the cluster (small bounded
	// mempools, small blocks) and drives a sustained flood — burst
	// identities, a greedy bulk client, honest low-rate probes —
	// against the admission-controlled serving edge (see
	// OverloadConfig). The run then also checks the overload
	// invariants: every pool stays within capacity at every
	// observation point, no committed transaction ever outlived its
	// TTL, honest fuzz traffic shed with a typed backpressure reason
	// is retried to commit rather than lost, and every probe commits
	// within a fixed block-latency bound despite the flood. The chaos
	// schedule is restricted to slow-drain windows (no crashes or
	// partitions) so those bounds stay meaningful.
	Overload *OverloadConfig
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 240
	}
	if c.MinTxs == 0 {
		c.MinTxs = 3
	}
	if c.MaxTxs < c.MinTxs {
		c.MaxTxs = c.MinTxs + 5
	}
	if c.Actors == 0 {
		c.Actors = 5
	}
	if c.CommitTimeout == 0 {
		c.CommitTimeout = 200 * time.Millisecond
	}
	if c.Workers == nil {
		c.Workers = []int{0, 2, 8, 4}
	}
	if c.Executors == nil {
		c.Executors = DefaultExecutors()
	}
	if c.OffchainBatch == 0 {
		c.OffchainBatch = 32
	}
	if c.MaxOffchainRuns == 0 {
		c.MaxOffchainRuns = 400
	}
	if c.Overload != nil {
		o := c.Overload.withDefaults()
		c.Overload = &o
	}
	if c.Persist {
		if c.DiskCrashEvery == 0 {
			c.DiskCrashEvery = 20
		}
		if c.DiskSyncEvery == 0 {
			c.DiskSyncEvery = 2
		}
		if c.DiskSnapshotEvery == 0 {
			c.DiskSnapshotEvery = 8
		}
	}
	return c
}

// Result summarizes one run.
type Result struct {
	// Seed and Rounds echo the config (the reproduction handle).
	Seed   int64
	Rounds int
	// Blocks is the number of committed blocks processed; Txs the
	// fuzzed transactions committed inside them.
	Blocks int
	Txs    int
	// FailedTxs counts transactions whose receipts carry a domain
	// error (denials, duplicates, malformed args) — expected under
	// fuzzing, and required to match bit-for-bit across nodes and
	// executors.
	FailedTxs int
	// FailedRounds counts commit rounds that produced no block (e.g.
	// proposer crashed mid-round); their transactions commit later.
	FailedRounds int
	// Checks is the number of invariant evaluations performed.
	Checks int
	// OffchainRuns is the number of authorized analytics executions
	// cross-checked across worker counts.
	OffchainRuns int
	// GasUsed is the serial reference's cumulative gas.
	GasUsed int64
	// DiskRecoveries counts disk-recovery invariant evaluations on a
	// persistent run; DiskReplayedBlocks and DiskTornBytes aggregate
	// the WAL blocks replayed and torn tail bytes truncated across
	// them.
	DiskRecoveries     int
	DiskReplayedBlocks int
	DiskTornBytes      int64
	// FaultLog is the injected-fault signature (a pure function of the
	// seed — identical across replays).
	FaultLog []string
	// Adversary metrics (set only when Config.Adversary is): offense
	// bursts fired per behavior, rounds the adversary spent muted by
	// quarantine, committed blocks from first offense until every
	// honest node had it quarantined (-1: never), and equivocations
	// the strict-mode ledger expected on chain.
	AdversaryOffenses    map[Behavior]int
	AdversaryMutedRounds int
	QuarantineBlocks     int
	EvidenceExpected     int
	// EvidenceRecords is the evidence the audit contract finished
	// with, and MessagesQuarantined the messages ingress discarded
	// because the sender was quarantined; an honest run has neither.
	EvidenceRecords     int
	MessagesQuarantined int64
	// Overload metrics (set only when Config.Overload is): flood and
	// greedy transactions offered, typed backpressure rejections
	// observed at submit, honest fuzz transactions that were shed and
	// requeued, pool-resident transactions that died at their TTL
	// (summed over nodes), probe transactions committed with their
	// worst block latency, and the highest occupancy any pool reached.
	OverloadOffered  int64
	OverloadShed     int64
	OverloadRequeued int64
	OverloadExpired  int64
	ProbeTxs         int
	ProbeMaxLatency  int
	PeakMempool      int
	// IndexedDocs / IndexSkipped are the chain-tailing EMR indexer's
	// totals: documents indexed from anchored manifests, and entries
	// skipped with a counted reason (missing blob, root mismatch,
	// undecodable bytes).
	IndexedDocs  int
	IndexSkipped int
	// Violations are the invariant failures (empty on a green run).
	Violations []string
	// Counterexample is the minimized differential-oracle failure, if
	// one was found.
	Counterexample *Counterexample
	// AdversaryRepro is the minimized adversarial schedule that still
	// fails (Config.Adversary.Minimize only).
	AdversaryRepro *AdversaryCounterexample
}

// Run executes one seeded simulation. The returned error is non-nil
// iff the harness itself failed to run or any invariant was violated;
// Result carries the details either way.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Seed: cfg.Seed, Rounds: cfg.Rounds}
	if cfg.Nodes < 3 {
		return res, fmt.Errorf("sim: need >= 3 nodes, got %d", cfg.Nodes)
	}

	const chainID = "medchain"
	var disks *diskChaos
	ccfg := chain.ClusterConfig{
		Nodes:         cfg.Nodes,
		ChainID:       chainID,
		CommitTimeout: cfg.CommitTimeout,
		KeySeed:       fmt.Sprintf("sim-%d", cfg.Seed),
		Network:       p2p.Config{Seed: subSeed(cfg.Seed, "p2p")},
	}
	if cfg.Persist {
		disks = newDiskChaos(cfg, chainID)
		ccfg.Persist = disks.persistConfig()
	}
	if cfg.Overload != nil {
		// Constrain the serving edge so the flood is a large multiple
		// of drain capacity: small bounded pools, small blocks. The
		// nodes' admission controller does the class-based shedding.
		ccfg.MaxBlockTxs = cfg.Overload.MaxBlockTxs
		ccfg.Mempool = &chain.MempoolConfig{Capacity: cfg.Overload.PoolCapacity}
	}
	if cfg.Adversary != nil {
		// Shorten guard decay so quarantine release — and renewed
		// offending — cycles inside one bounded run.
		ccfg.Guard = adversaryGuardConfig()
	}
	cluster, err := chain.NewCluster(ccfg)
	if err != nil {
		return res, err
	}
	defer cluster.Close()
	for i, n := range cluster.Nodes() {
		if w := cfg.Workers[i%len(cfg.Workers)]; w != 0 {
			n.SetExec(parexec.Config{Workers: w, Mode: parexec.ModeMVCCWave})
		}
	}
	var adv *adversary
	if cfg.Adversary != nil {
		if adv, err = newAdversary(cfg, cluster); err != nil {
			return res, err
		}
	}

	fz, err := newFuzzer(cfg, rand.New(rand.NewSource(subSeed(cfg.Seed, "fuzz"))))
	if err != nil {
		return res, err
	}
	var ov *overload
	if cfg.Overload != nil {
		if ov, err = newOverload(cfg); err != nil {
			return res, err
		}
	}

	sched := chaos.Schedule{Name: "no-faults", Seed: cfg.Seed}
	if !cfg.NoFaults {
		faultNodes := cfg.Nodes
		if adv != nil {
			// Chaos targets only honest indices: the Byzantine node's
			// identity belongs to the adversary, so crashing or
			// restarting it would collide with the takeover.
			faultNodes--
		}
		sched = chaos.Fuzz(faultNodes, cfg.Rounds, subSeed(cfg.Seed, "chaos"))
		if cfg.Overload != nil {
			// Crashes and partitions would make block-denominated
			// latency bounds vacuous; overload runs take slow-drain
			// windows only.
			sched = chaos.OverloadScenario(faultNodes, cfg.Rounds, subSeed(cfg.Seed, "chaos"))
		}
	}
	orch := chaos.New(cluster, sched)

	ck := newChecker(cfg, fz.runner, fz.blobFetch(), cluster.Node(0).Chain().Genesis())

	// pending tracks submitted-but-uncommitted transactions so the
	// pre-commit settle wait and the final drain know when the cluster
	// has caught up with the fuzz stream.
	pending := make(map[cryptoutil.Digest]bool)
	settleBudget := 4 * time.Millisecond
	if cfg.NoFaults {
		settleBudget = 500 * time.Millisecond
	}

	// Under overload, honest fuzz traffic hitting typed backpressure is
	// requeued and retried (the well-behaved-client contract) instead
	// of aborting the run; anything untyped still kills the harness.
	// requeue order is preserved so per-actor nonce sequences stay
	// intact across retries.
	var requeue []*ledger.Transaction
	submit := func(txs []*ledger.Transaction) error {
		for _, tx := range txs {
			if err := cluster.Submit(tx); err != nil {
				if ov != nil && backpressure(err) {
					requeue = append(requeue, tx)
					res.OverloadRequeued++
					continue
				}
				return fmt.Errorf("sim: submit: %w", err)
			}
			pending[tx.ID()] = true
		}
		return nil
	}

	// settle waits (briefly, bounded) until every running node's
	// mempool holds the full pending set, so block packing depends on
	// the deterministic mempool order rather than gossip timing. Under
	// faults the wait can expire — lossy windows legitimately delay
	// delivery — and commit proceeds with whatever arrived.
	settle := func() {
		if len(pending) == 0 {
			return
		}
		cluster.WaitPooled(len(pending), settleBudget)
	}

	// process walks every newly committed block — from the most
	// advanced running node, which under quorum consensus holds THE
	// canonical chain — through the invariant checkers.
	process := func() {
		ref := cluster.Node(0)
		for _, i := range cluster.RunningNodes() {
			if n := cluster.Node(i); n.Height() > ref.Height() {
				ref = n
			}
		}
		for h := ck.height + 1; h <= ref.Height(); h++ {
			blk, err := ref.Chain().BlockAt(h)
			if err != nil {
				ck.violationf("ledger: %s advertises height %d but lacks block %d: %v", ref.ID(), ref.Height(), h, err)
				return
			}
			ck.checkBlock(cluster, blk)
			if ck.failed() {
				return
			}
			if ov != nil {
				ov.observe(blk)
			}
			for _, tx := range blk.Txs {
				delete(pending, tx.ID())
			}
		}
		ck.checkRound(cluster)
	}

	for round := 0; round < cfg.Rounds && !ck.failed(); round++ {
		orch.Advance(round)
		if disks != nil {
			disks.advance(ck, cluster, round)
			if ck.failed() {
				break
			}
		}
		if adv != nil {
			adv.advance(ck, cluster, round)
			if ck.failed() {
				break
			}
		}
		if ov != nil {
			ov.advance(ck, cluster, round)
			if ck.failed() {
				break
			}
		}
		var batch []*ledger.Transaction
		if round == 0 {
			batch, err = fz.setup()
		} else {
			batch, err = fz.gen(cfg.MinTxs + fz.rng.Intn(cfg.MaxTxs-cfg.MinTxs+1))
		}
		if err != nil {
			return res, err
		}
		if len(requeue) > 0 {
			// Shed txs go first so a retried predecessor lands before
			// this round's higher nonces from the same actor.
			batch = append(requeue, batch...)
			requeue = nil
		}
		if err := submit(batch); err != nil {
			return res, err
		}
		settle()
		if _, err := cluster.Commit(); err != nil {
			res.FailedRounds++
		}
		process()
	}

	// Drain: heal every fault, wait for convergence, then commit the
	// leftovers. Only then do the whole-run invariants make sense. An
	// adversary retires first — its endpoint leaves and the honest node
	// rejoins under the same (still-quarantined, decaying) identity.
	if !ck.failed() {
		if adv != nil {
			adv.retire(ck, cluster)
		}
	}
	if !ck.failed() {
		orch.Finish()
		// Generous wall-clock allowance: after an adversary run the
		// rejoining node waits out quarantine-score decay and re-syncs
		// the whole chain through token-bucketed pages, all of which
		// stretches under parallel-test CPU contention. Convergence is
		// the correctness bar; speed is not.
		if err := orch.AwaitRecovery(45 * time.Second); err != nil {
			ck.violationf("recovery: %v", err)
		}
		more := func() bool {
			return len(pending) > 0 || len(requeue) > 0 || (ov != nil && ov.unresolved() > 0)
		}
		for attempt := 0; attempt < 5 && more() && !ck.failed(); attempt++ {
			if len(requeue) > 0 {
				// The flood has stopped; shed fuzz traffic must now be
				// admittable. submit re-appends anything still shed.
				q := requeue
				requeue = nil
				if err := submit(q); err != nil {
					ck.violationf("drain: resubmit of shed traffic failed: %v", err)
					break
				}
			}
			if ov != nil {
				ov.drain(cluster)
			}
			if _, err := cluster.CommitAll(); err != nil {
				res.FailedRounds++
			}
			process()
		}
		if len(requeue) > 0 && !ck.failed() {
			ck.violationf("liveness: %d shed transactions still rejected after drain", len(requeue))
		}
		if len(pending) > 0 && !ck.failed() {
			ck.violationf("liveness: %d submitted transactions never committed after drain", len(pending))
		}
		if adv != nil && !ck.failed() {
			// Flush audit transactions still in flight: evidence
			// reported in the last rounds must be on chain before the
			// evidence ledger is judged.
			if _, err := cluster.CommitAll(); err != nil {
				res.FailedRounds++
			}
			process()
		}
		if !ck.failed() {
			ck.finish(cluster)
		}
		if adv != nil && !ck.failed() {
			adv.finish(ck, cluster)
		}
		if ov != nil && !ck.failed() {
			ov.finish(ck, cluster)
		}
	}

	res.Blocks = ck.blocks
	res.Txs = ck.txs
	res.FailedTxs = ck.failedTxs
	res.Checks = ck.checks
	res.OffchainRuns = ck.offchainRuns
	res.GasUsed = ck.gas
	res.IndexedDocs = ck.tail.Index().Docs()
	res.IndexSkipped = ck.tail.Index().Skipped()
	if disks != nil {
		res.DiskRecoveries = disks.recoveries
		res.DiskReplayedBlocks = disks.replayed
		res.DiskTornBytes = disks.torn
	}
	res.FaultLog = orch.FaultLog()
	res.MessagesQuarantined = cluster.Network().Stats().MessagesQuarantined
	res.EvidenceRecords = len(ck.shadow.EvidenceRecords())
	res.QuarantineBlocks = -1
	if adv != nil {
		res.AdversaryOffenses = adv.offensesByBehavior
		res.AdversaryMutedRounds = adv.laidLow
		res.QuarantineBlocks = adv.quarantineBlocks
		res.EvidenceExpected = len(adv.expected)
	}
	if ov != nil {
		res.OverloadOffered = ov.offered
		res.OverloadShed = ov.shed
		for _, n := range cluster.Nodes() {
			st := n.MempoolStats()
			res.OverloadExpired += st.ExpiredInPool
			if st.PeakSize > res.PeakMempool {
				res.PeakMempool = st.PeakSize
			}
		}
		for _, p := range ov.probes {
			res.ProbeTxs += len(p.latencies)
			for _, lat := range p.latencies {
				if lat > res.ProbeMaxLatency {
					res.ProbeMaxLatency = lat
				}
			}
		}
	}
	res.Violations = ck.violations
	res.Counterexample = ck.cex
	if len(res.Violations) > 0 {
		if cfg.Adversary != nil && cfg.Adversary.Minimize {
			res.AdversaryRepro = MinimizeAdversary(cfg, res.Violations[0])
		}
		return res, fmt.Errorf("sim: %d invariant violation(s); first: %s", len(res.Violations), res.Violations[0])
	}
	return res, nil
}
