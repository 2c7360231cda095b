package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"medchain/internal/chain"
	"medchain/internal/chaos"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
	"medchain/internal/shard"
	"medchain/internal/store"
)

// ShardedConfig parameterizes one sharded simulation run: N member
// shards plus a coordination chain, a seeded cross-shard workload
// (HIE transfers, consent grants, federated-round contributions), and
// optionally chaos + the PR-5 Byzantine adversary confined to exactly
// one shard. The run checks the two sharding invariants end to end:
//
//   - Cross-shard atomicity: every committed prepare reaches exactly
//     one terminal state (committed or aborted), mirrored consistently
//     on both shards, with no partial application visible.
//   - Byzantine containment: a shard under chaos + adversary must not
//     corrupt or stall any other shard or the coordination chain.
type ShardedConfig struct {
	// Seed is the master seed; every random choice derives from it.
	Seed int64
	// Shards is the member shard count (default 3, min 2).
	Shards int
	// NodesPerShard sizes each shard's cluster (default 4).
	NodesPerShard int
	// Rounds is the number of workload/commit rounds (default 30).
	Rounds int
	// PreparesPerRound bounds cross-shard operations per round (default 2).
	PreparesPerRound int
	// CommitTimeout bounds one commit round (default 200ms).
	CommitTimeout time.Duration
	// NoFaults disables chaos on the adversary's shard.
	NoFaults bool
	// Adversary, when set, turns the last node of ByzantineShard
	// Byzantine (same behavior schedule as the flat harness) and adds
	// chaos (unless NoFaults) on that shard only.
	Adversary *AdversaryConfig
	// ByzantineShard selects the contained shard (default 0).
	ByzantineShard int
	// ShortExpiryEvery gives every Nth prepare an already-expired
	// destination deadline, forcing the abort path (default 4; 0 never).
	ShortExpiryEvery int
	// DestExpiryBlocks is the normal deadline window (default 50).
	DestExpiryBlocks uint64

	// Persist makes every chain disk-backed (MemFS-backed WAL +
	// snapshots, SyncEvery=1). Required by CrashEvery.
	Persist bool
	// CrashEvery, when > 0, crash-stops a whole chain (rotating through
	// the member shards and the coordination chain) mid-cycle at round
	// N·CrashEvery + CrashEvery/2 and recovers it from disk at the next
	// cycle boundary, asserting the recovered head is bit-identical to
	// the pre-crash head. Requires Persist; the Byzantine shard is
	// never picked (chaos owns its node lifecycle).
	CrashEvery int
	// Reshard adds a member shard at Rounds/2 and drives a full epoch
	// transition under load: begin_epoch, incremental dataset migration
	// over the ordinary transfer path, commit_epoch, and a placement
	// audit. The per-round query-liveness invariant runs throughout.
	Reshard bool
	// CommitteeSize sizes each shard's gateway failover committee
	// (default 1 = no failover).
	CommitteeSize int
	// GatewayKillRound, when > 0, kills shard 0's active gateway at
	// that round. With a committee, a standby must take the lease over
	// and the backlog must drain; the post-run check asserts the
	// takeover happened.
	GatewayKillRound int
}

func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.NodesPerShard == 0 {
		c.NodesPerShard = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 30
	}
	if c.PreparesPerRound == 0 {
		c.PreparesPerRound = 2
	}
	if c.CommitTimeout == 0 {
		c.CommitTimeout = 200 * time.Millisecond
	}
	if c.ShortExpiryEvery == 0 {
		c.ShortExpiryEvery = 4
	}
	if c.DestExpiryBlocks == 0 {
		c.DestExpiryBlocks = 50
	}
	if c.CrashEvery > 0 {
		c.Persist = true // crash/recovery cycles need a store to replay
	}
	return c
}

// ShardedResult summarizes one sharded run.
type ShardedResult struct {
	Seed   int64
	Shards int
	Rounds int
	// Transfers counts committed cross-shard prepares; Committed /
	// Aborted / Pending their terminal states at drain.
	Transfers int
	Committed int
	Aborted   int
	Pending   int
	// ProbesRejected counts soundness probes correctly refused on chain
	// (forged proof, unanchored root, replayed apply, stale epochs).
	ProbesRejected int
	// Crashes counts whole-chain crash/recovery cycles completed;
	// FinalEpoch is the committed routing epoch at drain (1 unless the
	// run resharded).
	Crashes    int
	FinalEpoch uint64
	// ShardHeights / CoordHeight are final chain heights.
	ShardHeights []uint64
	CoordHeight  uint64
	// AdversaryOffenses / QuarantineBlocks mirror the flat harness's
	// adversary metrics (adversarial runs only).
	AdversaryOffenses map[Behavior]int
	QuarantineBlocks  int
	// FaultLog is the injected-fault signature on the Byzantine shard.
	FaultLog []string
	// Anomalies are relay-side surprises; Violations invariant failures.
	Anomalies  []string
	Violations []string
}

// shardedChecker is the sharded harness's violation sink (advSink).
type shardedChecker struct {
	violations []string
	blocks     int
}

func (ck *shardedChecker) violationf(format string, args ...any) {
	ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
}
func (ck *shardedChecker) failed() bool    { return len(ck.violations) > 0 }
func (ck *shardedChecker) blockCount() int { return ck.blocks }

// dsInfo is the harness's bookkeeping for one workload dataset.
type dsInfo struct {
	id    string
	home  int
	owner *cryptoutil.KeyPair
	moved bool
}

// RunSharded executes one seeded sharded simulation.
func RunSharded(cfg ShardedConfig) (*ShardedResult, error) {
	cfg = cfg.withDefaults()
	res := &ShardedResult{Seed: cfg.Seed, Shards: cfg.Shards, Rounds: cfg.Rounds, QuarantineBlocks: -1}
	if cfg.Shards < 2 {
		return res, fmt.Errorf("sim: sharded runs need >= 2 shards, got %d", cfg.Shards)
	}
	if cfg.Adversary != nil && (cfg.ByzantineShard < 0 || cfg.ByzantineShard >= cfg.Shards) {
		return res, fmt.Errorf("sim: Byzantine shard %d out of range", cfg.ByzantineShard)
	}

	keySeed := fmt.Sprintf("shardsim-%d", cfg.Seed)
	scfg := shard.Config{
		Shards:           cfg.Shards,
		NodesPerShard:    cfg.NodesPerShard,
		CoordNodes:       cfg.NodesPerShard,
		KeySeed:          keySeed,
		CommitTimeout:    cfg.CommitTimeout,
		DestExpiryBlocks: cfg.DestExpiryBlocks,
		CommitteeSize:    cfg.CommitteeSize,
	}
	if cfg.Persist {
		// Disk-backed: every node runs WAL + snapshots on one MemFS.
		fs := store.NewMemFS()
		scfg.FSFor = func(string, int) store.FS { return fs }
	}
	if cfg.Adversary != nil {
		scfg.Guard = adversaryGuardConfig()
	}
	sys, err := shard.NewSystem(scfg)
	if err != nil {
		return res, err
	}
	defer sys.Close()

	ck := &shardedChecker{}
	rng := rand.New(rand.NewSource(subSeed(cfg.Seed, "sharded-workload")))

	// Arm the adversary and its shard-confined chaos schedule.
	var adv *adversary
	var orch *chaos.Orchestrator
	byz := -1
	if cfg.Adversary != nil {
		byz = cfg.ByzantineShard
		byzCluster := sys.Shard(byz)
		adv, err = newAdversaryAt(byzCluster, adversaryParams{
			KeySeed: fmt.Sprintf("%s/%s", keySeed, shard.ShardID(byz)),
			Index:   cfg.NodesPerShard - 1,
			Nodes:   cfg.NodesPerShard,
			Rounds:  cfg.Rounds,
			Seed:    subSeed(cfg.Seed, "sharded-adversary"),
			Strict:  false, // shard heights advance out of lockstep with offenses
			Config:  cfg.Adversary,
		})
		if err != nil {
			return res, err
		}
		sched := chaos.Schedule{Name: "no-faults", Seed: cfg.Seed}
		if !cfg.NoFaults {
			sched = chaos.Fuzz(cfg.NodesPerShard-1, cfg.Rounds, subSeed(cfg.Seed, "sharded-chaos"))
		}
		orch = chaos.New(byzCluster, sched)
	}

	// The elastic scheduler owns the crash/recovery, resharding, and
	// gateway-failover schedules and their invariants.
	es := newElastic(cfg, sys, ck, byz)

	// baseline heights, for the containment liveness check.
	base := make([]uint64, cfg.Shards)
	for i := range base {
		if n := sys.Shard(i).Best(); n != nil {
			base[i] = n.Height()
		}
	}

	var datasets []*dsInfo
	flSeq := 0
	dsSeq := 0

	newKey := func(label string) *cryptoutil.KeyPair {
		k, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("%s/actor/%s", keySeed, label))
		if err != nil {
			panic(err) // deterministic derivation cannot fail on valid input
		}
		return k
	}

	// submitData registers a fresh dataset on a shard (commit happens at
	// round end); registration can be delayed or dropped under chaos, in
	// which case dependent prepares fail on chain and are not counted.
	submitData := func(shardIdx int) {
		dsSeq++
		id := fmt.Sprintf("ds-%04d", dsSeq)
		owner := newKey(id)
		home := shardIdx
		if cfg.Reshard {
			// Reshard runs place datasets by the routing epoch, so the
			// epoch transition has real reassignments to migrate.
			home = sys.ShardOf(id)
		}
		args, _ := json.Marshal(contract.RegisterDatasetArgs{
			ID: id, Schema: "fhir.r4", Records: 5 + rng.Intn(50), SiteID: shard.ShardID(home),
		})
		tx := &ledger.Transaction{Type: ledger.TxData, Method: "register_dataset", Args: args}
		if err := shard.SubmitSigned(sys.Shard(home), owner, tx); err == nil {
			datasets = append(datasets, &dsInfo{id: id, home: home, owner: owner})
		}
	}

	prepSeq := 0
	submitPrepare := func() {
		prepSeq++
		var expiry uint64
		if cfg.ShortExpiryEvery > 0 && prepSeq%cfg.ShortExpiryEvery == 0 {
			expiry = 1 // already passed: forces the expire/abort path
		}
		nsh := sys.Shards() // live count: resharding adds a shard mid-run
		switch rng.Intn(3) {
		case 0: // HIE record transfer of an unmoved dataset
			if sys.InTransition() {
				return // migration owns dataset moves mid-transition
			}
			var candidates []*dsInfo
			for _, d := range datasets {
				if !d.moved {
					candidates = append(candidates, d)
				}
			}
			if len(candidates) == 0 {
				return
			}
			d := candidates[rng.Intn(len(candidates))]
			dest := rng.Intn(nsh - 1)
			if dest >= d.home {
				dest++
			}
			payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: d.id})
			err := sys.SubmitPrepare(d.home, d.owner, contract.CrossPrepareArgs{
				ID: fmt.Sprintf("xfer-%04d", prepSeq), Kind: contract.CrossTransfer,
				DestShard: shard.ShardID(dest), DestExpiry: expiry, Payload: payload,
			})
			if err == nil {
				d.moved = true // stop reusing it even if the transfer later aborts
			}
		case 1: // consent grant authored away from the resource's shard
			if len(datasets) == 0 {
				return
			}
			d := datasets[rng.Intn(len(datasets))]
			src := rng.Intn(nsh - 1)
			if src >= d.home {
				src++
			}
			grantee := newKey(fmt.Sprintf("grantee-%04d", prepSeq))
			payload, _ := json.Marshal(contract.GrantArgs{
				Resource: "data:" + d.id, Grantee: grantee.Address(),
				Actions: []contract.Action{contract.ActionRead}, Purpose: "sharded-sim",
			})
			_ = sys.SubmitPrepare(src, d.owner, contract.CrossPrepareArgs{
				ID: fmt.Sprintf("grant-%04d", prepSeq), Kind: contract.CrossConsent,
				DestShard: shard.ShardID(d.home), DestExpiry: expiry, Payload: payload,
			})
		default: // federated-round contribution
			round := fmt.Sprintf("flr-%d", flSeq/4)
			flSeq++
			dest := (flSeq / 4) % nsh
			src := rng.Intn(nsh - 1)
			if src >= dest {
				src++
			}
			weights := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			payload, _ := json.Marshal(contract.CrossFLPayload{
				Round: round, Weights: weights, Samples: 10 + rng.Intn(200),
			})
			site := newKey(fmt.Sprintf("fl-site-%04d", prepSeq))
			_ = sys.SubmitPrepare(src, site, contract.CrossPrepareArgs{
				ID: fmt.Sprintf("fl-%04d", prepSeq), Kind: contract.CrossFLRound,
				DestShard: shard.ShardID(dest), DestExpiry: expiry, Payload: payload,
			})
		}
	}

	// submitTransferFrom forces a transfer out of one shard — the
	// gateway drill needs post-kill traffic whose settlement requires a
	// fresh anchor from the killed shard's committee.
	submitTransferFrom := func(src int) {
		if es.down(src) || sys.InTransition() {
			return
		}
		for _, d := range datasets {
			if d.moved || d.home != src {
				continue
			}
			prepSeq++
			payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: d.id})
			err := sys.SubmitPrepare(src, d.owner, contract.CrossPrepareArgs{
				ID: fmt.Sprintf("xfer-%04d", prepSeq), Kind: contract.CrossTransfer,
				DestShard: shard.ShardID((src + 1) % sys.Shards()),
				Payload:   payload,
			})
			if err == nil {
				d.moved = true
			}
			return
		}
		submitData(src) // nothing to move yet: seed a dataset for next round
	}

	for round := 0; round < cfg.Rounds && !ck.failed(); round++ {
		if orch != nil {
			orch.Advance(round)
		}
		if adv != nil {
			if n := sys.Shard(byz).Best(); n != nil {
				ck.blocks = int(n.Height())
			}
			adv.advance(ck, sys.Shard(byz), round)
			if ck.failed() {
				break
			}
		}
		es.step(round)
		for i := 0; i < sys.Shards(); i++ {
			if rng.Intn(2) == 0 && !es.down(i) {
				submitData(i)
			}
		}
		for k := 0; k < 1+rng.Intn(cfg.PreparesPerRound); k++ {
			submitPrepare()
		}
		if es.gwKilled {
			submitTransferFrom(es.gwShard)
		}
		for i := 0; i < sys.Shards(); i++ {
			if es.down(i) {
				continue // crash-stopped by schedule, not a containment breach
			}
			if _, err := sys.Shard(i).Commit(); err != nil && i != byz {
				ck.violationf("containment: healthy %s failed to commit round %d: %v", shard.ShardID(i), round, err)
			}
		}
		sys.PumpRound()
		es.afterPump(round, datasets)
		// Root purity on every chain, the coordination chain included: the
		// cross-shard handlers have the widest write sets, and this sim is
		// where they run. A clone freezes one node's tree and pending marks
		// while its followers keep applying.
		rootIsPure := func(id string, c *chain.Cluster) {
			if n := c.Best(); n != nil {
				if st := n.State().Clone(); st.Root() != contract.ImportState(st.Export()).Root() {
					ck.violationf("state-root: %s round %d incremental root != root rebuilt from the export", id, round)
				}
			}
		}
		rootIsPure(contract.CoordShardID, sys.Coord())
		for i := 0; i < sys.Shards(); i++ {
			rootIsPure(shard.ShardID(i), sys.Shard(i))
		}
		if round%8 == 7 {
			for i := 0; i < sys.Shards(); i++ {
				if i == byz || es.down(i) {
					continue // mid-attack divergence is legal on the contained shard
				}
				if err := sys.Shard(i).VerifyConsistency(); err != nil {
					ck.violationf("containment: %s inconsistent mid-run: %v", shard.ShardID(i), err)
				}
			}
		}
	}

	// Drain: recover any crash-stopped chain, retire the adversary, heal
	// faults, finish a still-open epoch transition, then settle every
	// in-flight cross-shard operation.
	es.finish()
	if adv != nil && !ck.failed() {
		adv.retire(ck, sys.Shard(byz))
	}
	if orch != nil && !ck.failed() {
		orch.Finish()
		if err := orch.AwaitRecovery(45 * time.Second); err != nil {
			ck.violationf("recovery: %s: %v", shard.ShardID(byz), err)
		}
	}
	if !ck.failed() {
		es.finishReshard(datasets)
	}
	if !ck.failed() {
		for attempt := 0; attempt < 8; attempt++ {
			for i := 0; i < sys.Shards(); i++ {
				_, _ = sys.Shard(i).CommitAll()
			}
			sys.Pump(12)
			if sys.PendingTransfers() == 0 {
				break
			}
		}
	}
	es.checkGateway()

	if !ck.failed() {
		fireProofProbes(sys, ck, res)
		fireEpochProbes(sys, ck, res)
	}
	if !ck.failed() {
		auditSharded(sys, ck, res, byz)
		checkContainment(sys, ck, base, byz, cfg)
	}
	if adv != nil && !ck.failed() {
		if adv.actions == 0 {
			ck.violationf("adversary: no Byzantine action fired in %d rounds", cfg.Rounds)
		} else if adv.quarantineBlocks < 0 && adv.laidLow == 0 {
			ck.violationf("adversary: %d offenses on %s and never quarantined by any honest node",
				adv.actions, shard.ShardID(byz))
		}
		res.AdversaryOffenses = adv.offensesByBehavior
		res.QuarantineBlocks = adv.quarantineBlocks
	}

	for i := 0; i < sys.Shards(); i++ {
		if n := sys.Shard(i).Best(); n != nil {
			res.ShardHeights = append(res.ShardHeights, n.Height())
		} else {
			res.ShardHeights = append(res.ShardHeights, 0)
		}
	}
	if n := sys.Coord().Best(); n != nil {
		res.CoordHeight = n.Height()
	}
	res.Crashes = es.crashes
	res.FinalEpoch = sys.Epoch()
	if orch != nil {
		res.FaultLog = orch.FaultLog()
	}
	res.Anomalies = sys.Anomalies()
	res.Violations = ck.violations
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("sim: %d sharded invariant violation(s); first: %s", len(res.Violations), res.Violations[0])
	}
	return res, nil
}

// fireProofProbes submits deliberately invalid cross-shard transactions
// — forged proof, unanchored root, replayed apply — and requires the
// chain to refuse each one. A node that skips proof verification (the
// contract.skipCrossProofVerify seam) accepts the forged probe, failing the run here and in
// the shadow audit.
func fireProofProbes(sys *shard.System, ck *shardedChecker, res *ShardedResult) {
	probeKey, err := cryptoutil.DeriveKeyPair("shardsim/probe")
	if err != nil {
		return
	}
	// Find a destination shard holding a relayed root of some source
	// shard — the forged probe targets a real anchored (shard, height).
	var target, source string
	var height uint64
	var targetIdx int
	for i := 0; i < sys.Shards() && target == ""; i++ {
		n := sys.Shard(i).Best()
		if n == nil {
			continue
		}
		for _, root := range n.State().Export().ShardRoots {
			target, targetIdx, source, height = sys.ShardIDs()[i], i, root.Shard, root.Height
			break
		}
	}
	probe := func(label string, shardIdx int, method string, args contract.CrossApplyArgs) {
		raw, _ := json.Marshal(args)
		c := sys.Shard(shardIdx)
		n := c.Best()
		if n == nil {
			return
		}
		tx := &ledger.Transaction{
			Type: ledger.TxCross, Contract: contract.CrossContractAddr,
			Method: method, Args: raw,
		}
		if err := shard.SubmitSigned(c, probeKey, tx); err != nil {
			return
		}
		if _, err := c.CommitAll(); err != nil {
			return
		}
		n = c.Best()
		r, ok := n.Receipt(tx.ID())
		if !ok {
			ck.violationf("probe %s: no receipt", label)
			return
		}
		if r.OK() {
			ck.violationf("proof-soundness: %s probe was ACCEPTED on %s — proof verification is not happening", label, shard.ShardID(shardIdx))
			return
		}
		res.ProbesRejected++
	}

	if target != "" {
		// Forged: a record never prepared anywhere, proved against a
		// single-leaf tree whose root does not match the anchored one.
		payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: "probe-forged-ds"})
		rec := contract.CrossRecord{
			ID: "probe-forged", Kind: contract.CrossTransfer,
			SourceShard: source, DestShard: target, From: probeKey.Address(),
			SourceHeight: height, DestExpiry: 1 << 60, Payload: payload,
		}
		fake := merkle.New([][]byte{rec.Leaf()})
		proof, _ := fake.Prove(0)
		probe("forged-proof", targetIdx, "apply", contract.CrossApplyArgs{Record: rec, Proof: proof})

		// Unanchored: same forgery pointed at a height no gateway ever
		// anchored.
		recU := rec
		recU.ID, recU.SourceHeight = "probe-unanchored", 9_999_999
		probe("unanchored-root", targetIdx, "apply", contract.CrossApplyArgs{Record: recU, Proof: proof})
	}

	// Replay: re-apply a transfer the destination already resolved.
	for i := 0; i < sys.Shards(); i++ {
		n := sys.Shard(i).Best()
		if n == nil {
			continue
		}
		for _, prep := range n.State().CrossOutboundAll() {
			if prep.Status == contract.CrossPending {
				continue
			}
			di := indexOfShard(sys, prep.Record.DestShard)
			if di < 0 {
				continue
			}
			fake := merkle.New([][]byte{prep.Record.Leaf()})
			proof, _ := fake.Prove(0)
			probe("replayed-apply", di, "apply", contract.CrossApplyArgs{Record: prep.Record, Proof: proof})
			return
		}
	}
}

func indexOfShard(sys *shard.System, id string) int {
	for i, sid := range sys.ShardIDs() {
		if sid == id {
			return i
		}
	}
	return -1
}

// auditSharded runs the drain-time whole-system invariants: 2PC
// atomicity for every committed prepare, no dataset left frozen, and an
// independent shadow re-verification of every anchored root and every
// accepted resolution against the shards' actual blocks.
func auditSharded(sys *shard.System, ck *shardedChecker, res *ShardedResult, byz int) {
	ids := sys.ShardIDs()
	states := make([]*contract.State, len(ids))
	for i := range ids {
		n := sys.Shard(i).Best()
		if n == nil {
			ck.violationf("drain: %s has no running node", ids[i])
			return
		}
		states[i] = n.State()
	}

	// Shadow leaf/root recomputation straight from committed blocks —
	// independent of the relay's cache and of on-chain verification.
	shadowLeaves := make([]map[uint64][][]byte, len(ids))
	shadowRoots := make([]map[uint64]cryptoutil.Digest, len(ids))
	for i := range ids {
		shadowLeaves[i], shadowRoots[i] = shadowScan(sys.Shard(i))
	}

	// Every root anchored anywhere (coordination chain and relayed
	// copies on member shards) must match the recomputed root.
	checkRoots := func(where string, roots []contract.ShardRoot) {
		for _, root := range roots {
			si := indexOfShard(sys, root.Shard)
			if si < 0 {
				ck.violationf("shadow: %s anchors root for unknown shard %q", where, root.Shard)
				continue
			}
			want, ok := shadowRoots[si][root.Height]
			if !ok {
				ck.violationf("shadow: %s anchors %s@%d but that block has no cross records", where, root.Shard, root.Height)
				continue
			}
			if want != root.Root {
				ck.violationf("shadow: %s anchored root %s@%d does not match the shard's blocks", where, root.Shard, root.Height)
			}
		}
	}
	if n := sys.Coord().Best(); n != nil {
		checkRoots("coord", n.State().Export().ShardRoots)
	}
	for i := range ids {
		checkRoots(ids[i], states[i].Export().ShardRoots)
	}

	// Atomicity: every prepare settled, mirrored, and effective exactly
	// once.
	movedDatasets := make(map[string]bool)
	for i := range ids {
		for _, prep := range states[i].CrossOutboundAll() {
			rec := prep.Record
			res.Transfers++
			switch prep.Status {
			case contract.CrossCommitted:
				res.Committed++
			case contract.CrossAborted:
				res.Aborted++
			default:
				res.Pending++
				ck.violationf("atomicity: %s prepare %s still pending after drain", ids[i], rec.ID)
				continue
			}
			di := indexOfShard(sys, rec.DestShard)
			if di < 0 {
				ck.violationf("atomicity: prepare %s names unknown dest %q", rec.ID, rec.DestShard)
				continue
			}
			dres, ok := states[di].CrossInbound(rec.SourceShard, rec.ID)
			if !ok {
				ck.violationf("atomicity: %s settled %s without a destination resolution", ids[i], rec.ID)
				continue
			}
			if dres.Applied != (prep.Status == contract.CrossCommitted) {
				ck.violationf("atomicity: %s status %s contradicts dest applied=%v for %s",
					ids[i], prep.Status, dres.Applied, rec.ID)
			}
			if rec.Kind == contract.CrossTransfer {
				var p contract.CrossTransferPayload
				if json.Unmarshal(rec.Payload, &p) != nil {
					continue
				}
				movedDatasets[p.Dataset] = true
				srcDS, srcOK := states[i].Dataset(p.Dataset)
				destDS, destOK := states[di].Dataset(p.Dataset)
				if prep.Status == contract.CrossCommitted {
					// The destination must hold a record — live, or a
					// tombstone if a later transfer moved the dataset on
					// (reshard migrations routinely round-trip datasets).
					if !destOK {
						ck.violationf("atomicity: committed transfer %s has no dataset record on %s", rec.ID, rec.DestShard)
					}
					// Strict placement applies only to the dataset's final
					// hop: dest live implies src tombstoned toward it.
					if destOK && destDS.MovedTo == "" {
						if !srcOK || srcDS.MovedTo != rec.DestShard {
							ck.violationf("atomicity: committed transfer %s left no tombstone on %s", rec.ID, ids[i])
						}
					}
				} else {
					// Abort restores the source record; a later committed
					// transfer may have legitimately moved it since, so
					// only existence is owed here (frozen is caught by the
					// global scan below, duplication by the census).
					if !srcOK {
						ck.violationf("atomicity: aborted transfer %s did not restore %q on %s", rec.ID, p.Dataset, ids[i])
					}
				}
			}
		}
		// No dataset may remain frozen once everything has settled.
		for _, id := range states[i].Datasets() {
			if ds, ok := states[i].Dataset(id); ok && ds.Frozen {
				ck.violationf("atomicity: dataset %q on %s is still frozen after drain", id, ids[i])
			}
		}
	}

	// Census: any dataset that was ever the subject of a transfer must
	// end with exactly one live copy system-wide — no loss, no
	// duplication, however many hops (including round-trips) it made.
	for id := range movedDatasets {
		live := 0
		for i := range ids {
			if ds, ok := states[i].Dataset(id); ok && ds.MovedTo == "" {
				live++
			}
		}
		if live != 1 {
			ck.violationf("atomicity: dataset %q has %d live copies after drain, want exactly 1", id, live)
		}
	}

	// Every accepted resolution must trace back to a real on-chain
	// prepare whose canonical record is present in the source shard's
	// recomputed block leaves — a destination that accepted a forged or
	// tampered record (e.g. with verification skipped) fails here.
	for i := range ids {
		for _, dres := range states[i].CrossInboundAll() {
			si := indexOfShard(sys, dres.SourceShard)
			if si < 0 {
				ck.violationf("shadow: %s accepted resolution %s from unknown shard %q", ids[i], dres.ID, dres.SourceShard)
				continue
			}
			prep, ok := states[si].CrossOutbound(dres.ID)
			if !ok {
				ck.violationf("shadow: %s accepted %s with no prepare on %s — forged record applied", ids[i], dres.ID, dres.SourceShard)
				continue
			}
			leaf := prep.Record.Leaf()
			found := false
			for _, l := range shadowLeaves[si][prep.Record.SourceHeight] {
				if bytes.Equal(l, leaf) {
					found = true
					break
				}
			}
			if !found {
				ck.violationf("shadow: prepare %s is not in %s's block %d leaves", dres.ID, dres.SourceShard, prep.Record.SourceHeight)
			}
		}
	}
	_ = byz
}

// shadowScan recomputes a shard's per-block cross leaves and roots
// directly from its committed blocks and receipts.
func shadowScan(c *chain.Cluster) (map[uint64][][]byte, map[uint64]cryptoutil.Digest) {
	leaves := make(map[uint64][][]byte)
	roots := make(map[uint64]cryptoutil.Digest)
	n := c.Best()
	if n == nil {
		return leaves, roots
	}
	for h := uint64(1); h <= n.Height(); h++ {
		blk, err := n.Chain().BlockAt(h)
		if err != nil {
			continue
		}
		var ls [][]byte
		for _, tx := range blk.Txs {
			if tx.Type != ledger.TxCross {
				continue
			}
			r, ok := n.Receipt(tx.ID())
			if !ok || !r.OK() {
				continue
			}
			for _, ev := range r.Events {
				switch ev.Topic {
				case "CrossPrepared":
					var rec contract.CrossRecord
					if json.Unmarshal(ev.Data, &rec) == nil {
						ls = append(ls, rec.Leaf())
					}
				case "CrossResolved":
					var cres contract.CrossResolution
					if json.Unmarshal(ev.Data, &cres) == nil {
						ls = append(ls, cres.Leaf())
					}
				}
			}
		}
		if len(ls) > 0 {
			leaves[h] = ls
			roots[h] = merkle.RootOf(ls)
		}
	}
	return leaves, roots
}

// checkContainment verifies the Byzantine shard could not stall or
// corrupt the rest of the deployment.
func checkContainment(sys *shard.System, ck *shardedChecker, base []uint64, byz int, cfg ShardedConfig) {
	for i := 0; i < sys.Shards(); i++ {
		if err := sys.Shard(i).VerifyConsistency(); err != nil {
			ck.violationf("containment: %s inconsistent after drain: %v", shard.ShardID(i), err)
		}
		n := sys.Shard(i).Best()
		if n == nil {
			ck.violationf("containment: %s has no running node after drain", shard.ShardID(i))
			continue
		}
		if i == byz || i >= len(base) {
			continue // liveness bound applies to healthy original shards
		}
		if cfg.CrashEvery > 0 {
			continue // crash-stopped shards legitimately lose rounds
		}
		grew := n.Height() - base[i]
		if int(grew) < cfg.Rounds/2 {
			ck.violationf("containment: healthy %s grew only %d blocks over %d rounds", shard.ShardID(i), grew, cfg.Rounds)
		}
	}
	if err := sys.Coord().VerifyConsistency(); err != nil {
		ck.violationf("containment: coordination chain inconsistent: %v", err)
	}
}
