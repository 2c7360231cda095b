package sim

import (
	"encoding/json"
	"fmt"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/shard"
)

// elastic drives the sharded run's robustness schedules: whole-chain
// crash/recovery cycles, the mid-run epoch transition (resharding under
// load), and the gateway-kill/committee-takeover drill. It owns the
// invariants those schedules are fuzzing — recovered heads bit-identical
// to pre-crash, zero lost or duplicated datasets across a reshard,
// query liveness under dual-epoch routing, and lease takeover after a
// gateway death.
type elastic struct {
	cfg ShardedConfig
	sys *shard.System
	ck  *shardedChecker
	byz int

	// crash schedule
	victim    int // -2 none, -1 coordination chain, else shard index
	crashSeq  int
	preHash   string
	preHeight uint64
	crashes   int

	// reshard schedule
	resharding  bool
	reshardDone bool
	migSeq      int

	// gateway schedule
	gwShard  int
	gwKilled bool
	killedGW cryptoutil.Address
}

func newElastic(cfg ShardedConfig, sys *shard.System, ck *shardedChecker, byz int) *elastic {
	gwShard := 0
	if byz == 0 {
		gwShard = 1 // never fight chaos for the same shard's lifecycle
	}
	return &elastic{
		cfg: cfg, sys: sys, ck: ck, byz: byz,
		victim: -2, gwShard: gwShard,
	}
}

// down reports whether shard i is currently crash-stopped.
func (es *elastic) down(i int) bool { return es.victim == i }

// quiet reports whether any chain (member or coord) is dark — epoch
// steps and liveness checks wait for the deployment to be whole.
func (es *elastic) quiet() bool { return es.victim == -2 }

// step runs at the top of each round, before the workload: crash or
// recover the scheduled victim and fire the gateway kill.
func (es *elastic) step(round int) {
	if es.cfg.GatewayKillRound > 0 && round == es.cfg.GatewayKillRound && !es.gwKilled {
		es.killedGW = es.sys.ActiveGateway(es.gwShard)
		es.sys.KillGateway(es.gwShard)
		es.gwKilled = true
	}
	if es.cfg.CrashEvery == 0 {
		return
	}
	if es.victim != -2 {
		if round%es.cfg.CrashEvery == 0 {
			es.recoverVictim()
		}
		return
	}
	if round > 0 && round%es.cfg.CrashEvery == es.cfg.CrashEvery/2 {
		es.crash()
	}
}

// crash picks the next victim in rotation (member shards then the
// coordination chain, skipping the Byzantine shard), captures its head,
// and stops every node — a whole-chain power cut mid-protocol.
func (es *elastic) crash() {
	n := es.sys.Shards() + 1 // +1: the coordination chain
	for tries := 0; tries < n; tries++ {
		pick := es.crashSeq % n
		es.crashSeq++
		if pick == es.byz || (es.gwKilled && pick == es.gwShard) {
			continue // chaos / the failover drill owns that shard
		}
		if pick == es.sys.Shards() {
			es.victim = -1
		} else {
			es.victim = pick
		}
		break
	}
	if es.victim == -2 {
		return
	}
	c := es.sys.Coord()
	if es.victim >= 0 {
		c = es.sys.Shard(es.victim)
	}
	bn := c.Best()
	if bn == nil {
		es.victim = -2
		return
	}
	head := bn.Chain().Head()
	es.preHash, es.preHeight = head.Hash().String(), head.Header.Height
	if es.victim == -1 {
		es.sys.StopCoord()
	} else {
		es.sys.StopShard(es.victim)
	}
	es.crashes++
}

// recoverVictim restarts the crashed chain from its on-disk WAL +
// snapshots and asserts the recovered head is bit-identical to the
// pre-crash head — a whole-chain crash must lose nothing committed.
func (es *elastic) recoverVictim() {
	victim, label := es.victim, "coord"
	if victim >= 0 {
		label = shard.ShardID(victim)
	}
	es.victim = -2
	var err error
	if victim == -1 {
		err = es.sys.RecoverCoord()
	} else {
		err = es.sys.RecoverShard(victim)
	}
	if err != nil {
		es.ck.violationf("durability: %s failed to recover from disk: %v", label, err)
		return
	}
	cl := es.sys.Coord()
	if victim >= 0 {
		cl = es.sys.Shard(victim)
	}
	bn := cl.Best()
	if bn == nil {
		es.ck.violationf("durability: %s has no running node after recovery", label)
		return
	}
	head := bn.Chain().Head()
	if head.Hash().String() != es.preHash || head.Header.Height != es.preHeight {
		es.ck.violationf("durability: %s recovered head %s@%d, want pre-crash %s@%d",
			label, head.Hash().String(), head.Header.Height, es.preHash, es.preHeight)
	}
	for _, n := range cl.Nodes() {
		if n.LastRecovery() == nil {
			es.ck.violationf("durability: a %s node restarted without replaying its store", label)
			break
		}
	}
}

// finish recovers any chain still dark when the round loop ends, so the
// drain phase sees the whole deployment.
func (es *elastic) finish() {
	if es.victim != -2 {
		es.recoverVictim()
	}
}

// afterPump runs at the end of each round: advance the epoch transition
// one step and check query liveness under dual-epoch routing.
func (es *elastic) afterPump(round int, datasets []*dsInfo) {
	if es.cfg.Reshard && es.quiet() && !es.resharding && !es.reshardDone && round >= es.cfg.Rounds/2 {
		es.beginReshard()
	}
	// Liveness first, migration step second: on the round a transition
	// opens, every not-yet-migrated dataset is checked before any
	// migration freezes it — the widest net for a broken router.
	if es.cfg.Reshard {
		es.queryLiveness(round, datasets)
	}
	if es.resharding && es.quiet() {
		es.stepReshard(datasets, 3)
	}
}

// beginReshard grows the deployment by one shard and opens the epoch
// transition that re-homes keys onto it.
func (es *elastic) beginReshard() {
	if _, err := es.sys.AddShard(); err != nil {
		es.ck.violationf("reshard: AddShard: %v", err)
		es.reshardDone = true
		return
	}
	if _, err := es.sys.BeginEpoch(es.sys.ShardIDs()); err != nil {
		es.ck.violationf("reshard: BeginEpoch: %v", err)
		es.reshardDone = true
		return
	}
	es.resharding = true
}

// stepReshard advances the migration by at most limit transfers per
// call — the transition happens *under* the regular workload, not in a
// quiesced system, so the in-round cap is small; the post-workload
// drain uses a larger one. When the plan is empty and every migration
// transfer has settled, the epoch commits and placement is audited.
func (es *elastic) stepReshard(datasets []*dsInfo, limit int) {
	plan, err := es.sys.MigrationPlan()
	if err != nil {
		return // transition gone (shouldn't happen) or coord unreadable
	}
	if len(plan) == 0 && es.transfersSettled() {
		if err := es.sys.CommitEpoch(); err != nil {
			es.ck.violationf("reshard: CommitEpoch: %v", err)
		} else {
			es.auditPlacement(datasets)
		}
		es.resharding, es.reshardDone = false, true
		return
	}
	owners := make(map[string]*cryptoutil.KeyPair, len(datasets))
	for _, d := range datasets {
		owners[d.id] = d.owner
	}
	touched := make(map[int]bool)
	submitted := 0
	for _, m := range plan {
		if submitted >= limit {
			break
		}
		kp := owners[m.Dataset]
		if kp == nil || es.down(m.Src) || es.down(m.Dest) {
			continue
		}
		es.migSeq++
		id := fmt.Sprintf("mig-%d-%d-%s", es.sys.Epoch()+1, es.migSeq, m.Dataset)
		payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: m.Dataset})
		err := es.sys.SubmitPrepare(m.Src, kp, contract.CrossPrepareArgs{
			ID: id, Kind: contract.CrossTransfer,
			DestShard: es.sys.ShardIDs()[m.Dest], Payload: payload,
		})
		if err == nil {
			touched[m.Src] = true
			submitted++
		}
	}
	for i := range touched {
		_, _ = es.sys.Shard(i).CommitAll()
	}
}

// transfersSettled reports whether every transfer-kind prepare in the
// whole deployment reached a terminal state. An empty plan alone is
// not enough to commit the epoch: an in-flight transfer (migration or
// pre-transition workload) freezes its dataset — invisible to the plan
// — and would land it off-home after commit.
func (es *elastic) transfersSettled() bool {
	for i := 0; i < es.sys.Shards(); i++ {
		n := es.sys.Shard(i).Best()
		if n == nil {
			return false
		}
		for _, prep := range n.State().CrossOutboundAll() {
			if prep.Record.Kind == contract.CrossTransfer && prep.Status == contract.CrossPending {
				return false
			}
		}
	}
	return true
}

// finishReshard completes a transition still open when the round loop
// ends: bounded plan/submit/pump cycles, then commit and audit.
func (es *elastic) finishReshard(datasets []*dsInfo) {
	if !es.cfg.Reshard {
		return
	}
	if !es.resharding && !es.reshardDone {
		// The run ended before Rounds/2 triggers — still exercise the
		// transition so short runs test resharding too.
		es.beginReshard()
	}
	// The workload may have out-registered the in-round migration cap
	// for the whole second half of the run; scale the drain budget to
	// the population, submitting in bigger batches than the live rounds
	// did.
	attempts := 24 + len(datasets)/8
	for attempt := 0; es.resharding && attempt < attempts; attempt++ {
		es.stepReshard(datasets, 16)
		if es.resharding {
			for i := 0; i < es.sys.Shards(); i++ {
				_, _ = es.sys.Shard(i).CommitAll()
			}
			es.sys.Pump(4)
		}
	}
	if es.resharding {
		es.ck.violationf("reshard: epoch transition did not drain (pending=%d)", es.sys.PendingTransfers())
	}
}

// auditPlacement runs immediately after commit_epoch: every dataset the
// workload ever registered must exist on exactly one shard, at its
// new-epoch home — zero lost, zero duplicated. It also re-homes the
// workload's bookkeeping so post-reshard rounds keep exercising it.
func (es *elastic) auditPlacement(datasets []*dsInfo) {
	for _, d := range datasets {
		live, any, home := 0, false, -1
		for i := 0; i < es.sys.Shards(); i++ {
			n := es.sys.Shard(i).Best()
			if n == nil {
				continue
			}
			if ds, ok := n.State().Dataset(d.id); ok {
				any = true
				if ds.MovedTo == "" {
					live++
					home = i
				}
			}
		}
		switch {
		case !any:
			// Registration was dropped (chaos, dark shard) — never existed.
		case live == 0:
			es.ck.violationf("reshard: dataset %s lost across the epoch transition", d.id)
		case live > 1:
			es.ck.violationf("reshard: dataset %s duplicated — %d live copies after commit_epoch", d.id, live)
		default:
			if want := es.sys.ShardOf(d.id); home != want {
				es.ck.violationf("reshard: dataset %s lives on %s, epoch home is %s",
					d.id, shard.ShardID(home), shard.ShardID(want))
			}
			d.home, d.moved = home, false
		}
	}
}

// queryLiveness is the dual-epoch routing invariant, checked every
// round: a dataset with a live copy sitting at either of its legitimate
// epoch homes must be resolvable through the router. The truth homes
// are recomputed here straight from the coordination chain's routing
// table — independent of the (possibly seam-broken) router under test.
func (es *elastic) queryLiveness(round int, datasets []*dsInfo) {
	n := es.sys.Coord().Best()
	if n == nil {
		return
	}
	rt, ok := n.State().Routing()
	if !ok || rt.Current == nil {
		return
	}
	lists := [][]string{rt.Current.Shards}
	if rt.Pending != nil {
		lists = append(lists, rt.Pending.Shards)
	}
	for _, d := range datasets {
		liveAt, skip := -1, false
		for _, ls := range lists {
			sid, err := shard.RouteIn(d.id, ls)
			if err != nil {
				skip = true
				break
			}
			hi := indexOfShard(es.sys, sid)
			if hi < 0 || hi == es.byz || es.down(hi) {
				skip = true // home unreachable or Byzantine: liveness not owed
				break
			}
			hn := es.sys.Shard(hi).Best()
			if hn == nil {
				skip = true
				break
			}
			if ds, ok := hn.State().Dataset(d.id); ok && ds.MovedTo == "" && !ds.Frozen {
				liveAt = hi
			}
		}
		if skip || liveAt < 0 {
			continue
		}
		if _, _, ok := es.sys.FindDataset(d.id); !ok {
			es.ck.violationf("query-liveness: round %d: dataset %s live on %s but unroutable",
				round, d.id, shard.ShardID(liveAt))
		}
	}
}

// checkGateway runs post-drain: if the active gateway was killed, the
// anchoring lease must have moved to a standby committee member — the
// failover-liveness invariant. (With takeover suppressed by the
// shard.skipLeaseExpiry seam, this fires alongside the stuck-pending atomicity
// violations.)
func (es *elastic) checkGateway() {
	if !es.gwKilled {
		return
	}
	after := es.sys.ActiveGateway(es.gwShard)
	if after == es.killedGW {
		es.ck.violationf("failover: %s anchoring lease never left the killed gateway %s",
			shard.ShardID(es.gwShard), es.killedGW.Short())
		return
	}
	member := false
	for _, addr := range es.sys.CommitteeAddresses(es.gwShard) {
		if addr == after {
			member = true
		}
	}
	if !member {
		es.ck.violationf("failover: %s lease holder %s is not a committee member",
			shard.ShardID(es.gwShard), after.Short())
	}
}

// fireEpochProbes submits stale and out-of-order epoch transitions
// signed by the real coordinator; the coordination chain must refuse
// each with ErrCrossEpoch. Probes only run outside a transition (a
// commit probe would otherwise be legitimate).
func fireEpochProbes(sys *shard.System, ck *shardedChecker, res *ShardedResult) {
	if sys.InTransition() {
		return
	}
	cur := sys.Epoch()
	probe := func(label, method string, args any) {
		tx, err := sys.CoordinatorSubmit(method, args)
		if err != nil {
			return
		}
		if _, err := sys.Coord().CommitAll(); err != nil {
			return
		}
		n := sys.Coord().Best()
		if n == nil {
			return
		}
		r, ok := n.Receipt(tx.ID())
		if !ok {
			ck.violationf("probe %s: no receipt", label)
			return
		}
		if r.OK() {
			ck.violationf("epoch-soundness: %s probe was ACCEPTED on the coordination chain", label)
			return
		}
		res.ProbesRejected++
	}
	probe("replayed-begin-epoch", "begin_epoch", contract.BeginEpochArgs{Epoch: cur, Shards: sys.ShardIDs()})
	probe("skipped-begin-epoch", "begin_epoch", contract.BeginEpochArgs{Epoch: cur + 2, Shards: sys.ShardIDs()})
	probe("unpended-commit-epoch", "commit_epoch", contract.CommitEpochArgs{Epoch: cur + 1})
}
