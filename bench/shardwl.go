package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/shard"
	"medchain/internal/store"
)

// Sizes of shards-cross at -seconds 10 -scale 1.
const (
	xShards         = 4
	xNodes          = 3  // per member shard and on the coordination chain
	xRounds         = 32 // scaled
	xRegsPerRound   = 128
	xMoversPerShard = 4 // datasets registered each round that are transferred two rounds later
	xBulkPerRound   = xRegsPerRound - xShards*xMoversPerShard
	xLookups        = 8
	xTransferAge    = 2
	xDrainMax       = 64
)

// mover is a dataset that gets transferred: its own key signs exactly
// the registration (pre-signed, nonce 0) and the prepare (signed by
// SubmitPrepare, nonce 1), so no other sender's pre-signed nonces shift.
type mover struct {
	id       string
	key      *cryptoutil.KeyPair
	src      int
	xferID   string
	prepared time.Time
	round    int // pump rounds seen while pending
	settled  bool
}

type shardRound struct {
	regs   [xShards][]stx // pre-signed registrations by home shard
	movers []*mover       // registered this round
	bulk   []string       // ids registered this round that never move
}

type shardRig struct {
	sys    *shard.System
	meters map[string]*store.FaultFS
	rounds []shardRound
}

func (r *shardRig) streams() [][]stx {
	var out [][]stx
	for _, rd := range r.rounds {
		for s := range rd.regs {
			out = append(out, rd.regs[s])
		}
	}
	return out
}

// shardSetup boots the sharded deployment and pre-signs every round's
// registrations, routed by System.ShardOf.
func shardSetup(p params, dir string, metered bool) (*shardRig, error) {
	rig := &shardRig{}
	cfg := shard.Config{
		Shards: xShards, NodesPerShard: xNodes, CoordNodes: xNodes,
		KeySeed: p.keySeed(), DataDir: dir, SyncEvery: 1,
		Network: p2p.Config{BaseLatency: injectedDelay, Seed: p.seed},
	}
	if metered {
		var mu sync.Mutex
		rig.meters = make(map[string]*store.FaultFS)
		cfg.FSFor = func(chainID string, node int) store.FS {
			mu.Lock()
			defer mu.Unlock()
			key := fmt.Sprintf("%s/%d", chainID, node)
			if rig.meters[key] == nil {
				rig.meters[key] = store.NewFaultFS(store.OSFS{}, store.FaultConfig{})
			}
			return rig.meters[key]
		}
	}
	sys, err := shard.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	rig.sys = sys

	rng := subRNG(p.seed, "shards")
	var sg signer
	var owners [xShards][4]*actor // bulk owners: one nonce sequence per member chain
	for s := range owners {
		for j := range owners[s] {
			owners[s][j] = &actor{key: mustKey(p.seed, fmt.Sprintf("shard-%d-owner-%d", s, j))}
		}
	}
	register := func(a *actor, id string, home int) stx {
		return sg.sign(a, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
			ID: id, Digest: randDigest(rng), Schema: "fhir.r4", Records: 10 + rng.Intn(90), SiteID: shard.ShardID(home),
		})
	}
	rounds := max(p.count(xRounds), xTransferAge+1)
	serial := 0
	for rd := 0; rd < rounds; rd++ {
		var round shardRound
		var moving [xShards]int
		// Ids are drawn until every shard has its movers and the bulk
		// quota is full; the first ids that land on a shard short of
		// movers become movers.
		for len(round.movers) < xShards*xMoversPerShard || len(round.bulk) < xBulkPerRound {
			serial++
			id := fmt.Sprintf("s%d/x-%07d", p.seed, serial)
			home := sys.ShardOf(id)
			switch {
			case moving[home] < xMoversPerShard:
				m := &mover{id: id, key: mustKey(p.seed, "mover-"+id), src: home, xferID: "xfer-" + id}
				round.regs[home] = append(round.regs[home], register(&actor{key: m.key}, id, home))
				round.movers = append(round.movers, m)
				moving[home]++
			case len(round.bulk) < xBulkPerRound:
				round.regs[home] = append(round.regs[home], register(owners[home][rng.Intn(len(owners[home]))], id, home))
				round.bulk = append(round.bulk, id)
			}
		}
		rig.rounds = append(rig.rounds, round)
	}
	return rig, nil
}

// shardRun is what the driver observed in one run.
type shardRun struct {
	*tally
	window     time.Duration
	okTxs      int
	transfers  int
	settleMS   samples
	settleRnd  samples
	pumpMS     samples
	commitMS   samples
	findUS     samples
	recover    time.Duration
	coordTxs   int
	blocks     int
	submitting time.Duration // time the client spent submitting and looking up
}

// commitShards commits every member shard concurrently (each shard's
// commit loop belongs to the deployment) after its nodes pooled the
// round's submissions.
func commitShards(sys *shard.System, expect [xShards]int) error {
	var wg sync.WaitGroup
	errs := make([]error, xShards)
	for i := 0; i < xShards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := sys.Shard(i)
			deadline := time.Now().Add(10 * time.Second)
			for minPool(c) < expect[i] && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
			_, errs[i] = c.CommitAll()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", shard.ShardID(i), err)
		}
	}
	return nil
}

func runShards(p params, rig *shardRig, tr *tracer) *shardRun {
	r := &shardRun{tally: &tally{}}
	sys := rig.sys
	rng := subRNG(p.seed, "shards-run")
	var pendingX []*mover
	var known []string // bulk datasets committed so far
	coord0 := chainTxs(sys.Coord())

	// poll settles every transfer whose source-side status left pending.
	poll := func() {
		now := time.Now()
		kept := pendingX[:0]
		for _, m := range pendingX {
			m.round++
			prep, ok := shard.BestNode(sys.Shard(m.src)).State().CrossOutbound(m.xferID)
			switch {
			case !ok:
				r.fail("transfer %s: prepare did not commit", m.xferID)
			case prep.Status == contract.CrossPending:
				kept = append(kept, m)
			case prep.Status == contract.CrossCommitted:
				m.settled = true
				r.okTxs++
				r.settleMS.add(ms(now.Sub(m.prepared)))
				r.settleRnd.add(float64(m.round))
				tr.add("shard.transfer", m.xferID, "", m.prepared, now)
			default:
				r.fail("transfer %s ended %s: %s", m.xferID, prep.Status, prep.Reason)
			}
		}
		pendingX = kept
	}
	step := func(round int, expect [xShards]int) bool {
		s := time.Now()
		if err := commitShards(sys, expect); err != nil {
			r.problem("round %d commit: %v", round, err)
			return false
		}
		e := time.Now()
		r.commitMS.add(ms(e.Sub(s)))
		tr.add("shard.commit_round", fmt.Sprint(round), "", s, e)
		sys.PumpRound()
		e2 := time.Now()
		r.pumpMS.add(ms(e2.Sub(e)))
		tr.add("shard.pump", fmt.Sprint(round), "", e, e2)
		poll()
		return true
	}

	t0 := time.Now()
	for rd, round := range rig.rounds {
		var expect [xShards]int
		roundStart := time.Now()
		for s := range round.regs {
			r.attempt(len(round.regs[s]))
			for _, t := range round.regs[s] {
				if err := sys.Shard(s).Submit(t.tx); err != nil {
					r.fail("register %s: %v", t.id.Short(), err)
					continue
				}
				expect[s]++
			}
		}
		if rd >= xTransferAge {
			for _, m := range rig.rounds[rd-xTransferAge].movers {
				payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: m.id})
				r.attempt(1)
				r.transfers++
				m.prepared = time.Now()
				err := sys.SubmitPrepare(m.src, m.key, contract.CrossPrepareArgs{
					ID: m.xferID, Kind: contract.CrossTransfer, DestShard: shard.ShardID((m.src + 1) % xShards), Payload: payload,
				})
				if err != nil {
					r.fail("prepare %s: %v", m.xferID, err)
					continue
				}
				expect[m.src]++
				pendingX = append(pendingX, m)
			}
		}
		for i := 0; i < xLookups && len(known) > 0; i++ {
			id := known[rng.Intn(len(known))]
			r.attempt(1)
			s := time.Now()
			at, _, ok := sys.FindDataset(id)
			r.findUS.addSince(s, time.Microsecond)
			if !ok || at != sys.ShardOf(id) {
				r.fail("FindDataset(%s) = shard %d, found %v", id, at, ok)
			}
		}
		r.submitting += time.Since(roundStart)
		if !step(rd, expect) {
			return r
		}
		for s := range round.regs {
			for _, t := range round.regs[s] {
				if rc, ok := sys.Shard(s).Node(0).Receipt(t.id); !ok || !rc.OK() {
					r.fail("register %s on %s not committed OK", t.id.Short(), shard.ShardID(s))
					continue
				}
				r.okTxs++
			}
		}
		known = append(known, round.bulk...)
	}
	for d := 0; len(pendingX) > 0 && d < xDrainMax; d++ {
		if !step(len(rig.rounds)+d, [xShards]int{}) {
			return r
		}
	}
	r.window = time.Since(t0)
	for _, m := range pendingX {
		r.fail("transfer %s still pending after drain", m.xferID)
	}
	r.coordTxs = chainTxs(sys.Coord()) - coord0

	// Recover: power-cut member shard 0, bring it back from disk, and
	// require the pre-crash head and root on every one of its nodes.
	ref := sys.Shard(0).Node(0)
	height, root, head := ref.Height(), ref.State().Root(), ref.Chain().Head().Hash()
	var recoverS samples
	for k := 0; k < recoverRepeats; k++ {
		s := time.Now()
		sys.StopShard(0)
		if err := sys.RecoverShard(0); err != nil {
			r.problem("recover shard 0: %v", err)
			return r
		}
		deadline := time.Now().Add(30 * time.Second)
		for _, n := range sys.Shard(0).Nodes() {
			for n.Height() < height && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
			if n.Height() != height || n.State().Root() != root || n.Chain().Head().Hash() != head {
				r.problem("recovered shard 0 node %s at height %d differs from pre-crash height %d", n.ID(), n.Height(), height)
			}
		}
		recoverS.addSince(s, time.Second)
		tr.add("shard.recover", shard.ShardID(0), "", s, time.Now())
	}
	r.recover = time.Duration(recoverS.median() * float64(time.Second))

	// Census: every transfer committed with exactly one live copy, on
	// its destination. (FindDataset only consults a dataset's routing
	// homes, so an explicit move off its home is counted directly.)
	for _, round := range rig.rounds {
		for _, m := range round.movers {
			if !m.settled {
				continue
			}
			live := -1
			copies := 0
			for i := 0; i < xShards; i++ {
				if ds, ok := shard.BestNode(sys.Shard(i)).State().Dataset(m.id); ok && ds.MovedTo == "" {
					live = i
					copies++
				}
			}
			if copies != 1 || live != (m.src+1)%xShards {
				r.fail("dataset %s has %d live copies (last on shard %d)", m.id, copies, live)
			}
		}
	}
	for _, a := range sys.Anomalies() {
		r.problem("relay anomaly: %s", a)
	}
	if err := sys.VerifyConsistency(); err != nil {
		r.problem("replicas disagree: %v", err)
	}
	return r
}

// chainTxs counts the transactions committed on a cluster's node 0.
func chainTxs(c *chain.Cluster) int {
	n := 0
	c.Node(0).Chain().Walk(func(b *ledger.Block) bool {
		n += len(b.Txs)
		return true
	})
	return n
}
