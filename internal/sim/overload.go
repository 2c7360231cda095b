package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"medchain/internal/chain"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// OverloadConfig parameterizes the overload leg of a simulation run:
// a sustained flood of expendable bulk transactions from rotating
// burst identities, one persistent greedy bulk client, and a few
// honest low-rate probe clients whose commit latency is the fairness
// invariant. The cluster is deliberately constrained (small pool,
// small blocks) so the offered load is a large multiple of drain
// capacity and the admission controller's shedding states actually
// engage. The zero value is a sensible bounded overload (~10x).
type OverloadConfig struct {
	// PoolCapacity bounds every node's mempool (default 256).
	PoolCapacity int
	// MaxBlockTxs caps block size so the backlog drains slowly enough
	// for overload to persist across rounds (default 32).
	MaxBlockTxs int
	// FloodEvery is the burst cadence in rounds (default 4).
	FloodEvery int
	// FloodSize is the number of bulk transactions per burst, spread
	// over a handful of fresh burst identities (default 160).
	FloodSize int
	// GreedyRate is the persistent greedy client's transactions per
	// round; it re-anchors its nonce against the pool after every
	// shed or expiry (default 12).
	GreedyRate int
	// TTLBlocks stamps flood and greedy transactions with
	// Expiry = current height + TTLBlocks (default 4), so the shed
	// backlog dies in the pool with a typed reason instead of
	// committing stale.
	TTLBlocks uint64
	// Probes is the number of honest low-rate clients — one
	// normal-class transaction per round each, no TTL (default 2).
	Probes int
	// LatencyBound is the probe fairness invariant in committed
	// blocks (default 8): under full flood, no probe transaction may
	// wait longer between first submission and commit.
	LatencyBound int
}

func (o OverloadConfig) withDefaults() OverloadConfig {
	if o.PoolCapacity == 0 {
		o.PoolCapacity = 256
	}
	if o.MaxBlockTxs == 0 {
		o.MaxBlockTxs = 32
	}
	if o.FloodEvery == 0 {
		o.FloodEvery = 4
	}
	if o.FloodSize == 0 {
		o.FloodSize = 160
	}
	if o.GreedyRate == 0 {
		o.GreedyRate = 12
	}
	if o.TTLBlocks == 0 {
		o.TTLBlocks = 4
	}
	if o.Probes == 0 {
		o.Probes = 2
	}
	if o.LatencyBound == 0 {
		o.LatencyBound = 8
	}
	return o
}

// probeClient is one honest low-rate identity: a single in-flight
// normal-class transaction at a time, retried through backpressure,
// its commit latency measured in blocks from first submission.
type probeClient struct {
	a         *actor
	inflight  *ledger.Transaction
	sentAt    uint64 // canonical height at first submission
	admitted  bool
	latencies []int
}

// overload drives the adversarial load against the cluster and holds
// the fairness bookkeeping. All of its transactions ride the public
// submit paths (Cluster.Submit / SubmitVia) and none of them enter the
// harness's liveness-pending set — floods are expendable by design and
// expected to be shed or to expire; only probes must always commit.
type overload struct {
	cfg   Config
	ocfg  OverloadConfig
	rng   *rand.Rand
	clock int64
	burst int

	greedy *actor
	probes []*probeClient

	offered int64 // flood + greedy txs pushed at the cluster
	shed    int64 // typed backpressure rejections at submit
}

func newOverload(cfg Config) (*overload, error) {
	ov := &overload{
		cfg:  cfg,
		ocfg: *cfg.Overload,
		rng:  rand.New(rand.NewSource(subSeed(cfg.Seed, "overload"))),
	}
	kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("sim-%d/overload/greedy", cfg.Seed))
	if err != nil {
		return nil, err
	}
	ov.greedy = &actor{kp: kp}
	for i := 0; i < ov.ocfg.Probes; i++ {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("sim-%d/overload/probe-%d", cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		ov.probes = append(ov.probes, &probeClient{a: &actor{kp: kp}})
	}
	return ov, nil
}

// backpressure reports whether err is the typed shed/pool-full
// rejection a well-behaved client retries — anything else coming back
// from a submit is a bug in the serving edge, not load shedding.
func backpressure(err error) bool { return errors.Is(err, chain.ErrMempoolFull) }

// typedRejects are the refusals an expendable flood or greedy client
// may meet besides backpressure: its TTL ran out, its nonce fell
// behind or ran ahead of a pool that shed its predecessors, or it hit
// a crashed node.
var typedRejects = []error{chain.ErrExpired, chain.ErrNonceGap, chain.ErrStaleNonce, chain.ErrStopped}

// tx builds and signs one driver transaction. Args carry a unique
// sequence so every transaction has a distinct ID; Timestamp is a
// logical counter offset far from the fuzzer's so grant-expiry
// semantics are never accidentally triggered by driver traffic.
func (ov *overload) tx(a *actor, typ ledger.TxType, method string, expiry uint64) (*ledger.Transaction, error) {
	ov.clock++
	tx := &ledger.Transaction{
		Type: typ, Nonce: a.nonce, Method: method,
		Args:      []byte(fmt.Sprintf(`{"seq":%d}`, ov.clock)),
		Timestamp: 1<<20 + ov.clock,
		Expiry:    expiry,
	}
	if err := tx.Sign(a.kp); err != nil {
		return nil, err
	}
	a.nonce++
	return tx, nil
}

func maxHeight(c *chain.Cluster) uint64 {
	var h uint64
	for _, i := range c.RunningNodes() {
		if nh := c.Node(i).Height(); nh > h {
			h = nh
		}
	}
	return h
}

// advance runs one round of adversarial load: the per-round pool-bound
// invariant, the probes' single-tx cadence, the greedy client's batch,
// and (on its cadence) a fresh flood burst.
func (ov *overload) advance(ck *checker, c *chain.Cluster, round int) {
	// Invariant: a bounded pool is bounded at every observation point,
	// not just at the end of the run.
	for _, i := range c.RunningNodes() {
		if sz := c.Node(i).MempoolSize(); sz > ov.ocfg.PoolCapacity {
			ck.violationf("overload: node %d pool holds %d txs over capacity %d at round %d",
				i, sz, ov.ocfg.PoolCapacity, round)
			return
		}
	}

	h := maxHeight(c)
	ov.probeRound(ck, c, h)
	ov.greedyRound(ck, c, h)
	if round%ov.ocfg.FloodEvery == 0 {
		ov.flood(ck, c, h)
	}
}

// probeRound gives every probe at most one in-flight transaction:
// submit a fresh one when idle, re-submit through backpressure when
// the previous attempt was shed. sentAt is pinned at first submission
// so measured latency includes any backpressure delay the honest
// client suffered.
func (ov *overload) probeRound(ck *checker, c *chain.Cluster, h uint64) {
	for i, p := range ov.probes {
		if p.inflight == nil {
			tx, err := ov.tx(p.a, ledger.TxTrial, "probe", 0)
			if err != nil {
				ck.violationf("overload: build probe tx: %v", err)
				return
			}
			p.inflight, p.sentAt, p.admitted = tx, h, false
		} else if p.admitted {
			continue // waiting for commit
		}
		err := c.Submit(p.inflight)
		switch {
		case err == nil:
			p.admitted = true
		case backpressure(err):
			// Honest clients honor backpressure: retry next round.
		default:
			ck.violationf("overload: probe %d rejected with untyped error: %v", i, err)
			return
		}
	}
}

// greedyRound fires the persistent bulk spammer: GreedyRate TTL'd
// transactions pinned to node 0, nonce re-anchored against node 0's
// pool so shed and expired predecessors are re-issued rather than
// leaving a permanent gap.
func (ov *overload) greedyRound(ck *checker, c *chain.Cluster, h uint64) {
	ov.greedy.nonce = c.Node(0).PendingNonce(ov.greedy.kp.Address())
	for k := 0; k < ov.ocfg.GreedyRate; k++ {
		tx, err := ov.tx(ov.greedy, ledger.TxData, "overload_greedy", h+ov.ocfg.TTLBlocks)
		if err != nil {
			return
		}
		ov.offered++
		if err := c.SubmitVia(0, tx); err != nil && !ov.reject(ck, "greedy", err) {
			return
		}
	}
}

// flood fires one burst: FloodSize TTL'd bulk transactions from four
// fresh identities, spread across the running nodes. Burst identities
// are never reused, so shed transactions are simply abandoned — the
// model of a client that does not retry.
func (ov *overload) flood(ck *checker, c *chain.Cluster, h uint64) {
	ov.burst++
	running := c.RunningNodes()
	const senders = 4
	perSender := (ov.ocfg.FloodSize + senders - 1) / senders
	for s := 0; s < senders; s++ {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("sim-%d/overload/flood-%d-%d", ov.cfg.Seed, ov.burst, s))
		if err != nil {
			continue
		}
		a := &actor{kp: kp}
		via := running[(ov.burst+s)%len(running)]
		for k := 0; k < perSender; k++ {
			tx, err := ov.tx(a, ledger.TxData, "overload_flood", h+ov.ocfg.TTLBlocks)
			if err != nil {
				break
			}
			ov.offered++
			if err := c.SubmitVia(via, tx); err != nil {
				if !ov.reject(ck, "flood", err) {
					return
				}
				if backpressure(err) && k > perSender/2 {
					break // sender's tail is doomed once shedding engages
				}
			}
		}
	}
}

// reject accounts one refused flood or greedy transaction: backpressure
// counts as shed, and an error that is none of the chain's typed
// refusals is a violation. It reports whether the run may go on.
func (ov *overload) reject(ck *checker, client string, err error) bool {
	if backpressure(err) {
		ov.shed++
		return true
	}
	for _, typed := range typedRejects {
		if errors.Is(err, typed) {
			return true
		}
	}
	ck.violationf("overload: %s tx rejected with untyped error: %v", client, err)
	return false
}

// observe resolves probe transactions against a committed block.
func (ov *overload) observe(blk *ledger.Block) {
	for _, p := range ov.probes {
		if p.inflight == nil {
			continue
		}
		want := p.inflight.ID()
		for _, tx := range blk.Txs {
			if tx.ID() == want {
				p.latencies = append(p.latencies, int(blk.Header.Height-p.sentAt))
				p.inflight = nil
				break
			}
		}
	}
}

// unresolved counts probe transactions not yet committed — the drain
// loop keeps committing until this reaches zero.
func (ov *overload) unresolved() int {
	n := 0
	for _, p := range ov.probes {
		if p.inflight != nil {
			n++
		}
	}
	return n
}

// drain re-submits any probe transaction still stuck behind
// backpressure; called between drain commits after the flood stops.
func (ov *overload) drain(c *chain.Cluster) {
	for _, p := range ov.probes {
		if p.inflight == nil || p.admitted {
			continue
		}
		if err := c.Submit(p.inflight); err == nil {
			p.admitted = true
		}
	}
}

// finish evaluates the end-of-run overload invariants: every probe
// transaction committed, every probe latency within the fairness
// bound, and no pool ever peaked over capacity.
func (ov *overload) finish(ck *checker, c *chain.Cluster) {
	for i, p := range ov.probes {
		if p.inflight != nil {
			ck.violationf("overload: probe %d tx %s never committed (fairness starved)", i, p.inflight.ID().Short())
		}
		for _, lat := range p.latencies {
			if lat > ov.ocfg.LatencyBound {
				ck.violationf("overload: probe %d commit latency %d blocks exceeds bound %d under flood",
					i, lat, ov.ocfg.LatencyBound)
			}
		}
	}
	for i, n := range c.Nodes() {
		if peak := n.MempoolStats().PeakSize; peak > ov.ocfg.PoolCapacity {
			ck.violationf("overload: node %d pool peaked at %d over capacity %d", i, peak, ov.ocfg.PoolCapacity)
		}
	}
}
