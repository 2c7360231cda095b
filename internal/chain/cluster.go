package chain

import (
	"errors"
	"fmt"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/resilience"
	"medchain/internal/store"
)

// ClusterConfig configures a simulated cluster. Every node is a
// validator of one Quorum validator set.
type ClusterConfig struct {
	// Nodes is the cluster size (≥1).
	Nodes int
	// ChainID isolates ledgers; defaults to "medchain".
	ChainID string
	// Network is the link model for the underlying p2p.Network.
	Network p2p.Config
	// MaxBlockTxs caps transactions per block (0 = unlimited).
	MaxBlockTxs int
	// CommitTimeout bounds one Commit round; defaults to 10s.
	CommitTimeout time.Duration
	// KeySeed prefixes the deterministic node key seeds.
	KeySeed string
	// Persist makes every node disk-backed (nil = memory-only).
	Persist *PersistConfig
	// Guard, when set, tunes every node's peer-misbehavior guard (score
	// decay, clock).
	Guard *guard.Config
	// Mempool, when set, bounds every node's transaction pool.
	Mempool *MempoolConfig
}

// PersistConfig gives every cluster node a durable storage engine.
// Node i stores under Dir/node-i.
type PersistConfig struct {
	// Dir is the base data directory.
	Dir string
	// FSFor, when set, supplies node i's filesystem (nil = the real
	// disk). Tests share one store.MemFS; the simulation harness
	// injects one fault-wrapped MemFS per node so each node's disk
	// fails independently.
	FSFor func(node int) store.FS
	// SyncEvery, SnapshotEvery tune each node's engine; see
	// store.Options.
	SyncEvery     int
	SnapshotEvery int
}

// options returns node i's storage engine configuration.
func (p *PersistConfig) options(i int, id p2p.NodeID) *store.Options {
	o := &store.Options{Dir: store.Join(p.Dir, string(id)), SyncEvery: p.SyncEvery, SnapshotEvery: p.SnapshotEvery}
	if p.FSFor != nil {
		o.FS = p.FSFor(i)
	}
	return o
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ChainID == "" {
		c.ChainID = "medchain"
	}
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 10 * time.Second
	}
	if c.KeySeed == "" {
		c.KeySeed = "cluster"
	}
	return c
}

// Cluster is a set of nodes sharing a simulated network — the "global
// medical blockchain" of paper Fig. 2 in miniature.
type Cluster struct {
	cfg   ClusterConfig
	net   *p2p.Network
	nodes []*Node
	keys  []*cryptoutil.KeyPair
	vals  *consensus.ValidatorSet
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("chain: cluster needs at least 1 node, got %d", cfg.Nodes)
	}
	keys := make([]*cryptoutil.KeyPair, cfg.Nodes)
	for i := range keys {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("%s/node-%d", cfg.KeySeed, i))
		if err != nil {
			return nil, err
		}
		keys[i] = kp
	}
	vals, err := consensus.NewValidatorSet(keys)
	if err != nil {
		return nil, err
	}

	c := &Cluster{cfg: cfg, net: p2p.NewNetwork(cfg.Network), keys: keys, vals: vals}
	// One live round for the whole cluster: opening a proposer's round
	// closes the one it fails over from on every node at once.
	round := &liveRound{}
	for i := 0; i < cfg.Nodes; i++ {
		id := p2p.NodeID(fmt.Sprintf("node-%d", i))
		nc := NodeConfig{ID: id, Key: keys[i], ChainID: cfg.ChainID, Validators: vals, Network: c.net, round: round}
		if cfg.Persist != nil {
			nc.Store = cfg.Persist.options(i, id)
		}
		if cfg.Guard != nil {
			nc.Guard = *cfg.Guard
		}
		if cfg.Mempool != nil {
			nc.Mempool = *cfg.Mempool
		}
		n, _, err := NewNode(nc)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Validators returns the cluster's validator set.
func (c *Cluster) Validators() *consensus.ValidatorSet { return c.vals }

// Network exposes the underlying simulated network (stats, partitions).
func (c *Cluster) Network() *p2p.Network { return c.net }

// Submit gossips a transaction into every mempool via the first
// running node that accepts it. A node's typed rejection (shedding, a
// full pool) does not end the attempt: the next running node is tried,
// and only when every one rejects does Submit fail — with each node's
// reason preserved in the joined error, so a caller can distinguish
// "cluster down" (ErrStopped) from "cluster saturated" (every branch
// wraps ErrMempoolFull) and honor the longest retry-after hint via
// resilience.RetryAfterHint.
func (c *Cluster) Submit(tx *ledger.Transaction) error {
	var errs []error
	for i, n := range c.nodes {
		if !n.Running() {
			continue
		}
		err := n.Gossip(tx)
		if err == nil {
			return nil
		}
		errs = append(errs, fmt.Errorf("node %d: %w", i, err))
	}
	if len(errs) == 0 {
		return ErrStopped
	}
	return errors.Join(errs...)
}

// SubmitVia gossips a transaction through node i — fault experiments
// use this to inject load on a chosen partition side. Rejections carry
// the node's identity alongside the typed reason.
func (c *Cluster) SubmitVia(i int, tx *ledger.Transaction) error {
	if err := c.nodes[i].Gossip(tx); err != nil {
		return fmt.Errorf("node %d: %w", i, err)
	}
	return nil
}

// StopNode crashes node i (detach + halt loop); a no-op if already
// stopped.
func (c *Cluster) StopNode(i int) { c.nodes[i].Stop() }

// RestartNode rejoins node i to the network and triggers a re-sync
// from the most advanced running node so it replays missed blocks.
func (c *Cluster) RestartNode(i int) error {
	if err := c.nodes[i].Restart(); err != nil {
		return err
	}
	if ref := c.ref(); ref.Height() > c.nodes[i].Height() {
		c.nodes[i].requestSync(ref.ID())
	}
	return nil
}

// SyncLagging asks every running node behind the best running head to
// re-sync from it — the catch-up nudge recovery loops use after faults
// heal.
func (c *Cluster) SyncLagging() {
	ref := c.ref()
	for _, n := range c.nodes {
		if n.Running() && n.Height() < ref.Height() {
			n.requestSync(ref.ID())
		}
	}
}

// RunningNodes returns the indices of nodes whose loops are alive.
func (c *Cluster) RunningNodes() []int {
	var idx []int
	for i, n := range c.nodes {
		if n.Running() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Best returns the running node with the highest chain, nil when the
// whole cluster is down. Heights are chain-wide, so whatever reads the
// committed chain by height (receipts, state, a tailer's cursor) reads
// it here and survives the loss of any one replica.
func (c *Cluster) Best() *Node {
	var best *Node
	for _, n := range c.nodes {
		if n.Running() && (best == nil || n.Height() > best.Height()) {
			best = n
		}
	}
	return best
}

// ref is Best for callers that need some node to judge from even when
// every one is down: node 0 then.
func (c *Cluster) ref() *Node {
	if n := c.Best(); n != nil {
		return n
	}
	return c.nodes[0]
}

// proposerIndex returns the node scheduled to propose the next block,
// judged from the most advanced node's height (a lagging node 0 must
// not skew the schedule).
func (c *Cluster) proposerIndex() int {
	addr := c.vals.ProposerFor(c.ref().Height() + 1).Addr
	for i, k := range c.keys {
		if k.Address() == addr {
			return i
		}
	}
	return 0
}

// Proposer returns the node the next Commit asks first: the scheduled
// proposer, or — when that one is down — the next running node in
// rotation. A transaction that enters here is in the next block's
// proposer pool before gossip reaches anyone else.
func (c *Cluster) Proposer() *Node { return c.nodes[c.proposerCandidates()[0]] }

// proposerCandidates returns proposer indices to try this round: the
// scheduled node first, then the remaining running nodes in rotation
// order as failover targets — a certificate is valid whichever
// validator proposed the block it certifies.
func (c *Cluster) proposerCandidates() []int {
	sched := c.proposerIndex()
	cands := make([]int, 0, len(c.nodes))
	for k := 0; k < len(c.nodes); k++ {
		i := (sched + k) % len(c.nodes)
		if c.nodes[i].Running() {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		cands = append(cands, sched)
	}
	return cands
}

// waitNodes blocks until cond holds on every running node of nodes and
// reports whether it came to. It sleeps on the events of the first node
// still short of cond — whatever changes a node's height or pool fires
// one, and so does its stopping — under a timer for timeout; every
// timeout/4 it calls nudge (if any) on each node still short.
func waitNodes(nodes []*Node, timeout time.Duration, nudge func(*Node), cond func(*Node) bool) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var nudges <-chan time.Time
	if every := timeout / 4; nudge != nil && every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		nudges = t.C
	}
	short := func(n *Node) bool { return n.Running() && !cond(n) }
	for {
		var woken <-chan struct{}
		for _, n := range nodes {
			// Taken before the check: an event in between still wakes us.
			if ch := n.events.wait(); short(n) {
				woken = ch
				break
			}
		}
		if woken == nil {
			return true
		}
		select {
		case <-woken:
		case <-nudges:
			for _, n := range nodes {
				if short(n) {
					nudge(n)
				}
			}
		case <-deadline.C:
			return false
		}
	}
}

// WaitPooled blocks until every running node has at least n
// transactions pooled — the point from which the scheduled proposer,
// whichever node that is, packs all of a batch submitted through one
// node — and reports whether that happened within timeout.
func (c *Cluster) WaitPooled(n int, timeout time.Duration) bool {
	return waitNodes(c.nodes, timeout, nil, func(node *Node) bool { return node.MempoolSize() >= n })
}

// Commit attempts that built no block but may succeed on a retry: the
// proposer could not catch up with the best node in time, or (when
// CommitAll asks) it holds no transaction it could propose.
var (
	errBehind = errors.New("chain: proposer stuck behind")
	errNoWork = errors.New("chain: proposer has nothing to propose")
)

// commitVia runs one commit attempt through proposer p within timeout:
// sync p if it lags, produce the block, then wait until every running
// node applied it, nudging laggards with sync requests every timeout/4
// (a node that lost the block broadcast to message loss recovers this
// way). No stage polls: each sleeps on node events under a timer.
// Mirrors Commit's contract: (nil, err) when no block was produced,
// (blk, wrapped ErrNoQuorum) when produced but not fully replicated.
// With needWork set, a caught-up p that holds nothing proposable builds
// no block and the attempt fails with errNoWork.
func (c *Cluster) commitVia(p *Node, timeout time.Duration, needWork bool) (*ledger.Block, error) {
	// Bring a lagging proposer (e.g. freshly healed from a partition or
	// restarted after a crash) up to date before it builds on a stale
	// head.
	ref := c.ref()
	if p.Height() < ref.Height() {
		p.requestSync(ref.ID())
		waitNodes([]*Node{p}, timeout, nil, func(n *Node) bool { return n.Height() >= ref.Height() })
		if p.Height() < ref.Height() {
			return nil, fmt.Errorf("%w: %s at height %d", errBehind, p.ID(), p.Height())
		}
	}
	if needWork && len(p.takeMempool(1)) == 0 {
		return nil, errNoWork
	}
	blk, err := p.produceBlock(c.cfg.MaxBlockTxs, timeout)
	if err != nil {
		return nil, err
	}
	replicated := waitNodes(c.nodes, timeout,
		func(n *Node) { n.requestSync(p.ID()) },
		func(n *Node) bool { return n.Height() >= blk.Header.Height })
	if !replicated {
		return blk, fmt.Errorf("chain: %w: block %d not replicated everywhere", ErrNoQuorum, blk.Header.Height)
	}
	return blk, nil
}

// Commit produces one block and waits until every running node has
// applied it. The scheduled proposer goes first; if it is down or its
// round fails outright, Commit fails over to the next running candidate
// (see proposerCandidates) within the same CommitTimeout. A round that produced a block but could not replicate
// it everywhere returns the block alongside the error: the chain
// advanced on the quorum side and a substitute proposer must not fork
// it.
func (c *Cluster) Commit() (*ledger.Block, error) { return c.commit(false) }

// commit is Commit; with needWork set, a candidate holding nothing it
// could propose is passed over instead of asked for an empty block.
func (c *Cluster) commit(needWork bool) (*ledger.Block, error) {
	cands := c.proposerCandidates()
	budget := c.cfg.CommitTimeout / time.Duration(len(cands))
	var lastErr error
	for _, i := range cands {
		blk, err := c.commitVia(c.nodes[i], budget, needWork)
		if blk != nil || err == nil {
			return blk, err
		}
		lastErr = fmt.Errorf("proposer %s: %w", c.nodes[i].ID(), err)
	}
	return nil, fmt.Errorf("chain: all %d proposer candidates failed: %w", len(cands), lastErr)
}

// fullestPool returns the largest mempool among running nodes.
func (c *Cluster) fullestPool() int {
	most := 0
	for _, n := range c.nodes {
		if n.Running() {
			most = max(most, n.MempoolSize())
		}
	}
	return most
}

// awaitWork sleeps on p's events until p holds as many transactions as
// the fullest running pool: as it was when the wait began, or as it is
// now if it has shrunk since. The timer is a backoff step, started over
// each time p's pool grows, so a proposer still receiving gossip —
// however slowly a loaded host runs it — is never cut short. A step
// that passes with nothing reaching p re-gossips every pool and moves
// to the next, longer step; after commitAllRetries such steps in a row,
// or once p stops, the wait gives up and p proposes whatever it holds.
func (c *Cluster) awaitWork(p *Node, backoff *resilience.Backoff) {
	target := c.fullestPool()
	var step time.Duration
	for quiet := 0; quiet < commitAllRetries && p.Running(); {
		// The target never grows: a client still submitting through
		// another node must not keep p waiting. It shrinks when a
		// follower prunes the last block's transactions only after the
		// replication wait saw its height.
		held := p.MempoolSize()
		if held >= min(target, c.fullestPool()) {
			return
		}
		if step == 0 {
			step = backoff.Next()
		}
		if waitNodes([]*Node{p}, step, nil, func(n *Node) bool { return n.MempoolSize() > held }) {
			quiet = 0
		} else {
			c.ResubmitPending()
			quiet, step = quiet+1, 0
		}
	}
}

// commitAllRetries bounds the quiet steps CommitAll waits for a
// proposer's pool, and the consecutive failed rounds it rides out.
const commitAllRetries = 3

// CommitAll commits blocks until every running node's mempool is empty,
// returning the number of blocks produced. A round starts when the
// proposer the next Commit asks first (Proposer) holds the work:
// CommitAll sleeps on that node's events until it holds as many
// transactions as the fullest running pool, under a backoff step (1 ms,
// doubling to 50 ms) that starts over while its pool grows. A step that
// passes with nothing arriving — gossip lost, or a transaction the
// proposer refused — re-gossips; after commitAllRetries of them the
// proposer commits whatever it holds. No candidate is asked to build an
// empty block: one with nothing to propose is passed over, and a round
// in which none has anything fails like a round without quorum or one
// whose proposer could not catch up. Failed rounds are retried with the
// same backoff; after commitAllRetries consecutive ones CommitAll gives
// up, returning the blocks committed so far alongside an error wrapping
// resilience.ErrRetriesExhausted and each failed round's error.
func (c *Cluster) CommitAll() (int, error) {
	blocks := 0
	var failed []error
	backoff := &resilience.Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond}
	for c.fullestPool() > 0 {
		c.awaitWork(c.Proposer(), backoff)
		blk, err := c.commit(true)
		if blk != nil {
			blocks++
		}
		if err == nil {
			failed = nil
			backoff.Reset()
			continue
		}
		if !errors.Is(err, ErrNoQuorum) && !errors.Is(err, errBehind) && !errors.Is(err, errNoWork) {
			return blocks, err
		}
		if failed = append(failed, err); len(failed) >= commitAllRetries {
			return blocks, fmt.Errorf("chain: %w: %d rounds failed: %w",
				resilience.ErrRetriesExhausted, len(failed), errors.Join(failed...))
		}
		backoff.Sleep()
	}
	return blocks, nil
}

// ResubmitPending has every running node re-broadcast its pending
// transactions — recovery for gossip lost to drops or crashes
// (SubmitLocal is idempotent, so duplicates are free). The rebroadcast
// set comes from the pool's Take path, so it respects deadlines
// (expired transactions are dropped with a typed reason, not pushed
// back onto peers) and committed-nonce dedupe (a transaction already
// on chain, or whose nonce a committed transaction consumed, was
// pruned and cannot be resubmitted).
func (c *Cluster) ResubmitPending() {
	for _, n := range c.nodes {
		if !n.Running() {
			continue
		}
		for _, tx := range n.takeMempool(0) {
			_ = n.Gossip(tx)
		}
	}
}

// TotalGasUsed sums executed gas across all nodes — the cluster-wide
// cost of duplicated computing (E2's numerator).
func (c *Cluster) TotalGasUsed() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.GasUsed()
	}
	return total
}

// UsefulGasUsed is the gas one execution of the committed history
// costs (E2's denominator): the best node's gas.
func (c *Cluster) UsefulGasUsed() int64 { return c.ref().GasUsed() }

// VerifyConsistency checks all nodes share the same head hash and state
// root.
func (c *Cluster) VerifyConsistency() error {
	head := c.nodes[0].Chain().Head()
	root := c.nodes[0].State().Root()
	for i, n := range c.nodes[1:] {
		if h := n.Chain().Head(); h.Hash() != head.Hash() {
			return fmt.Errorf("chain: node %d head %s != node 0 head %s", i+1, h.Hash().Short(), head.Hash().Short())
		}
		if r := n.State().Root(); r != root {
			return fmt.Errorf("%w: node %d", ErrRootDiverged, i+1)
		}
	}
	return nil
}

// Close stops all nodes and the network.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
	c.net.Close()
}
