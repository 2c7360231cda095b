// Package chain assembles the full medical-blockchain node: mempool,
// consensus-driven block production, broadcast replication, and the
// replicated contract state machine. A Cluster wires N nodes over a
// p2p.Network and is the substrate of experiments E1 (scalability) and
// E2 (duplicated computation): every node validates every transaction
// and executes every contract, exactly the architecture the paper sets
// out to transform.
//
// Block production is explicitly driven (Cluster.Commit) so experiments
// are deterministic: the scheduled proposer packages its mempool and
// broadcasts the signed proposal with its own vote; every validator
// executes the proposal, checks the state root and broadcasts its vote
// to every validator; and each node that executed the block commits it
// on the 2f+1 vote certificate it assembles itself (consensus.Quorum,
// the chain's one engine) — two network hops after the proposal. The
// proposer, after its own commit, still broadcasts the certified block
// for any node that missed the proposal or the votes. A node commits on
// its own certificate only the block of the live round (liveRound): the
// one height and proposer the driver has asked to propose, so a round it
// failed over from commits nowhere afterwards.
package chain

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/parexec"
	"medchain/internal/resilience"
	"medchain/internal/store"
	"medchain/internal/vm"
)

// Message topics on the wire.
const (
	topicTx       = "chain/tx"
	topicProposal = "chain/proposal"
	topicVote     = "chain/vote"
	topicBlock    = "chain/block"
	topicSyncReq  = "chain/sync_req"
	topicSyncCont = "chain/sync_cont"
)

// voteWindow bounds how far past the committed height a node buffers
// proposals and votes. Anything outside (committed, committed+window]
// is dropped at ingest, which keeps the consensus buffers O(window ×
// validators) no matter how hard a peer spams.
const voteWindow = 4

// syncChunk caps the blocks served per sync request; a lagging peer
// paginates by re-requesting after each chunk (see handleSyncCont).
const syncChunk = 64

// Errors.
var (
	ErrStopped = errors.New("chain: node stopped")
	// ErrMempool means the transaction itself is invalid (it failed
	// ledger verification; the cause is wrapped). Load-dependent
	// rejections are ErrMempoolFull, never this —
	// gossip ingress scores the relay on exactly this distinction.
	ErrMempool      = errors.New("chain: mempool rejected transaction")
	ErrNoQuorum     = errors.New("chain: vote collection failed")
	ErrRootDiverged = errors.New("chain: state root diverged")
)

// EventRecord is a contract event annotated with its chain position;
// oracles (package oracle) consume these.
type EventRecord struct {
	// Height is the block the event was committed in.
	Height uint64 `json:"height"`
	// TxID is the emitting transaction.
	TxID cryptoutil.Digest `json:"tx_id"`
	// Event is the contract event.
	Event vm.Event `json:"event"`
}

// Node is one blockchain participant.
type Node struct {
	id  p2p.NodeID
	key *cryptoutil.KeyPair
	// quorum verifies votes and certificates against the validator set;
	// each node builds its own, so its verified-vote memo is never shared.
	quorum *consensus.Quorum

	// lifeMu guards the lifecycle: the current endpoint (nil while
	// stopped), the running flag, and the per-incarnation stop channel.
	// Stop detaches the node from the network; Restart rejoins and the
	// caller re-syncs via requestSync.
	lifeMu  sync.Mutex
	ep      p2p.Endpoint
	net     *p2p.Network // rejoin target for Restart; nil for injected endpoints
	running bool
	stopped chan struct{}
	wg      sync.WaitGroup

	// events is the node's one notification primitive: it fires when a
	// vote is buffered, a block is appended, a transaction is pooled, or
	// the node stops or restarts. Every wait on the commit path sleeps on
	// it (await, Cluster.waitNodes) instead of polling, and so does a
	// reader of the committed chain between two reads (WaitHeight).
	events signal

	// applyMu serializes block application (speculate + root check +
	// commit + append + persist): the proposer thread and the message
	// loop can both reach acceptBlock, and the durable WAL must receive
	// blocks in exactly commit order.
	applyMu sync.Mutex

	mu       sync.Mutex
	chain    *ledger.Chain
	state    *contract.State
	receipts map[cryptoutil.Digest]*contract.Receipt
	gasUsed  int64           // cumulative gas this node burned executing contracts
	exec     *parexec.Engine // block executor; replaced whole by SetExec

	// pool is the bounded priority mempool; admission is the
	// client-facing overload controller in front of it. Both have their
	// own locks and are fixed for the node's lifetime.
	pool      *Mempool
	admission *guard.Admission

	// storeOpts is the disk-backed node's storage engine configuration
	// (nil for memory-only nodes), fixed at construction.
	storeOpts *store.Options

	// persistMu guards the durable storage engine handle. st is nil for
	// memory-only nodes and while a disk-backed node is crashed.
	persistMu    sync.Mutex
	st           *store.Store
	lastRecovery *store.Recovered
	persistErrs  int64

	// votesMu guards the consensus ingress buffers: verified votes per
	// proposed block, the node's own one-vote-per-(height, proposer)
	// lock, the signed proposal headers and first votes held per height
	// (equivocation detection), locally reported evidence, the cached
	// signed proposal (an honest proposer must never sign two blocks at
	// one height), and the pending execution.
	votesMu sync.Mutex
	votes   map[cryptoutil.Digest]*voteSet
	votedAt map[uint64]map[cryptoutil.Address]*ledger.Block
	// proposalSeen holds, per height and block hash, the signed headers
	// of verified proposals: each proposer's first, and the conflicting
	// second of a double proposal. A vote is judged against the proposer
	// its block's header names.
	proposalSeen map[uint64]map[cryptoutil.Digest]consensus.SignedHeader
	voteSeen     map[uint64]map[voteSlot]consensus.Vote
	evidenceSeen map[string]bool
	lastProposal *consensus.SignedProposal
	pending      *pendingBlock // this node's execution of the block it last built or was proposed

	// round is the live round this node may commit on its own
	// certificate in: its own, or the one a Cluster's nodes share.
	round *liveRound

	// guard scores peer misbehavior and quarantines repeat offenders.
	// It is fixed for the node's lifetime.
	guard *guard.Guard

	// auditMu guards the nonce sequence for self-submitted audit
	// transactions (evidence reports).
	auditMu        sync.Mutex
	auditNonceNext uint64

	// syncMu guards the sync server/client bookkeeping: one in-flight
	// response stream per peer, the height we had at each peer's last
	// sync continuation (re-request only on progress, which bounds
	// amplification), and the client-side request pacing (so a lagging
	// honest node does not look like a sync-flooder to its peers).
	syncMu         sync.Mutex
	syncInflight   map[p2p.NodeID]bool
	syncProg       map[p2p.NodeID]uint64
	lastSyncHeight uint64
	lastSyncTime   time.Time
}

// pendingBlock is a node's one execution of a candidate for the next
// height — the block it built, or the proposal it was asked to vote on:
// run on write snapshots over the untouched live state, kept while the
// block is voted on, and materialised by acceptBlock if the block with
// that hash is what commits.
type pendingBlock struct {
	hash   cryptoutil.Digest
	height uint64
	spec   *parexec.Speculation
}

// voteSlot is what one vote of a voter at a height fills: one slot per
// proposer whose block the node holds the signed proposal of — the vote
// lock is per (height, proposer), so votes for two proposers' blocks
// are failover, not equivocation — and the zero-proposer slot for a
// block it holds no proposal of, which is buffered but never judged.
type voteSlot struct {
	voter, proposer cryptoutil.Address
}

// liveRound names the one round whose block a node may commit on the
// certificate it assembles itself: the height and the proposer the
// driver last asked to propose (produceBlock opens it). The vote lock is
// per (height, proposer), so honest validators may vote for a failed
// round's block and for its failover's; only one round may turn votes
// into a commit. Commits in the live round hold the read lock, and
// opening the next one waits for them, so a round is closed everywhere
// at once; a round that committed before it closed leaves its height
// certified, and no round at that height opens again.
type liveRound struct {
	mu        sync.RWMutex
	height    uint64
	proposer  cryptoutil.Address
	certified atomic.Uint64 // highest height committed on a node's own certificate
}

// open makes (height, proposer) the live round, closing the previous
// one on every node that shares r. It reports false, opening nothing,
// if a block was already committed at height.
func (r *liveRound) open(height uint64, proposer cryptoutil.Address) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.certified.Load() >= height {
		return false
	}
	r.height, r.proposer = height, proposer
	return true
}

// noteCertified records a commit at height on a node's own certificate;
// the caller holds the read lock.
func (r *liveRound) noteCertified(height uint64) {
	for {
		cur := r.certified.Load()
		if cur >= height || r.certified.CompareAndSwap(cur, height) {
			return
		}
	}
}

// Mutation seams (export_test.go sets them, nothing else does): accept
// any vote signature at ingress; accept any state root where a block's
// execution is compared with its header; commit on a certificate one
// vote short of 2f+1 and accept any seal.
var (
	skipVoteVerify bool
	skipRootCheck  bool
	skipCertQuorum bool
)

// signal is a generation channel: wait returns the current generation's
// channel and fire closes it, waking everyone who holds it. A waiter
// takes the channel before it checks its condition, so an event between
// the check and the select still wakes it. The zero value is ready; a
// fire with nobody waiting costs one mutex.
type signal struct {
	mu sync.Mutex
	ch chan struct{}
}

func (s *signal) wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

func (s *signal) fire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// await blocks until cond holds or timeout delivers, re-checking cond
// after every event on the node, and reports cond's last value.
func (n *Node) await(timeout <-chan time.Time, cond func() bool) bool {
	for {
		woken := n.events.wait()
		if cond() {
			return true
		}
		select {
		case <-woken:
		case <-timeout:
			return cond()
		}
	}
}

// voteSet accumulates verified votes for one proposed block.
type voteSet struct {
	height  uint64
	votes   []consensus.Vote
	byVoter map[cryptoutil.Address]bool
}

// NodeConfig is everything a node is built from; NewNode fixes it for
// the node's lifetime.
type NodeConfig struct {
	// ID is the network identity.
	ID p2p.NodeID
	// Key signs votes, seals, and identifies the node on chain.
	Key *cryptoutil.KeyPair
	// ChainID must match across the validators.
	ChainID string
	// Validators is the set the node's Quorum certifies blocks against.
	Validators *consensus.ValidatorSet
	// The node's transport is exactly one of Network, the simulated
	// network it joins (and rejoins on Restart), and Endpoint, one it is
	// handed already attached (e.g. a p2p.DialTCP endpoint for
	// multi-process deployments; such a node cannot Restart).
	Network  *p2p.Network
	Endpoint p2p.Endpoint
	// Store makes the node disk-backed: it recovers ledger, contract
	// state, receipts and nonces from Store.Dir on construction and on
	// Restart, so a process restart resumes at its durable height
	// instead of genesis. Store.ChainID is taken from ChainID. nil =
	// memory-only.
	Store *store.Options
	// Guard tunes the peer-misbehavior guard and Mempool bounds the
	// transaction pool; their zero values are the defaults.
	Guard   guard.Config
	Mempool MempoolConfig

	// round is the live round shared by a Cluster's nodes (nil = the
	// node's own).
	round *liveRound
}

// NewNode builds a node from cfg, recovers it from disk when cfg.Store
// is set, attaches it to its transport and starts its message loop.
// The recovery report is non-nil exactly when cfg.Store is set.
func NewNode(cfg NodeConfig) (*Node, *store.Recovered, error) {
	if (cfg.Network == nil) == (cfg.Endpoint == nil) {
		return nil, nil, fmt.Errorf("chain: node %s needs exactly one transport, a Network or an Endpoint", cfg.ID)
	}
	n := &Node{
		id:           cfg.ID,
		key:          cfg.Key,
		quorum:       consensus.NewQuorum(cfg.Validators),
		chain:        ledger.NewChain(cfg.ChainID),
		state:        contract.NewState(),
		exec:         parexec.NewEngine(parexec.Config{}),
		pool:         NewMempool(cfg.Mempool),
		admission:    guard.NewAdmission(guard.AdmissionConfig{}),
		receipts:     make(map[cryptoutil.Digest]*contract.Receipt),
		votes:        make(map[cryptoutil.Digest]*voteSet),
		votedAt:      make(map[uint64]map[cryptoutil.Address]*ledger.Block),
		proposalSeen: make(map[uint64]map[cryptoutil.Digest]consensus.SignedHeader),
		voteSeen:     make(map[uint64]map[voteSlot]consensus.Vote),
		evidenceSeen: make(map[string]bool),
		guard:        guard.New(cfg.Guard),
		syncInflight: make(map[p2p.NodeID]bool),
		syncProg:     make(map[p2p.NodeID]uint64),
		round:        cfg.round,
		net:          cfg.Network,
	}
	if n.round == nil {
		n.round = &liveRound{}
	}
	if cfg.Store != nil {
		opts := *cfg.Store
		opts.ChainID = cfg.ChainID
		n.storeOpts = &opts
		// Recover before the node can hear anything.
		if err := n.reopenStore(); err != nil {
			return nil, nil, err
		}
	}
	ep := cfg.Endpoint
	if n.net != nil {
		var err error
		if ep, err = n.net.Join(cfg.ID); err != nil {
			n.closeStore()
			return nil, nil, fmt.Errorf("chain: join network: %w", err)
		}
	}
	n.lifeMu.Lock()
	n.start(ep)
	n.lifeMu.Unlock()
	return n, n.LastRecovery(), nil
}

// start attaches the node to a transport and runs the message loop;
// the caller holds lifeMu.
func (n *Node) start(ep p2p.Endpoint) {
	n.ep = ep
	n.running = true
	n.stopped = make(chan struct{})
	n.wg.Add(1)
	go n.loop(ep, n.stopped)
}

// ID returns the node's network identity.
func (n *Node) ID() p2p.NodeID { return n.id }

// Address returns the node's chain address.
func (n *Node) Address() cryptoutil.Address { return n.key.Address() }

// Chain exposes the node's ledger (read-only use).
func (n *Node) Chain() *ledger.Chain { return n.chain }

// State exposes the node's contract state (read-only use).
func (n *Node) State() *contract.State { return n.state }

// SetHost installs oracle host functions on the node's state machine.
func (n *Node) SetHost(host map[string]vm.HostFunc) { n.state.SetHost(host) }

// SetExec replaces the node's block executor; the default
// parexec.Config{} runs a block's transactions one after another. Every
// mode is bit-identical to serial execution, so a cluster may freely
// mix modes across nodes — consensus itself then acts as a
// cross-engine differential oracle. Under ModeMVCCWave, HOST functions
// installed via SetHost may be called concurrently and must be safe
// for concurrent use.
func (n *Node) SetExec(cfg parexec.Config) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.exec = parexec.NewEngine(cfg)
}

// executor returns the installed block executor.
func (n *Node) executor() *parexec.Engine {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.exec
}

// ExecStats returns the execution counters accumulated since the last
// SetExec.
func (n *Node) ExecStats() parexec.Stats { return n.executor().Stats() }

// GasUsed returns the cumulative gas this node burned executing
// transactions (its share of the cluster's duplicated computation).
func (n *Node) GasUsed() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gasUsed
}

// Height returns the node's chain height. It is safe to call from a
// goroutine that outlives a Stop/Restart cycle (a tailer's): a
// disk-backed restart swaps the ledger under mu.
func (n *Node) Height() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.chain.Height()
}

// WaitHeight blocks until the node's chain is at least h blocks high or
// ctx is done, sleeping on the node's events in between — what a
// tailer does between two reads of Committed.
func (n *Node) WaitHeight(ctx context.Context, h uint64) error {
	for {
		woken := n.events.wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		if n.Height() >= h {
			return nil
		}
		select {
		case <-woken:
		case <-ctx.Done():
		}
	}
}

// Receipt returns the receipt of a committed transaction.
func (n *Node) Receipt(txID cryptoutil.Digest) (*contract.Receipt, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.receipts[txID]
	return r, ok
}

// Committed is the one read path over the committed chain (DESIGN.md
// "Reading the chain"): it hands fn every block above after, in height
// order, with that block's receipts aligned to blk.Txs, and returns the
// height it read through — after itself when nothing is new. It reads
// only blocks the ledger has appended, one lookup per new block, and
// calls fn on the caller's goroutine with no node lock held. A reader
// that keeps the returned height as its cursor therefore sees exactly
// the committed blocks, once, in order, also across a restart below its
// cursor: the cursor just waits for the chain to pass it again.
func (n *Node) Committed(after uint64, fn func(blk *ledger.Block, receipts []*contract.Receipt)) uint64 {
	for {
		blk, receipts := n.committedAt(after + 1)
		if blk == nil {
			return after
		}
		fn(blk, receipts)
		after++
	}
}

// committedAt reads one block with its receipts under mu, the lock
// adoptRecovered swaps ledger and receipts under, so the pair is always
// of one ledger. Every appended block has its receipts: acceptBlock
// records them before the append, recovery returns them with the ledger.
func (n *Node) committedAt(height uint64) (*ledger.Block, []*contract.Receipt) {
	n.mu.Lock()
	defer n.mu.Unlock()
	blk, err := n.chain.BlockAt(height)
	if err != nil {
		return nil, nil
	}
	receipts := make([]*contract.Receipt, len(blk.Txs))
	for i, tx := range blk.Txs {
		receipts[i] = n.receipts[tx.ID()]
	}
	return blk, receipts
}

// EventsSince flattens Committed into the contract events committed
// above a height, in commit order.
func (n *Node) EventsSince(height uint64) []EventRecord {
	var out []EventRecord
	n.Committed(height, func(blk *ledger.Block, receipts []*contract.Receipt) {
		for _, r := range receipts {
			for _, ev := range r.Events {
				out = append(out, EventRecord{Height: blk.Header.Height, TxID: r.TxID, Event: ev})
			}
		}
	})
	return out
}

// mempoolFullRetryAfter is the backpressure hint attached when the
// bounded pool itself (not the admission controller) rejects: roughly
// one commit round, after which capacity has usually drained.
const mempoolFullRetryAfter = 50 * time.Millisecond

// SubmitLocal validates a transaction into the local mempool (no
// gossip): signature verification, committed/pending dedupe, overload
// shedding by the admission controller, then bounded-pool admission
// (nonce contiguity, deadline, capacity). Rejections are typed — a
// transaction that fails verification returns ErrMempool wrapping the
// ledger's reason, and a shed or pool-full one ErrMempoolFull with a
// retry-after hint (resilience.RetryAfterHint reads it) — and
// duplicates are silently idempotent, which gossip re-delivery depends
// on. The signature check goes through the chain's verified set, so the
// proposal and block that later carry the transaction do not repeat the
// ECDSA work on this node.
func (n *Node) SubmitLocal(tx *ledger.Transaction) error {
	id, err := n.chain.VerifyTx(tx)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMempool, err)
	}
	if n.chain.HasTx(id) || n.pool.Contains(id) {
		return nil // idempotent
	}
	class := ClassOf(tx.Type)
	if d := n.admission.Decide(tx.From.String(), class, txSize(tx), n.pool.Fill()); !d.Admit {
		// Overload shedding is fill-driven: to the client it is the pool
		// being effectively full for its priority class.
		return resilience.WithRetryAfter(
			fmt.Errorf("%w: %s (admission state %s)", ErrMempoolFull, d.Reason, d.State), d.RetryAfter)
	}
	err = n.pool.Add(tx, class, n.chain.NextNonce(tx.From), n.chain.Height())
	switch {
	case err == nil:
		n.events.fire()
		return nil
	case errors.Is(err, ledger.ErrDuplicateTx):
		return nil // idempotent
	case errors.Is(err, ErrMempoolFull):
		return resilience.WithRetryAfter(err, mempoolFullRetryAfter)
	default:
		return err
	}
}

// Gossip broadcasts a transaction to every node (including storing it
// locally) — the paper's broadcast protocol for intent ledger
// modifications.
func (n *Node) Gossip(tx *ledger.Transaction) error {
	ep := n.endpoint()
	if ep == nil {
		return ErrStopped
	}
	if err := n.SubmitLocal(tx); err != nil {
		return err
	}
	body, err := tx.Encode()
	if err != nil {
		return err
	}
	return ep.BroadcastMsg(topicTx, body)
}

// MempoolSize returns the number of pending transactions.
func (n *Node) MempoolSize() int { return n.pool.Size() }

// MempoolStats snapshots the bounded pool's occupancy and typed drop
// counters.
func (n *Node) MempoolStats() MempoolStats { return n.pool.Stats() }

// AdmissionStats snapshots the admission controller (overload state,
// admit/reject counters per reason).
func (n *Node) AdmissionStats() guard.AdmissionStats { return n.admission.Stats() }

// OverloadState returns the admission controller's current position in
// the healthy → shedding → saturated machine, advanced against the
// pool's present fill.
func (n *Node) OverloadState() guard.OverloadState {
	return n.admission.State(n.pool.Fill())
}

// PendingNonce returns the nonce a client of this node must sign next:
// the chain's committed expectation plus the sender's pending run. A
// block landing between the two reads (the chain advances, then the
// pool drops what committed) would leave a stale expectation counting
// over a pruned pool, so the pair is re-read until the chain held still.
func (n *Node) PendingNonce(addr cryptoutil.Address) uint64 {
	for {
		committed := n.chain.NextNonce(addr)
		next := n.pool.NextNonce(addr, committed)
		if n.chain.NextNonce(addr) == committed {
			return next
		}
	}
}

// endpoint returns the node's current transport, or nil while stopped.
func (n *Node) endpoint() p2p.Endpoint {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	return n.ep
}

// Running reports whether the node's message loop is alive.
func (n *Node) Running() bool {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	return n.running
}

// Stop crashes the node: it detaches from the network (dropping all
// in-flight messages), halts the message loop, and waits for it to
// exit. In-memory ledger, state, and mempool are retained. A
// disk-backed node additionally drops its storage handle WITHOUT a
// final sync — Stop is the process dying, and whatever the group
// commit had not fsynced is exactly what crash recovery must cope
// with. Restart brings the node back. Stop is idempotent.
func (n *Node) Stop() {
	n.lifeMu.Lock()
	if !n.running {
		n.lifeMu.Unlock()
		return
	}
	n.running = false
	close(n.stopped)
	ep := n.ep
	n.ep = nil
	n.lifeMu.Unlock()
	n.events.fire()
	if ep != nil {
		ep.Close()
	}
	n.wg.Wait()
	n.closeStore()
}

// closeStore closes a disk-backed node's storage engine, if open.
func (n *Node) closeStore() {
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	if n.st != nil {
		n.st.Close()
		n.st = nil
	}
}

// Restart rejoins the network after Stop and resumes the message loop.
// A memory-only node comes back at its pre-crash height. A disk-backed
// node first recovers from its data directory — truncating any torn
// WAL tail, loading the newest snapshot, and replaying the durable
// suffix — so it comes back at its durable height, which may trail the
// pre-crash height by up to the group-commit window. Callers re-sync
// it with requestSync (Cluster.RestartNode does this automatically).
// Restart on a running node is a no-op.
func (n *Node) Restart() error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.running {
		return nil
	}
	if n.net == nil {
		return fmt.Errorf("chain: node %s has no network to rejoin", n.id)
	}
	if err := n.reopenStore(); err != nil {
		return err
	}
	ep, err := n.net.Join(n.id)
	if err != nil {
		n.closeStore()
		return fmt.Errorf("chain: rejoin network: %w", err)
	}
	n.start(ep)
	n.events.fire()
	return nil
}

// Close shuts the node down gracefully: durable storage is synced
// before the loop stops, so a Close/reopen cycle loses nothing.
func (n *Node) Close() {
	n.persistMu.Lock()
	if n.st != nil {
		_ = n.st.Sync()
	}
	n.persistMu.Unlock()
	n.Stop()
}

// loop consumes network messages until this incarnation stops. It
// captures its own endpoint and stop channel so a concurrent
// Stop/Restart cycle cannot hand it the next incarnation's transport.
func (n *Node) loop(ep p2p.Endpoint, stopped chan struct{}) {
	defer n.wg.Done()
	for {
		select {
		case <-stopped:
			return
		case msg, ok := <-ep.Inbox():
			if !ok {
				return
			}
			n.handle(ep, msg)
		}
	}
}

// handle is the validated ingress pipeline: every message is checked
// at the protocol boundary — signatures, membership, height windows —
// before it can touch consensus or state, and each rejection
// is scored against the sending peer. A peer whose score crosses the
// quarantine threshold is silenced entirely for gossip; only committed
// blocks are still accepted from it, because a block carries its own
// quorum certificate and so does not borrow authority from the relay
// (and a misclassified honest peer must still be able to feed us the
// chain).
func (n *Node) handle(ep p2p.Endpoint, msg p2p.Message) {
	from := string(msg.From)
	if msg.Topic != topicBlock && n.guard.Quarantined(from) {
		n.noteQuarantinedDrop()
		return
	}
	switch msg.Topic {
	case topicTx:
		tx, err := ledger.DecodeTransaction(msg.Payload)
		if err == nil {
			// Only a failed verification is the relay's offense;
			// admission and pool rejections are load, not misbehavior.
			if err = n.SubmitLocal(tx); !errors.Is(err, ErrMempool) {
				return
			}
		}
		n.guard.Record(from, guard.OffenseMalformed)

	case topicProposal:
		n.handleProposal(ep, msg)

	case topicVote:
		n.handleVote(msg)

	case topicBlock:
		blk, err := ledger.DecodeBlock(msg.Payload)
		if err != nil {
			n.guard.Record(from, guard.OffenseMalformed)
			return
		}
		if blk.Header.Height > n.chain.Height()+1 {
			// We fell behind (partition, restart): ask the sender for
			// the gap. The fresh block will be re-delivered by the
			// sync response.
			n.requestSyncPaced(msg.From)
			return
		}
		if err := n.acceptBlock(blk); err != nil && isSealError(err) {
			// Ledger validation failures (wrong parent, stale height)
			// can be honest divergence during catch-up and are not
			// scored; a bad seal or forged certificate cannot be.
			n.guard.Record(from, guard.OffenseInvalidSeal)
		}

	case topicSyncReq:
		n.handleSyncReq(ep, msg)

	case topicSyncCont:
		n.handleSyncCont(msg)
	}
}

// isSealError reports whether a block rejection is a certificate
// failure (attributable misbehavior: an undecodable or mismatched
// certificate, a non-validator proposer, fewer than 2f+1 valid votes)
// rather than a chain-state mismatch.
func isSealError(err error) bool {
	return errors.Is(err, consensus.ErrBadSeal) ||
		errors.Is(err, consensus.ErrNotValidator) ||
		errors.Is(err, consensus.ErrQuorumTooSmall)
}

// handleProposal ingests a signed block proposal: the proposer must be
// a current validator and the proposal signature must verify before
// the block body is even validated. Conflicting proposals at one
// height are packaged as on-chain equivocation evidence instead of a
// vote; a valid proposal is executed, and answered with a height-locked
// vote only if this node reproduced its state root. The vote goes to
// every validator, and counts towards the certificate this node
// assembles for the block itself.
func (n *Node) handleProposal(ep p2p.Endpoint, msg p2p.Message) {
	vals := n.quorum.Validators()
	from := string(msg.From)
	sp, err := consensus.DecodeSignedProposal(msg.Payload)
	if err != nil {
		n.guard.Record(from, guard.OffenseMalformed)
		return
	}
	blk := sp.Block
	height := blk.Header.Height
	proposer := blk.Header.Proposer
	if !vals.Contains(proposer) {
		n.guard.Record(from, guard.OffenseBadProposal)
		return
	}
	if err := sp.Verify(vals); err != nil {
		n.guard.Record(from, guard.OffenseBadProposal)
		return
	}
	// From here the proposal is authentic: it is signed by the
	// validator it names, so misbehavior recorded below is the
	// proposer's own, not a relay artifact.
	committed := n.chain.Height()
	if height <= committed || height > committed+voteWindow {
		return // outside the live window: not votable, not an offense
	}
	if ev := n.noteProposal(height, sp.Header()); ev != nil {
		n.guard.Record(from, guard.OffenseEquivocation)
		n.reportEvidence(ev)
		return // never vote for an equivocating proposer's block
	}
	if err := n.previewProposal(blk); err != nil {
		// No vote, and the one-vote-per-height lock stays free. A root
		// this node cannot reproduce is the proposer's offense; anything
		// else is likely honest head divergence the sync path reconciles.
		if errors.Is(err, ErrRootDiverged) {
			n.guard.Record(from, guard.OffenseBadProposal)
		}
		return
	}
	vote, ok := n.lockAndSignVote(blk)
	if !ok {
		return
	}
	_ = ep.BroadcastMsg(topicVote, vote.Encode())
	n.addVote(vote)
	n.commitOnCert()
}

// handleVote ingests a vote: it must decode, fall in the live height
// window, and verify against the validator set (signature over the
// height-bound digest) before it is buffered; per-voter dedupe and
// double-vote evidence come from the first-vote record. A buffered vote
// may complete the certificate of the block this node executed.
func (n *Node) handleVote(msg p2p.Message) {
	from := string(msg.From)
	v, err := consensus.DecodeVote(msg.Payload)
	if err != nil {
		n.guard.Record(from, guard.OffenseMalformed)
		return
	}
	// The window comes before the signature: once a node commits on its
	// own certificate, the votes it did not need still arrive, and a
	// vote for a committed height costs nothing to drop — forged or not.
	committed := n.chain.Height()
	if v.Height <= committed || v.Height > committed+voteWindow {
		return // stale or far-future vote: bounded buffers over accuracy
	}
	if !skipVoteVerify {
		if err := n.quorum.VerifyVote(v); err != nil {
			n.guard.Record(from, guard.OffenseInvalidVote)
			return
		}
	}
	ev, fresh := n.noteVote(v)
	if ev != nil {
		n.guard.Record(from, guard.OffenseEquivocation)
		n.reportEvidence(ev)
		return
	}
	if !fresh {
		return // duplicate from this voter at this height
	}
	n.addVote(v)
	n.commitOnCert()
}

// noteProposal records the signed header of a verified proposal —
// each proposer's first at a height, and the conflicting second of a
// double proposal, so that votes for either block can be judged — and
// returns double-proposal evidence on a conflict. Re-sends of the same
// block are idempotent.
func (n *Node) noteProposal(height uint64, sh consensus.SignedHeader) *consensus.Evidence {
	n.votesMu.Lock()
	defer n.votesMu.Unlock()
	hash := sh.Header.Hash()
	headers := n.proposalSeen[height]
	if headers == nil {
		headers = make(map[cryptoutil.Digest]consensus.SignedHeader)
		n.proposalSeen[height] = headers
	}
	if _, ok := headers[hash]; ok {
		return nil
	}
	var prior *consensus.SignedHeader
	held := 0
	for _, other := range headers {
		if other.Header.Proposer == sh.Header.Proposer {
			prior = &other
			held++
		}
	}
	if held < 2 {
		// A third header is not kept: two already prove the proposer's
		// equivocation, and the record per proposer stays bounded.
		headers[hash] = sh
	}
	if prior == nil {
		return nil
	}
	ev, err := consensus.NewDoubleProposalEvidence(*prior, sh)
	if err != nil {
		return nil
	}
	return ev
}

// noteVote records the first vote seen from each voter at each height
// for each proposer, the proposer read from the signed header of the
// voted block this node holds. It returns double-vote evidence on a
// vote for a second block of the same proposer, and fresh=false for
// exact duplicates. A vote for a block whose proposal this node does
// not hold fills the voter's one unjudged slot at the height: a second
// such vote is dropped, and none is ever judged — no evidence is built
// without the headers.
func (n *Node) noteVote(v consensus.Vote) (*consensus.Evidence, bool) {
	n.votesMu.Lock()
	defer n.votesMu.Unlock()
	slot := voteSlot{voter: v.Voter}
	sh, known := n.proposalSeen[v.Height][v.Block]
	if known {
		slot.proposer = sh.Header.Proposer
	}
	slots := n.voteSeen[v.Height]
	if slots == nil {
		slots = make(map[voteSlot]consensus.Vote)
		n.voteSeen[v.Height] = slots
	}
	first, ok := slots[slot]
	if !ok {
		slots[slot] = v
		return nil, true
	}
	if first.Block == v.Block || !known {
		return nil, false
	}
	ev, err := consensus.NewDoubleVoteEvidence(first, v, n.proposalSeen[v.Height][first.Block], sh)
	if err != nil {
		return nil, false
	}
	return ev, false
}

// addVote buffers a verified, windowed, first-per-voter vote.
func (n *Node) addVote(v consensus.Vote) {
	n.votesMu.Lock()
	defer n.votesMu.Unlock()
	vs := n.votes[v.Block]
	if vs == nil {
		vs = &voteSet{height: v.Height, byVoter: make(map[cryptoutil.Address]bool)}
		n.votes[v.Block] = vs
	}
	if vs.byVoter[v.Voter] {
		return
	}
	vs.byVoter[v.Voter] = true
	vs.votes = append(vs.votes, v)
	n.events.fire()
}

// lockAndSignVote enforces one vote per (height, proposer): the first
// vote for a proposer's block at a height locks this node to that
// hash; re-voting the same block is idempotent (proposal retries
// depend on it) while a conflicting second block from the same
// proposer gets no vote. A single equivocating proposer therefore
// cannot harvest conflicting honest votes and fork the chain, yet
// proposer failover — a different validator re-proposing the height —
// stays live. (Locking across proposers would need a full view-change
// protocol to stay live under faults; see DESIGN.md.) The vote is
// signed through the node's Quorum, which memoises it: it comes back in
// the certificate this node assembles. The lock keeps the block, the
// one commitOnCert may commit when its proposer's round is live.
func (n *Node) lockAndSignVote(blk *ledger.Block) (consensus.Vote, bool) {
	height, hash, proposer := blk.Header.Height, blk.Hash(), blk.Header.Proposer
	n.votesMu.Lock()
	byProposer := n.votedAt[height]
	if byProposer == nil {
		byProposer = make(map[cryptoutil.Address]*ledger.Block)
		n.votedAt[height] = byProposer
	}
	if prev, ok := byProposer[proposer]; ok && prev.Hash() != hash {
		n.votesMu.Unlock()
		return consensus.Vote{}, false
	}
	byProposer[proposer] = blk
	n.votesMu.Unlock()
	vote, err := n.quorum.SignVote(height, hash, n.key)
	if err != nil {
		return consensus.Vote{}, false
	}
	return vote, true
}

func evidenceRef(kind consensus.EvidenceKind, height uint64, offender cryptoutil.Address) string {
	return fmt.Sprintf("%s/%d/%s", kind, height, offender)
}

// reportEvidence submits verified equivocation evidence as an on-chain
// audit transaction and gossips it to the cluster, deduping locally so
// each offense is reported once per detecting node (the audit contract
// dedupes across reporters). The transaction is signed with the node's
// validator key; its timestamp derives from the offense height so
// replicas that detect the same equivocation produce byte-identical
// reports.
func (n *Node) reportEvidence(ev *consensus.Evidence) {
	if err := ev.Verify(n.quorum.Validators()); err != nil {
		return // never forward evidence we cannot verify ourselves
	}
	ref := evidenceRef(ev.Kind, ev.Height, ev.Offender)
	n.votesMu.Lock()
	if n.evidenceSeen[ref] {
		n.votesMu.Unlock()
		return
	}
	n.evidenceSeen[ref] = true
	n.votesMu.Unlock()
	raw, err := ev.Encode()
	if err != nil {
		return
	}
	args, err := json.Marshal(contract.ReportEvidenceArgs{
		Kind: string(ev.Kind), Height: ev.Height, Offender: ev.Offender, Evidence: raw,
	})
	if err != nil {
		return
	}
	tx := &ledger.Transaction{
		Type:      ledger.TxAudit,
		Contract:  contract.AuditContractAddr,
		Method:    "report_evidence",
		Args:      args,
		Nonce:     n.nextAuditNonce(),
		Timestamp: int64(ev.Height),
	}
	if err := tx.Sign(n.key); err != nil {
		return
	}
	_ = n.Gossip(tx)
}

// nextAuditNonce returns the next nonce for a self-submitted audit
// transaction. The validator key only ever signs audit transactions,
// so the sequence is the max of the chain's committed expectation and
// what this node already has in flight.
func (n *Node) nextAuditNonce() uint64 {
	n.auditMu.Lock()
	defer n.auditMu.Unlock()
	next := n.chain.NextNonce(n.key.Address())
	if n.auditNonceNext > next {
		next = n.auditNonceNext
	}
	n.auditNonceNext = next + 1
	return next
}

// handleSyncReq rate-limits and dispatches a peer's catch-up request.
// Responses are served off the message loop (one stream per peer at a
// time) so a deep catch-up — or a sync flood — cannot stall ingress.
func (n *Node) handleSyncReq(ep p2p.Endpoint, msg p2p.Message) {
	from := string(msg.From)
	var have uint64
	if err := json.Unmarshal(msg.Payload, &have); err != nil {
		n.guard.Record(from, guard.OffenseMalformed)
		return
	}
	if !n.guard.AllowSync(from) {
		n.guard.Record(from, guard.OffenseSyncFlood)
		return
	}
	n.syncMu.Lock()
	if n.syncInflight[msg.From] {
		n.syncMu.Unlock()
		return
	}
	n.syncInflight[msg.From] = true
	n.syncMu.Unlock()
	n.wg.Add(1)
	go n.serveSync(ep, msg.From, have)
}

// serveSync streams at most syncChunk blocks to a lagging peer. If the
// peer is still behind afterwards it learns our head via sync_cont and
// re-requests — pagination bounds the bytes any single request can
// pull out of us.
func (n *Node) serveSync(ep p2p.Endpoint, peer p2p.NodeID, have uint64) {
	defer n.wg.Done()
	defer func() {
		n.syncMu.Lock()
		delete(n.syncInflight, peer)
		n.syncMu.Unlock()
	}()
	head := n.chain.Height()
	end := have + syncChunk
	if end > head {
		end = head
	}
	for h := have + 1; h <= end; h++ {
		blk, err := n.chain.BlockAt(h)
		if err != nil {
			return
		}
		body, err := blk.Encode()
		if err != nil {
			return
		}
		if err := ep.Send(peer, topicBlock, body); err != nil {
			return
		}
	}
	if end < head {
		if body, err := json.Marshal(head); err == nil {
			_ = ep.Send(peer, topicSyncCont, body)
		}
	}
}

// handleSyncCont continues a paginated catch-up: re-request only if
// the serving peer is still ahead AND we made progress since its last
// continuation, so a malicious stream of continuations cannot make us
// amplify sync traffic.
func (n *Node) handleSyncCont(msg p2p.Message) {
	var peerHead uint64
	if err := json.Unmarshal(msg.Payload, &peerHead); err != nil {
		n.guard.Record(string(msg.From), guard.OffenseMalformed)
		return
	}
	height := n.chain.Height()
	if peerHead <= height {
		return
	}
	n.syncMu.Lock()
	last, seen := n.syncProg[msg.From]
	if seen && height <= last {
		n.syncMu.Unlock()
		return
	}
	n.syncProg[msg.From] = height
	n.syncMu.Unlock()
	n.requestSync(msg.From)
}

// noteQuarantinedDrop counts an ingress drop from a quarantined peer
// in the network-level stats (simulated networks only).
func (n *Node) noteQuarantinedDrop() {
	if n.net != nil {
		n.net.NoteQuarantined(n.id)
	}
}

// Guard exposes the node's peer guard for stats and invariant checks.
func (n *Node) Guard() *guard.Guard { return n.guard }

// GuardStats returns the node's peer-scoring snapshot.
func (n *Node) GuardStats() guard.Stats { return n.guard.Stats() }

// VoteBufferSize returns the number of buffered consensus artifacts
// (votes, first-vote records, proposal records). The height window
// plus per-voter dedupe keeps it O(voteWindow × validators) for votes
// on blocks nobody proposed — the bound the vote-spam regression test
// asserts — and a voter adds at most one record per proposal the node
// holds (two per proposer) on top.
func (n *Node) VoteBufferSize() int {
	n.votesMu.Lock()
	defer n.votesMu.Unlock()
	total := 0
	for _, vs := range n.votes {
		total += len(vs.votes)
	}
	for _, m := range n.voteSeen {
		total += len(m)
	}
	for _, m := range n.proposalSeen {
		total += len(m)
	}
	return total
}

// requestSync asks a peer for all blocks after our head. A stopped
// node silently skips the request.
func (n *Node) requestSync(peer p2p.NodeID) {
	ep := n.endpoint()
	if ep == nil {
		return
	}
	body, err := json.Marshal(n.chain.Height())
	if err != nil {
		return
	}
	_ = ep.Send(peer, topicSyncReq, body)
}

// requestSyncPaced is the gap-triggered variant used by block ingress:
// while a catch-up is pending, every further broadcast block still
// shows a height gap, and re-requesting for each would trip the
// server's sync-rate limiter — so at most one request goes out per
// head height per pacing interval. Deliberate recovery nudges
// (cluster restart/heal paths) use requestSync directly.
func (n *Node) requestSyncPaced(peer p2p.NodeID) {
	height := n.chain.Height()
	n.syncMu.Lock()
	if height == n.lastSyncHeight && time.Since(n.lastSyncTime) < 500*time.Millisecond {
		n.syncMu.Unlock()
		return
	}
	n.lastSyncHeight, n.lastSyncTime = height, time.Now()
	n.syncMu.Unlock()
	n.requestSync(peer)
}

// acceptBlock is the one way a block changes this node, whoever built
// it and however it arrived (own proposal, broadcast, sync): verify the
// seal and the ledger rules, execute the block on write snapshots over
// the untouched live state — or take the execution this node already
// made of it when it built or voted on it — compare the root that
// leaves with the header's, and only on a match materialise it and
// append. A block that fails any check has touched nothing. It is
// idempotent for already-known heights. applyMu keeps application
// single-file: the proposer thread and the message loop both land here,
// and the durable WAL must see blocks in commit order.
func (n *Node) acceptBlock(blk *ledger.Block) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if blk.Header.Height <= n.chain.Height() {
		return nil // already have it
	}
	if err := n.quorum.VerifySeal(blk); err != nil && !skipCertQuorum {
		return err
	}
	valid, spec, err := n.speculate(blk)
	if err != nil {
		return err
	}
	receipts := n.executor().Commit(spec)
	n.mu.Lock()
	for _, r := range receipts {
		n.receipts[r.TxID] = r
		n.gasUsed += r.GasUsed
	}
	n.mu.Unlock()
	if err := n.chain.AppendValidated(valid); err != nil {
		return err
	}
	n.pruneMempool(blk)
	n.pruneConsensusBuffers(blk.Header.Height)
	n.events.fire()
	// Persistence is best-effort relative to consensus: a failing disk
	// (fault injection, full volume) must not halt the replica — the
	// block is already committed in memory by quorum. The failure is
	// counted and the WAL regains consistency on the next recovery.
	n.persistBlock(blk)
	return nil
}

// speculate validates blk against the head and returns this node's
// execution of it; the caller holds applyMu. Validation ties the body
// to the header and the header to the head, and a pending execution is
// dropped whenever the head or the state object changes, so one kept
// under blk's hash was made of exactly this block over exactly this
// state; otherwise the block is executed now and that kept. Every
// honest node must reproduce the proposer's state root — the consistency
// check of replicated execution, and the one place it is made: before a
// vote and before a commit alike.
func (n *Node) speculate(blk *ledger.Block) (*ledger.Validated, *parexec.Speculation, error) {
	valid, err := n.chain.ValidateForAppend(blk)
	if err != nil {
		return nil, nil, err
	}
	hash := blk.Hash()
	n.votesMu.Lock()
	p := n.pending
	n.votesMu.Unlock()
	if p != nil && p.hash == hash {
		return valid, p.spec, nil
	}
	spec, err := n.executor().Speculate(n.state, blk.Txs, blk.Header.Height, blk.Header.Timestamp)
	if err != nil {
		return nil, nil, err
	}
	if root := spec.Root(); root != blk.Header.StateRoot && !skipRootCheck {
		return nil, nil, fmt.Errorf("%w: computed %s, header %s", ErrRootDiverged, root.Short(), blk.Header.StateRoot.Short())
	}
	n.setPending(&pendingBlock{hash: hash, height: blk.Header.Height, spec: spec})
	return valid, spec, nil
}

// previewProposal executes a proposed block before this node signs for
// it, under applyMu as buildBlock and acceptBlock do.
func (n *Node) previewProposal(blk *ledger.Block) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	_, _, err := n.speculate(blk)
	return err
}

// commitOnCert commits the block this node voted for in the live
// round once it holds 2f+1 verified votes for it: the proposer's own
// block, or the proposal a follower executed. The certificate it
// assembles from them is the block's seal on this node, checked by
// acceptBlock like the seal of a block that arrives: nodes may seal one
// header with different vote subsets. A follower so commits two hops
// after the proposal, without waiting for the proposer's block; the
// proposer commits here too (gatherQuorum waits for it). The read lock
// on the round is held through the commit, so the driver cannot open
// another round at this height while it runs.
func (n *Node) commitOnCert() {
	r := n.round
	r.mu.RLock()
	defer r.mu.RUnlock()
	height := n.chain.Height() + 1
	if r.height != height {
		return
	}
	need := n.quorum.Validators().QuorumThreshold()
	if skipCertQuorum {
		need--
	}
	n.votesMu.Lock()
	blk := n.votedAt[height][r.proposer]
	var qc consensus.QuorumCert
	if blk != nil {
		qc.Block = blk.Hash()
		if vs := n.votes[qc.Block]; vs != nil {
			qc.Votes = append([]consensus.Vote(nil), vs.votes...)
		}
	}
	n.votesMu.Unlock()
	if len(qc.Votes) < need {
		return
	}
	seal, err := qc.Encode()
	if err != nil {
		return
	}
	// A new block of the same header and body: the voted copy is shared
	// with the proposal it came from. If it is refused, the block still
	// arrives by broadcast or sync.
	if n.acceptBlock(&ledger.Block{Header: blk.Header, Txs: blk.Txs, Seal: seal}) == nil {
		r.noteCertified(height)
	}
}

// voteCount returns the number of verified votes buffered for a block.
func (n *Node) voteCount(hash cryptoutil.Digest) int {
	n.votesMu.Lock()
	defer n.votesMu.Unlock()
	if vs := n.votes[hash]; vs != nil {
		return len(vs.votes)
	}
	return 0
}

// pruneConsensusBuffers drops buffered votes, proposal records, vote
// locks, first-vote records, evidence dedupe marks, and the cached
// proposal at or below the committed height. Together with the ingest
// window this is what keeps the consensus buffers bounded regardless
// of chain length or a spammer's appetite.
func (n *Node) pruneConsensusBuffers(committed uint64) {
	n.votesMu.Lock()
	defer n.votesMu.Unlock()
	for hash, vs := range n.votes {
		if vs.height <= committed {
			delete(n.votes, hash)
		}
	}
	for h := range n.votedAt {
		if h <= committed {
			delete(n.votedAt, h)
		}
	}
	for h, headers := range n.proposalSeen {
		if h <= committed {
			for _, sh := range headers {
				delete(n.evidenceSeen, evidenceRef(consensus.EvidenceDoubleProposal, h, sh.Header.Proposer))
			}
			delete(n.proposalSeen, h)
		}
	}
	for h, slots := range n.voteSeen {
		if h <= committed {
			for slot := range slots {
				delete(n.evidenceSeen, evidenceRef(consensus.EvidenceDoubleVote, h, slot.voter))
			}
			delete(n.voteSeen, h)
		}
	}
	if n.lastProposal != nil && n.lastProposal.Block.Header.Height <= committed {
		n.lastProposal = nil
	}
	if n.pending != nil && n.pending.height <= committed {
		n.pending = nil
	}
}

// setPending keeps the execution of the one candidate for the next
// height this node holds; nil forgets it.
func (n *Node) setPending(p *pendingBlock) {
	n.votesMu.Lock()
	defer n.votesMu.Unlock()
	n.pending = p
}

// pruneMempool removes a committed block's transactions from the pool,
// drops residents whose nonce the block consumed, and re-checks
// deadlines against the new height. Called after chain.Append, so the
// chain's nonce expectations already reflect the block.
func (n *Node) pruneMempool(blk *ledger.Block) {
	n.pool.RemoveCommitted(blk, n.chain.NextNonce)
}

// takeMempool snapshots up to max pending transactions in the pool's
// deterministic proposal order, dropping anything whose deadline
// cannot make the next block.
func (n *Node) takeMempool(max int) []*ledger.Transaction {
	return n.pool.Take(max, n.chain.Height(), n.chain.NextNonce)
}

// produceBlock builds, certifies, commits, and broadcasts the next block
// from this node's mempool. The candidate is executed once, on write
// snapshots over the live state, which yields the header's post-state
// root without touching that state — so a round that fails consensus
// (no quorum, timeout) leaves the live state, mempool, and chain
// untouched, the invariant commit retry and proposer failover rely on.
// The round is opened live before its proposal leaves, which closes the
// previous one on every node; a height committed in a round that closed
// is not proposed again (errBehind: the proposer must catch up). On
// success the proposer commits on its own certificate like every
// follower, through acceptBlock, which materialises the kept execution.
// Returns the committed block.
func (n *Node) produceBlock(maxTxs int, voteTimeout time.Duration) (*ledger.Block, error) {
	ep := n.endpoint()
	if ep == nil {
		return nil, ErrStopped
	}
	blk, err := n.buildBlock(maxTxs)
	if err != nil {
		return nil, err
	}
	if !n.round.open(blk.Header.Height, n.Address()) {
		return nil, fmt.Errorf("%w: height %d was committed in an earlier round", errBehind, blk.Header.Height)
	}
	blk, err = n.gatherQuorum(ep, blk, voteTimeout)
	if err != nil {
		return nil, err
	}

	body, err := blk.Encode()
	if err != nil {
		return nil, err
	}
	if err := ep.BroadcastMsg(topicBlock, body); err != nil {
		return blk, err
	}
	return blk, nil
}

// buildBlock assembles the next block on the current head, previews it
// and keeps the preview for acceptBlock. applyMu is held for exactly
// this (not for the vote wait that follows), so the preview sees one
// consistent state. A block taken back from the cached proposal of an
// earlier round is not previewed again: its own preview, if still held,
// stays as it is.
func (n *Node) buildBlock(maxTxs int) (*ledger.Block, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	head := n.chain.Head()
	height := head.Header.Height + 1

	// Retrying the same height against the same parent reuses the
	// cached signed proposal even if the mempool has since grown: an
	// honest proposer must never sign two different blocks at one
	// height — that is exactly the equivocation the ingress layer
	// evidences and quarantines.
	n.votesMu.Lock()
	lp := n.lastProposal
	n.votesMu.Unlock()
	if lp != nil && lp.Block.Header.Height == height && lp.Block.Header.Parent == head.Hash() {
		return lp.Block, nil
	}

	txs := n.takeMempool(maxTxs)
	ts := head.Header.Timestamp + 1
	blk := &ledger.Block{
		Header: ledger.Header{
			Height:    height,
			Parent:    head.Hash(),
			Timestamp: ts,
			Proposer:  n.key.Address(),
		},
		Txs: txs,
	}
	root, err := ledger.ComputeTxRoot(txs)
	if err != nil {
		return nil, err
	}
	blk.Header.TxRoot = root

	spec, err := n.executor().Speculate(n.state, txs, height, ts)
	if err != nil {
		return nil, err
	}
	blk.Header.StateRoot = spec.Root()
	n.setPending(&pendingBlock{hash: blk.Hash(), height: height, spec: spec})
	return blk, nil
}

// gatherQuorum runs one round of the vote protocol: broadcast the
// proposal with this node's own vote, then wait until this node commits
// the block on the certificate it assembles (commitOnCert, as every node
// does). The wait sleeps on the node's events (every buffered vote and
// every commit fires one) under a timer for the round timeout; it ends
// early if the node stops. It returns the block as committed, carrying
// this node's seal, and ErrNoQuorum if the height holds no block — or
// another one — when the wait ends. On timeout the partial vote set is
// kept so an immediate re-proposal of the same block can reuse it.
func (n *Node) gatherQuorum(ep p2p.Endpoint, blk *ledger.Block, timeout time.Duration) (*ledger.Block, error) {
	hash := blk.Hash()
	height := blk.Header.Height
	sp, err := consensus.SignProposal(blk, n.key)
	if err != nil {
		return nil, err
	}
	n.votesMu.Lock()
	n.lastProposal = sp
	n.votesMu.Unlock()
	// The proposer holds its own signed proposal like any other, so the
	// votes for its block are judged in their voters' slots for it, not
	// in the one slot a vote for an unknown block may take.
	n.noteProposal(height, sp.Header())
	// The proposer's own vote obeys the same one-per-height lock as
	// everyone else's; a proposer locked to another block this height
	// gets none, and its round cannot commit this block.
	own, voted := n.lockAndSignVote(blk)
	if voted {
		n.addVote(own)
	}

	body, err := sp.Encode()
	if err != nil {
		return nil, err
	}
	if err := ep.BroadcastMsg(topicProposal, body); err != nil {
		return nil, err
	}
	if voted {
		if err := ep.BroadcastMsg(topicVote, own.Encode()); err != nil {
			return nil, err
		}
	}
	n.commitOnCert() // a set of one validator needs no peer's vote

	round := time.NewTimer(timeout)
	defer round.Stop()
	n.await(round.C, func() bool { return n.Height() >= height || !n.Running() })
	if committed, err := n.chain.BlockAt(height); err == nil && committed.Hash() == hash {
		return committed, nil
	}
	return nil, fmt.Errorf("%w: %d/%d votes", ErrNoQuorum, n.voteCount(hash), n.quorum.Validators().QuorumThreshold())
}
