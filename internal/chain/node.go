// Package chain assembles the full medical-blockchain node: mempool,
// consensus-driven block production, broadcast replication, and the
// replicated contract state machine. A Cluster wires N nodes over a
// p2p.Network and is the substrate of experiments E1 (scalability) and
// E2 (duplicated computation): every node validates every transaction
// and executes every contract, exactly the architecture the paper sets
// out to transform.
//
// Each node is one goroutine, its loop, that owns a replica (ledger,
// state, receipts, vote buffers, storage) and takes network messages and
// requests (propose, snapshot, sync) one at a time. After each commit it
// publishes an immutable view, which readers load without a lock.
//
// Block production is explicitly driven (Cluster.Commit) so experiments
// are deterministic: the scheduled proposer's loop packages its mempool
// and broadcasts the signed proposal with its own vote; every validator
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
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medchain/internal/canonjson"
	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/parexec"
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
// paginates by re-requesting after each chunk (see onSyncCont).
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

// Node is one blockchain participant: a replica, the loop that owns it,
// and the view that loop publishes.
type Node struct {
	id     p2p.NodeID
	key    *cryptoutil.KeyPair
	quorum *consensus.Quorum // shared with the replica; its vote memo has its own lock

	// lifeMu guards the lifecycle: the current endpoint (nil while
	// stopped), the running flag and the per-incarnation stop channel.
	// Stop holds it until the loop has exited, so while the node is
	// stopped the holder of lifeMu owns the replica.
	lifeMu  sync.Mutex
	ep      p2p.Endpoint
	net     *p2p.Network // rejoin target for Restart; nil for injected endpoints
	running bool
	stopped chan struct{}
	wg      sync.WaitGroup

	// events fires when a view is published, a transaction is pooled,
	// or the node stops or restarts. Every wait outside the loop sleeps
	// on it (waitNodes, WaitHeight) instead of polling.
	events signal
	// view is the last commit the loop published; reqs carries work for
	// the replica to the loop (do).
	view atomic.Pointer[view]
	reqs chan func(*replica)
	rep  *replica

	// pool is the bounded priority mempool, admission the client-facing
	// overload controller in front of it, and guard scores peer
	// misbehavior; each has its own lock and lives as long as the node.
	pool      *Mempool
	admission *guard.Admission
	guard     *guard.Guard

	// storeOpts is the disk-backed node's storage engine configuration
	// (nil for memory-only nodes), fixed at construction.
	storeOpts *store.Options

	// syncServing marks a peer's sync stream in flight (serveSync).
	syncServing map[p2p.NodeID]*atomic.Bool
}

// view is one commit as readers see it, published whole by the loop, so
// a commit becomes visible at once and a restart swaps the view, not
// fields under a reader. Ledger and state lock themselves.
type view struct {
	height               uint64
	chain                *ledger.Chain
	state                *contract.State
	receipts             *receiptIndex
	gasUsed, persistErrs int64
	recovery             *store.Recovered
}

// receiptIndex maps committed transaction IDs to their receipts. It is
// shared by every view of one ledger, so a commit does not copy it; a
// reader asks at its view's height and sees no later block's receipts.
type receiptIndex struct {
	mu sync.RWMutex
	m  map[cryptoutil.Digest]*contract.Receipt
}

func newReceiptIndex(rs []*contract.Receipt) *receiptIndex {
	x := &receiptIndex{m: make(map[cryptoutil.Digest]*contract.Receipt, len(rs))}
	x.add(rs)
	return x
}

func (x *receiptIndex) add(rs []*contract.Receipt) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, r := range rs {
		x.m[r.TxID] = r
	}
}

// get returns the receipt of a transaction committed at or below height.
func (x *receiptIndex) get(id cryptoutil.Digest, height uint64) (*contract.Receipt, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	r, ok := x.m[id]
	if !ok || r.Height > height {
		return nil, false
	}
	return r, true
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
// driver last asked to propose (replica.propose opens it). The vote lock is
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
// is set, attaches it to its transport and starts its loop. The
// recovery report is non-nil exactly when cfg.Store is set.
func NewNode(cfg NodeConfig) (*Node, *store.Recovered, error) {
	if (cfg.Network == nil) == (cfg.Endpoint == nil) {
		return nil, nil, fmt.Errorf("chain: node %s needs exactly one transport, a Network or an Endpoint", cfg.ID)
	}
	n := &Node{
		id:          cfg.ID,
		key:         cfg.Key,
		quorum:      consensus.NewQuorum(cfg.Validators),
		pool:        NewMempool(cfg.Mempool),
		admission:   guard.NewAdmission(guard.AdmissionConfig{}),
		guard:       guard.New(cfg.Guard),
		net:         cfg.Network,
		reqs:        make(chan func(*replica)),
		syncServing: make(map[p2p.NodeID]*atomic.Bool),
	}
	round := cfg.round
	if round == nil {
		round = &liveRound{}
	}
	n.rep = newReplica(n.key, cfg.ChainID, n.quorum, n.pool, n.guard, round)
	n.rep.submit = n.SubmitLocal
	n.rep.publish = func(v *view) {
		n.view.Store(v)
		n.events.fire()
	}
	n.rep.publishView()
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
			n.rep.closeStore()
			return nil, nil, fmt.Errorf("chain: join network: %w", err)
		}
	}
	n.lifeMu.Lock()
	n.start(ep)
	n.lifeMu.Unlock()
	return n, n.LastRecovery(), nil
}

// start attaches the node to a transport and hands the replica to a new
// loop; the caller holds lifeMu.
func (n *Node) start(ep p2p.Endpoint) {
	n.ep = ep
	n.running = true
	n.stopped = make(chan struct{})
	n.rep.send = func(to p2p.NodeID, topic string, body []byte) {
		if to == "" {
			_ = ep.BroadcastMsg(topic, body)
		} else {
			_ = ep.Send(to, topic, body)
		}
	}
	n.wg.Add(1)
	go n.loop(ep, n.stopped)
}

// do runs fn with the node's replica and waits for it: on the loop
// while the node runs, and directly, under lifeMu, while it is stopped.
func (n *Node) do(fn func(*replica)) {
	for {
		n.lifeMu.Lock()
		if !n.running {
			defer n.lifeMu.Unlock()
			fn(n.rep)
			return
		}
		stopped := n.stopped
		n.lifeMu.Unlock()
		done := make(chan struct{})
		select {
		case n.reqs <- func(r *replica) { fn(r); close(done) }:
			<-done
			return
		case <-stopped:
		}
	}
}

// loop owns the replica while this incarnation runs: it takes network
// messages and requests from do one at a time. It captures its own
// endpoint and stop channel so a concurrent Stop/Restart cycle cannot
// hand it the next incarnation's transport. An inbox the transport
// closed (a TCP hub gone) ends ingress only: requests are served until Stop.
func (n *Node) loop(ep p2p.Endpoint, stopped chan struct{}) {
	defer n.wg.Done()
	defer n.rep.timeOut(nil)
	inbox := ep.Inbox()
	for {
		select {
		case <-stopped:
			return
		case msg, ok := <-inbox:
			if !ok {
				inbox = nil
				continue
			}
			n.handle(ep, msg)
		case fn := <-n.reqs:
			fn(n.rep)
		}
	}
}

// ID returns the node's network identity.
func (n *Node) ID() p2p.NodeID { return n.id }

// Address returns the node's chain address.
func (n *Node) Address() cryptoutil.Address { return n.key.Address() }

// Chain exposes the node's ledger (read-only use).
func (n *Node) Chain() *ledger.Chain { return n.view.Load().chain }

// State exposes the node's contract state (read-only use).
func (n *Node) State() *contract.State { return n.view.Load().state }

// SetExec replaces the node's block executor; the default
// parexec.Config{} runs a block's transactions one after another. Every
// mode is bit-identical to serial execution, so a cluster may freely
// mix modes across nodes — consensus itself then acts as a
// cross-engine differential oracle.
func (n *Node) SetExec(cfg parexec.Config) {
	n.do(func(r *replica) { r.exec = parexec.NewEngine(cfg) })
}

// ExecStats returns the execution counters accumulated since the last
// SetExec.
func (n *Node) ExecStats() (s parexec.Stats) {
	n.do(func(r *replica) { s = r.exec.Stats() })
	return s
}

// GasUsed returns the cumulative gas this node burned executing
// transactions (its share of the cluster's duplicated computation).
func (n *Node) GasUsed() int64 { return n.view.Load().gasUsed }

// Height returns the node's chain height.
func (n *Node) Height() uint64 { return n.view.Load().height }

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
	v := n.view.Load()
	return v.receipts.get(txID, v.height)
}

// Committed is the one read path over the committed chain (DESIGN.md
// "Reading the chain"): it hands fn every block above after, in height
// order, with that block's receipts aligned to blk.Txs, and returns the
// height it read through — after itself when nothing is new. It reads
// only blocks a published view covers, one lookup per new block, and
// calls fn on the caller's goroutine. A reader that keeps the returned
// height as its cursor therefore sees exactly the committed blocks,
// once, in order, also across a restart below its cursor: the cursor
// just waits for the chain to pass it again.
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

// committedAt reads one block with its receipts from one view, so the
// pair is always of one ledger.
func (n *Node) committedAt(height uint64) (*ledger.Block, []*contract.Receipt) {
	v := n.view.Load()
	if height > v.height {
		return nil, nil
	}
	blk, err := v.chain.BlockAt(height)
	if err != nil {
		return nil, nil
	}
	receipts := make([]*contract.Receipt, len(blk.Txs))
	for i, tx := range blk.Txs {
		receipts[i], _ = v.receipts.get(tx.ID(), height)
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

// SubmitLocal validates a transaction into the local mempool (no
// gossip): signature verification, committed/pending dedupe, overload
// shedding by the admission controller, then bounded-pool admission
// (nonce contiguity, deadline, capacity). Rejections are typed — a
// transaction that fails verification returns ErrMempool wrapping the
// ledger's reason, and a shed or pool-full one ErrMempoolFull — and
// duplicates are silently idempotent, which gossip re-delivery depends
// on. The signature check goes through the chain's verified set, so the
// proposal and block that later carry the transaction do not repeat the
// ECDSA work on this node. It reads the chain of the current view.
func (n *Node) SubmitLocal(tx *ledger.Transaction) error {
	c := n.view.Load().chain
	id, err := c.VerifyTx(tx)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMempool, err)
	}
	if c.HasTx(id) || n.pool.Contains(id) {
		return nil // idempotent
	}
	class := ClassOf(tx.Type)
	if d := n.admission.Decide(tx.From.String(), class, txSize(tx), n.pool.Fill()); !d.Admit {
		// Overload shedding is fill-driven: to the client it is the pool
		// being effectively full for its priority class.
		return fmt.Errorf("%w: %s (admission state %s)", ErrMempoolFull, d.Reason, d.State)
	}
	err = n.pool.Add(tx, class, c.NextNonce(tx.From), c.Height())
	switch {
	case err == nil:
		n.events.fire()
		return nil
	case errors.Is(err, ledger.ErrDuplicateTx):
		return nil // idempotent
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
		c := n.view.Load().chain
		committed := c.NextNonce(addr)
		next := n.pool.NextNonce(addr, committed)
		if c.NextNonce(addr) == committed {
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

// Running reports whether the node's loop is alive.
func (n *Node) Running() bool {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	return n.running
}

// Stop crashes the node: it detaches from the network (dropping all
// in-flight messages), halts the loop, and waits for it to exit. A
// proposal still waiting for its round fails with ErrNoQuorum.
// In-memory ledger, state, and mempool are retained. A disk-backed node
// additionally drops its storage handle WITHOUT a final sync — Stop is
// the process dying, and whatever the group commit had not fsynced is
// exactly what crash recovery must cope with. Restart brings the node
// back. Stop is idempotent.
func (n *Node) Stop() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if !n.running {
		return
	}
	n.running = false
	close(n.stopped)
	ep := n.ep
	n.ep = nil
	n.events.fire()
	if ep != nil {
		ep.Close()
	}
	n.wg.Wait()
	n.rep.send = nil
	n.rep.closeStore()
}

// Restart rejoins the network after Stop and resumes the loop.
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
		n.rep.closeStore()
		return fmt.Errorf("chain: rejoin network: %w", err)
	}
	n.start(ep)
	n.events.fire()
	return nil
}

// Close shuts the node down gracefully: durable storage is synced
// before the loop stops, so a Close/reopen cycle loses nothing.
func (n *Node) Close() {
	_ = n.SyncStore()
	n.Stop()
}

// handle is the validated ingress pipeline, run on the loop: every
// message is checked at the protocol boundary — signatures, membership,
// height windows — before it can touch consensus or state, and each
// rejection is scored against the sending peer. A peer whose score
// crosses the quarantine threshold is silenced entirely for gossip;
// only committed blocks are still accepted from it, because a block
// carries its own quorum certificate and so does not borrow authority
// from the relay (and a misclassified honest peer must still be able to
// feed us the chain).
func (n *Node) handle(ep p2p.Endpoint, msg p2p.Message) {
	from := string(msg.From)
	if msg.Topic != topicBlock && n.guard.Quarantined(from) {
		if n.net != nil {
			n.net.NoteQuarantined(n.id) // simulated networks count the drop
		}
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
	case topicSyncReq:
		n.handleSyncReq(ep, msg)
	default:
		n.rep.step(msg, time.Now())
	}
}

// handleSyncReq rate-limits and dispatches a peer's catch-up request.
// Responses are served off the loop (one stream per peer at a time) so
// a deep catch-up — or a sync flood — cannot stall ingress.
func (n *Node) handleSyncReq(ep p2p.Endpoint, msg p2p.Message) {
	from := string(msg.From)
	have, err := decodeHeight(msg.Payload)
	if err != nil {
		n.guard.Record(from, guard.OffenseMalformed)
		return
	}
	if !n.guard.AllowSync(from) {
		n.guard.Record(from, guard.OffenseSyncFlood)
		return
	}
	serving := n.syncServing[msg.From]
	if serving == nil {
		serving = new(atomic.Bool)
		n.syncServing[msg.From] = serving
	}
	if !serving.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go n.serveSync(ep, msg.From, have, serving)
}

// serveSync streams at most syncChunk blocks of the current view to a
// lagging peer. If the peer is still behind afterwards it learns our
// head via sync_cont and re-requests — pagination bounds the bytes any
// single request can pull out of us.
func (n *Node) serveSync(ep p2p.Endpoint, peer p2p.NodeID, have uint64, serving *atomic.Bool) {
	defer n.wg.Done()
	defer serving.Store(false)
	v := n.view.Load()
	end := min(have+syncChunk, v.height)
	for h := have + 1; h <= end; h++ {
		blk, err := v.chain.BlockAt(h)
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
	if end < v.height {
		_ = ep.Send(peer, topicSyncCont, strconv.AppendUint(nil, v.height, 10))
	}
}

// decodeHeight reads a sync_req or sync_cont payload: one height, in
// the decimal json.Marshal writes for a uint64.
func decodeHeight(b []byte) (uint64, error) {
	r := canonjson.NewReader(b)
	h := r.Uint()
	return h, r.Err()
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
func (n *Node) VoteBufferSize() (total int) {
	n.do(func(r *replica) {
		for _, vs := range r.votes {
			total += len(vs.votes)
		}
		for _, m := range r.voteSeen {
			total += len(m)
		}
		for _, m := range r.proposalSeen {
			total += len(m)
		}
	})
	return total
}

// requestSync asks a peer for all blocks after our head; a stopped node
// skips it.
func (n *Node) requestSync(peer p2p.NodeID) { n.do(func(r *replica) { r.requestSync(peer) }) }

// takeMempool snapshots up to max pending transactions in the pool's
// deterministic proposal order against the current view, dropping
// anything whose deadline cannot make the next block.
func (n *Node) takeMempool(max int) []*ledger.Transaction {
	c := n.view.Load().chain
	return n.pool.Take(max, c.Height(), c.NextNonce)
}

// produceBlock asks the node's loop to propose the next block
// (replica.propose) and waits for the round to end: it returns the
// block as committed, carrying this node's seal, or ErrNoQuorum if
// another block commits at the height, the node stops or voteTimeout
// passes first — the round timer is this wait's, and its firing ends
// the round on the loop.
func (n *Node) produceBlock(maxTxs int, voteTimeout time.Duration) (blk *ledger.Block, err error) {
	ended := make(chan struct{})
	var w *proposeWait
	n.do(func(r *replica) {
		w = r.propose(maxTxs, func(b *ledger.Block, e error) { blk, err = b, e; close(ended) })
	})
	timer := time.NewTimer(voteTimeout)
	defer timer.Stop()
	select {
	case <-ended:
	case <-timer.C:
		if w != nil {
			n.do(func(r *replica) { r.timeOut(w) })
		}
		<-ended
	}
	return blk, err
}
