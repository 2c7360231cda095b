package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
)

// Backpressure and admission errors surfaced to submitters. They are
// typed so a client can tell transient overload — back off and
// resubmit — from permanent rejection. ErrMempoolFull is the one
// backpressure error; it carries a retry-after hint via
// resilience.WithRetryAfter.
var (
	// ErrMempoolFull means the bounded pool is at capacity and the
	// transaction's priority did not justify evicting anything, or the
	// admission controller is shedding its class because the pool is
	// filling up.
	ErrMempoolFull = errors.New("chain: mempool full")
	// ErrExpired means the transaction's deadline height has already
	// passed — resubmit with a fresh deadline, never the same bytes.
	ErrExpired = errors.New("chain: transaction expired")
	// ErrNonceGap means the transaction's nonce skips too far ahead of
	// the sender's committed sequence number (beyond the future window).
	ErrNonceGap = errors.New("chain: nonce too far ahead")
	// ErrStaleNonce means the nonce was already consumed on chain or is
	// occupied by a different pending transaction.
	ErrStaleNonce = errors.New("chain: stale nonce")
)

// MempoolConfig bounds a node's transaction pool.
type MempoolConfig struct {
	// Capacity is the maximum resident transactions (default 8192).
	Capacity int
}

func (c MempoolConfig) withDefaults() MempoolConfig {
	if c.Capacity <= 0 {
		c.Capacity = 8192
	}
	return c
}

// maxFuture bounds how far a nonce may run ahead of the sender's
// committed sequence. Gapped nonces inside the window are held — a
// lagging node must buffer traffic for chain state it has not synced
// yet — but never proposed until the gap fills; the window keeps a
// far-future nonce flood from squatting the pool.
const maxFuture = 1024

// MempoolStats counts every admission outcome and drop, by typed
// reason — nothing leaves the pool silently.
type MempoolStats struct {
	// Admitted counts transactions accepted into the pool.
	Admitted int64
	// Evicted counts residents displaced by higher-priority arrivals.
	Evicted int64
	// DroppedDuplicate / DroppedExpired / DroppedStale / DroppedGap /
	// DroppedFull count rejections at admission.
	DroppedDuplicate int64
	DroppedExpired   int64
	DroppedStale     int64
	DroppedGap       int64
	DroppedFull      int64
	// ExpiredInPool counts residents dropped because their deadline
	// passed while queued (at proposal assembly or commit pruning);
	// GappedByExpiry counts same-sender successors dropped with them
	// (their predecessor nonce can no longer commit before they would).
	ExpiredInPool  int64
	GappedByExpiry int64
	// PrunedCommitted counts residents removed because they (or a
	// different transaction consuming their nonce) committed.
	PrunedCommitted int64
	// Size / Bytes are current occupancy; PeakSize the high-water mark.
	Size     int
	Bytes    int64
	PeakSize int
}

// poolTx is one resident transaction.
type poolTx struct {
	tx    *ledger.Transaction
	class guard.Class
	size  int64
	seq   uint64 // arrival order, for eviction tie-breaks only
}

// Mempool is a bounded, priority-aware transaction pool. Per sender it
// holds a nonce-sorted run; only the contiguous prefix starting at the
// chain's committed expectation is ever proposed, so a nonce gap can
// never poison block production, while gapped arrivals (gossip to a
// node that has not synced the sender's latest commits yet) are held
// within a bounded future window instead of lost. Take order is a pure
// function of pool content (class, sender, nonce), so two nodes
// holding the same transactions propose identical blocks regardless of
// arrival order — including across a restart that dropped and
// regossiped the pool.
type Mempool struct {
	mu       sync.Mutex
	cfg      MempoolConfig
	byID     map[cryptoutil.Digest]*poolTx
	bySender map[cryptoutil.Address][]*poolTx // nonce-sorted, unique nonces
	bytes    int64
	seq      uint64
	stats    MempoolStats
}

// NewMempool creates a bounded pool.
func NewMempool(cfg MempoolConfig) *Mempool {
	return &Mempool{
		cfg:      cfg.withDefaults(),
		byID:     make(map[cryptoutil.Digest]*poolTx),
		bySender: make(map[cryptoutil.Address][]*poolTx),
	}
}

// Size returns current occupancy.
func (m *Mempool) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byID)
}

// Fill returns occupancy as a fraction of capacity — the signal the
// admission controller's overload state machine runs on.
func (m *Mempool) Fill() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(len(m.byID)) / float64(m.cfg.Capacity)
}

// Contains reports whether the transaction is resident.
func (m *Mempool) Contains(id cryptoutil.Digest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.byID[id]
	return ok
}

// NextNonce returns the nonce a sender must use next, given the
// chain's committed expectation: committed plus the contiguous pending
// prefix (gapped futures don't count — the sender still owes the gap).
func (m *Mempool) NextNonce(addr cryptoutil.Address, committedNext uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := committedNext
	for _, e := range m.bySender[addr] {
		if e.tx.Nonce != next {
			if e.tx.Nonce > next {
				break
			}
			continue // stale entry below the committed horizon
		}
		next++
	}
	return next
}

// Stats snapshots the counters.
func (m *Mempool) Stats() MempoolStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Size = len(m.byID)
	s.Bytes = m.bytes
	return s
}

func txSize(tx *ledger.Transaction) int64 {
	return int64(len(tx.Args) + len(tx.Method) + len(tx.PubKey) + 128)
}

// Add admits one verified transaction. committedNext is the sender's
// next nonce per this node's committed chain; height the current chain
// height (a deadline at or below the next block's height can no longer
// commit). The error is one of the typed sentinels above (duplicates
// wrap ledger.ErrDuplicateTx — callers that want gossip idempotence
// treat that as success), or nil.
func (m *Mempool) Add(tx *ledger.Transaction, class guard.Class, committedNext, height uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := tx.ID()
	if _, ok := m.byID[id]; ok {
		m.stats.DroppedDuplicate++
		return fmt.Errorf("%w: %s", ledger.ErrDuplicateTx, id.Short())
	}
	if tx.ExpiredAt(height + 1) {
		m.stats.DroppedExpired++
		return fmt.Errorf("%w: deadline height %d, next block %d", ErrExpired, tx.Expiry, height+1)
	}
	if tx.Nonce < committedNext {
		m.stats.DroppedStale++
		return fmt.Errorf("%w: nonce %d, committed next %d", ErrStaleNonce, tx.Nonce, committedNext)
	}
	if tx.Nonce >= committedNext+maxFuture {
		m.stats.DroppedGap++
		return fmt.Errorf("%w: nonce %d, committed next %d, window %d",
			ErrNonceGap, tx.Nonce, committedNext, maxFuture)
	}
	run := m.bySender[tx.From]
	at := sort.Search(len(run), func(i int) bool { return run[i].tx.Nonce >= tx.Nonce })
	if at < len(run) && run[at].tx.Nonce == tx.Nonce {
		m.stats.DroppedStale++
		return fmt.Errorf("%w: nonce %d already pending under tx %s",
			ErrStaleNonce, tx.Nonce, run[at].tx.ID().Short())
	}
	size := txSize(tx)
	for len(m.byID) >= m.cfg.Capacity {
		if !m.evictOne(class, tx.From) {
			m.stats.DroppedFull++
			return fmt.Errorf("%w: %d/%d txs resident", ErrMempoolFull, len(m.byID), m.cfg.Capacity)
		}
	}
	e := &poolTx{tx: tx, class: class, size: size, seq: m.seq}
	m.seq++
	m.byID[id] = e
	run = append(run, nil)
	copy(run[at+1:], run[at:])
	run[at] = e
	m.bySender[tx.From] = run
	m.bytes += size
	m.stats.Admitted++
	if len(m.byID) > m.stats.PeakSize {
		m.stats.PeakSize = len(m.byID)
	}
	return nil
}

// evictOne displaces one resident of strictly lower class than the
// incoming transaction, reporting whether it found a victim. Only the
// tail of a sender's nonce run is evictable (dropping the middle would
// strand the higher nonces the sender already filled in behind a new
// hole), and the incoming sender's own run is never touched. Among
// candidate tails it picks the lowest class, newest arrival — shedding
// the most recently accepted low-priority work preserves older
// transactions that are closest to committing. Caller holds m.mu.
func (m *Mempool) evictOne(incoming guard.Class, incomingSender cryptoutil.Address) bool {
	var victim *poolTx
	var victimSender cryptoutil.Address
	for sender, run := range m.bySender {
		if sender == incomingSender || len(run) == 0 {
			continue
		}
		tail := run[len(run)-1]
		if tail.class >= incoming {
			continue
		}
		if victim == nil || tail.class < victim.class ||
			(tail.class == victim.class && tail.seq > victim.seq) {
			victim, victimSender = tail, sender
		}
	}
	if victim == nil {
		return false
	}
	m.removeLocked(victim, victimSender)
	m.stats.Evicted++
	return true
}

// removeLocked unlinks one resident. Caller holds m.mu.
func (m *Mempool) removeLocked(e *poolTx, sender cryptoutil.Address) {
	delete(m.byID, e.tx.ID())
	m.bytes -= e.size
	run := m.bySender[sender]
	for i, r := range run {
		if r == e {
			run = append(run[:i], run[i+1:]...)
			break
		}
	}
	if len(run) == 0 {
		delete(m.bySender, sender)
	} else {
		m.bySender[sender] = run
	}
}

// dropRunSuffix removes run[from:] of a sender, attributing the first
// drop to expiry and the rest to the gap it leaves behind (a successor
// nonce cannot commit until the expired predecessor is re-signed, so
// holding it would squat capacity). Caller holds m.mu.
func (m *Mempool) dropRunSuffix(sender cryptoutil.Address, from int) {
	run := m.bySender[sender]
	for i := from; i < len(run); i++ {
		e := run[i]
		delete(m.byID, e.tx.ID())
		m.bytes -= e.size
		if i == from {
			m.stats.ExpiredInPool++
		} else {
			m.stats.GappedByExpiry++
		}
	}
	if from == 0 {
		delete(m.bySender, sender)
	} else {
		m.bySender[sender] = run[:from]
	}
}

// expireLocked drops every resident whose deadline cannot make the
// next block, plus the same-sender successors stranded by the drop.
// Caller holds m.mu.
func (m *Mempool) expireLocked(height uint64) {
	for sender, run := range m.bySender {
		for i, e := range run {
			if e.tx.ExpiredAt(height + 1) {
				m.dropRunSuffix(sender, i)
				break
			}
		}
	}
}

// Take returns up to max transactions (0 = all) in deterministic
// proposal order: sender runs sorted by their strongest proposable
// class (descending), then sender address; each run's contiguous
// prefix — starting at the sender's committed nonce — in nonce order.
// Gapped futures stay pooled but are never proposed. Expired residents
// are dropped first (typed, counted), never proposed.
func (m *Mempool) Take(max int, height uint64, committedNext func(cryptoutil.Address) uint64) []*ledger.Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(height)
	type group struct {
		sender cryptoutil.Address
		txs    []*ledger.Transaction
		best   guard.Class
	}
	groups := make([]group, 0, len(m.bySender))
	for sender, run := range m.bySender {
		next := committedNext(sender)
		g := group{sender: sender}
		for _, e := range run {
			if e.tx.Nonce != next {
				if e.tx.Nonce > next {
					break
				}
				continue // stale entry below the committed horizon
			}
			next++
			g.txs = append(g.txs, e.tx)
			if e.class > g.best {
				g.best = e.class
			}
		}
		if len(g.txs) > 0 {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].best != groups[j].best {
			return groups[i].best > groups[j].best
		}
		return groups[i].sender.String() < groups[j].sender.String()
	})
	var out []*ledger.Transaction
	for _, g := range groups {
		for _, tx := range g.txs {
			if max > 0 && len(out) >= max {
				return out
			}
			out = append(out, tx)
		}
	}
	return out
}

// RemoveCommitted prunes the pool after a block commits: transactions
// in the block leave by ID, residents whose nonce the block consumed
// (a different transaction with the same sender sequence committed)
// are dropped as stale, and deadlines are re-checked against the new
// height. nextNonce supplies the post-commit committed expectation.
func (m *Mempool) RemoveCommitted(blk *ledger.Block, nextNonce func(cryptoutil.Address) uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tx := range blk.Txs {
		if e, ok := m.byID[tx.ID()]; ok {
			m.removeLocked(e, tx.From)
			m.stats.PrunedCommitted++
		}
	}
	for sender, run := range m.bySender {
		next := nextNonce(sender)
		drop := 0
		for drop < len(run) && run[drop].tx.Nonce < next {
			drop++
		}
		if drop == 0 {
			continue
		}
		for i := 0; i < drop; i++ {
			delete(m.byID, run[i].tx.ID())
			m.bytes -= run[i].size
			m.stats.PrunedCommitted++
		}
		run = append([]*poolTx(nil), run[drop:]...)
		if len(run) == 0 {
			delete(m.bySender, sender)
		} else {
			m.bySender[sender] = run
		}
	}
	m.expireLocked(blk.Header.Height)
}

// Reset drops every resident (crash recovery: a restarted process
// loses its pool; gossip and ResubmitPending repopulate it).
func (m *Mempool) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byID = make(map[cryptoutil.Digest]*poolTx)
	m.bySender = make(map[cryptoutil.Address][]*poolTx)
	m.bytes = 0
}

// ClassOf maps a transaction type to its admission class: audit
// (accountability) traffic is critical and always admitted; bulk data
// registrations and anchors shed first under overload; everything
// interactive sits in between.
func ClassOf(t ledger.TxType) guard.Class {
	switch t {
	case ledger.TxAudit, ledger.TxCross:
		// Audit evidence and cross-shard protocol traffic (anchored
		// roots, 2PC applies/resolves) must survive overload: shedding
		// them stalls accountability or cross-shard liveness.
		return guard.ClassCritical
	case ledger.TxData, ledger.TxAnchor:
		return guard.ClassBulk
	default:
		return guard.ClassNormal
	}
}
