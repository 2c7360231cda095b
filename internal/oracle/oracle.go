// Package oracle implements the monitor node of paper Fig. 3/4: the
// mechanism that "securely bridges the smart contract and the external
// world by remote procedure calls which will return a standard format".
//
// Monitor tails a chain node's committed blocks by height (DESIGN.md
// "Reading the chain") and dispatches their contract events to
// registered handlers, with bounded retries and optional batching
// (ablation A2 compares per-event vs batched dispatch). The other
// direction, a contract reading the world during execution, is limited
// to what every replica holds: the registry.* HOST functions that
// internal/contract hands every invocation.
package oracle

import (
	"context"
	"sync"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/ledger"
)

// Handler processes one committed contract event.
type Handler func(rec chain.EventRecord) error

// BatchHandler processes a batch of events of one topic.
type BatchHandler func(recs []chain.EventRecord) error

// MonitorConfig tunes dispatch behaviour.
type MonitorConfig struct {
	// Retries is how many times a failing handler is retried (0 =
	// deliver once).
	Retries int
	// BatchSize > 1 groups events per topic and delivers them to batch
	// handlers in groups (flushed when full or on Flush/Close).
	BatchSize int
}

// MonitorStats are cumulative dispatch counters.
type MonitorStats struct {
	// Dispatched counts successfully handled events.
	Dispatched int64
	// Failed counts events dropped after exhausting retries.
	Failed int64
	// Retried counts handler retry attempts.
	Retried int64
	// Batches counts batch deliveries.
	Batches int64
}

// Monitor is the monitor node: it tails one chain node's committed
// blocks.
type Monitor struct {
	cfg MonitorConfig
	// attached is the node's height when the monitor attached: the loop
	// delivers every block above it, Replay only blocks up to it.
	attached uint64

	mu            sync.Mutex
	handlers      map[string][]Handler
	batchHandlers map[string][]BatchHandler
	pending       map[string][]chain.EventRecord
	stats         MonitorStats

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewMonitor attaches a monitor to a chain node. Call Close to stop.
func NewMonitor(node *chain.Node, cfg MonitorConfig) *Monitor {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Monitor{
		cfg:           cfg,
		attached:      node.Height(),
		handlers:      make(map[string][]Handler),
		batchHandlers: make(map[string][]BatchHandler),
		pending:       make(map[string][]chain.EventRecord),
		cancel:        cancel,
	}
	m.wg.Add(1)
	go m.loop(ctx, node)
	return m
}

// Replay dispatches the events committed above fromHeight and up to the
// height the monitor attached at — the catch-up path when a monitor
// (re)attaches after downtime; the live loop delivers everything above
// that height, so no event reaches a handler twice. Register handlers
// first.
func (m *Monitor) Replay(node *chain.Node, fromHeight uint64) {
	node.Committed(fromHeight, func(blk *ledger.Block, receipts []*contract.Receipt) {
		if blk.Header.Height <= m.attached {
			m.dispatchBlock(blk, receipts)
		}
	})
}

// On registers a per-event handler for a topic.
func (m *Monitor) On(topic string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[topic] = append(m.handlers[topic], h)
}

// OnBatch registers a batch handler for a topic (requires BatchSize>1).
func (m *Monitor) OnBatch(topic string, h BatchHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchHandlers[topic] = append(m.batchHandlers[topic], h)
}

// Stats snapshots the counters.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// loop holds the monitor's cursor: sleep until the chain passes it,
// dispatch what was committed, advance. Nothing is buffered, so a slow
// handler makes the monitor lag, never lose an event.
func (m *Monitor) loop(ctx context.Context, node *chain.Node) {
	defer m.wg.Done()
	next := m.attached
	for node.WaitHeight(ctx, next+1) == nil {
		next = node.Committed(next, func(blk *ledger.Block, receipts []*contract.Receipt) {
			if ctx.Err() == nil { // Close does not wait out a backlog
				m.dispatchBlock(blk, receipts)
			}
		})
	}
}

func (m *Monitor) dispatchBlock(blk *ledger.Block, receipts []*contract.Receipt) {
	for _, r := range receipts {
		for _, ev := range r.Events {
			m.dispatch(chain.EventRecord{Height: blk.Header.Height, TxID: r.TxID, Event: ev})
		}
	}
}

func (m *Monitor) dispatch(rec chain.EventRecord) {
	topic := rec.Event.Topic
	m.mu.Lock()
	hs := append([]Handler(nil), m.handlers[topic]...)
	batching := len(m.batchHandlers[topic]) > 0 && m.cfg.BatchSize > 1
	if batching {
		m.pending[topic] = append(m.pending[topic], rec)
		full := len(m.pending[topic]) >= m.cfg.BatchSize
		m.mu.Unlock()
		if full {
			m.flushTopic(topic)
		}
	} else {
		m.mu.Unlock()
	}

	for _, h := range hs {
		m.deliver(h, rec)
	}
}

func (m *Monitor) deliver(h Handler, rec chain.EventRecord) {
	var err error
	for attempt := 0; attempt <= m.cfg.Retries; attempt++ {
		if attempt > 0 {
			m.mu.Lock()
			m.stats.Retried++
			m.mu.Unlock()
		}
		if err = h(rec); err == nil {
			m.mu.Lock()
			m.stats.Dispatched++
			m.mu.Unlock()
			return
		}
	}
	m.mu.Lock()
	m.stats.Failed++
	m.mu.Unlock()
}

func (m *Monitor) flushTopic(topic string) {
	m.mu.Lock()
	batch := m.pending[topic]
	if len(batch) == 0 {
		m.mu.Unlock()
		return
	}
	m.pending[topic] = nil
	hs := append([]BatchHandler(nil), m.batchHandlers[topic]...)
	m.mu.Unlock()
	for _, h := range hs {
		if err := h(batch); err != nil {
			m.mu.Lock()
			m.stats.Failed += int64(len(batch))
			m.mu.Unlock()
			continue
		}
		m.mu.Lock()
		m.stats.Batches++
		m.stats.Dispatched += int64(len(batch))
		m.mu.Unlock()
	}
}

// Flush delivers all pending batches regardless of size.
func (m *Monitor) Flush() {
	m.mu.Lock()
	topics := make([]string, 0, len(m.pending))
	for t := range m.pending {
		topics = append(topics, t)
	}
	m.mu.Unlock()
	for _, t := range topics {
		m.flushTopic(t)
	}
}

// Close stops the monitor, flushing pending batches. It is idempotent.
func (m *Monitor) Close() {
	m.cancel()
	m.wg.Wait()
	m.Flush()
}
