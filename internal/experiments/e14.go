package experiments

import (
	"fmt"
	"time"

	"medchain/internal/chain"
	"medchain/internal/loadgen"
)

// --- E14: overload resilience ---
//
// The serving edge of a consortium chain is an open endpoint: nothing
// stops a buggy pipeline or a hostile client from offering far more
// load than the cluster can commit. E14 measures what the bounded
// mempool + admission controller turn that overload into. A fleet of
// open-loop bulk clients sweeps offered load across multipliers of a
// fixed base rate against a deliberately small serving edge (tiny
// pool, small blocks), each row on a fresh cluster. Reported per
// multiplier:
//
//   - goodput: committed tx/s sustained while the flood runs — the
//     load-shedding story is goodput holding (not collapsing) as
//     offered load grows past capacity;
//   - backpressure: the typed rejection breakdown (pool-full,
//     rate-limited, ...) — excess load must bounce with a typed,
//     retryable error, never an untyped failure;
//   - latency: submit→commit p50/p99 over committed transactions;
//   - fairness: Jain's index over per-client committed counts — the
//     edge must not starve some clients to serve others;
//   - bound: the peak pool occupancy across all nodes, which may never
//     exceed the configured capacity.
//
// Transactions carry a TTL so the shed backlog dead-letters with a
// typed reason instead of committing stale; expired and lost counts
// are reported. The fairness-under-mixed-traffic invariant (honest
// low-rate clients keeping bounded latency while bulk floods) is
// enforced separately and deterministically by internal/sim's
// overload harness (TestSimOverload).

// e14Config is the overload sweep.
type e14Config struct {
	// Multipliers are the offered-load multiples of e14BaseRate swept,
	// one row each.
	Multipliers []float64
	// Duration is each row's generation window.
	Duration time.Duration
}

var e14Sizes = [...]e14Config{
	Full:  {Multipliers: []float64{1, 4, 10}, Duration: 400 * time.Millisecond},
	Quick: {Multipliers: []float64{1, 10}, Duration: 300 * time.Millisecond},
}

const (
	// e14BaseRate is the 1x total offered load in tx/s across the fleet.
	e14BaseRate = 400
	// e14Clients is the fleet size; e14Nodes the cluster size.
	e14Clients = 4
	e14Nodes   = 3
	// e14PoolCapacity bounds each node's mempool.
	e14PoolCapacity = 64
	// e14MaxBlockTxs caps block size so overload actually outruns drain.
	e14MaxBlockTxs = 16
	// e14TTLBlocks stamps each transaction's deadline.
	e14TTLBlocks = 8
)

// e14Row is one offered-load multiplier of the overload sweep.
type e14Row struct {
	// Multiplier and OfferedRate define the row's offered load.
	Multiplier  float64
	OfferedRate float64
	// Offered/Submitted/Committed/Expired/Lost are transaction counts
	// through the funnel; Shed is total typed rejections and Untyped
	// the rejections that matched no typed reason (must be zero).
	Offered, Submitted, Committed, Expired, Lost int64
	Shed, Untyped                                int64
	// Rejected is the typed rejection breakdown by reason.
	Rejected map[string]int64
	// Goodput is committed tx/s over the generation window; P50/P99
	// are submit→commit latency quantiles.
	Goodput  float64
	P50, P99 time.Duration
	// Fairness is Jain's index over per-client committed counts.
	Fairness float64
	// PeakPool is the highest mempool occupancy any node saw; it may
	// never exceed the configured capacity.
	PeakPool int
	// Blocks is how many blocks the commit driver produced; Elapsed
	// the row's wall time.
	Blocks  int
	Elapsed time.Duration
}

// e14BlockInterval paces the commit driver: with 16-tx blocks the edge
// drains at most 1600 tx/s.
const e14BlockInterval = 10 * time.Millisecond

// e14Overload sweeps offered load across the configured multipliers,
// one fresh constrained cluster per row.
func e14Overload(cfg e14Config, seed int64) ([]e14Row, error) {
	rows := make([]e14Row, 0, len(cfg.Multipliers))
	for _, mult := range cfg.Multipliers {
		start := time.Now()
		c, err := chain.NewCluster(chain.ClusterConfig{
			Nodes:       e14Nodes,
			KeySeed:     fmt.Sprintf("e14-%d-%g", seed, mult),
			MaxBlockTxs: e14MaxBlockTxs,
			Mempool:     &chain.MempoolConfig{Capacity: e14PoolCapacity},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e14 %gx: %w", mult, err)
		}
		res, err := loadgen.Run(c, loadgen.Config{
			Clients:   e14Clients,
			Rate:      mult * e14BaseRate / float64(e14Clients),
			Duration:  cfg.Duration,
			TTLBlocks: e14TTLBlocks,
			KeySeed:   fmt.Sprintf("e14-%d-%g", seed, mult),
			// A fixed block interval caps the edge's drain rate at
			// MaxBlockTxs per interval however fast a commit round is,
			// so the top multiplier overloads it on any machine.
			CommitInterval: e14BlockInterval,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("experiments: e14 %gx: %w", mult, err)
		}
		row := e14Row{
			Multiplier:  mult,
			OfferedRate: mult * e14BaseRate,
			Offered:     res.Offered, Submitted: res.Submitted, Committed: res.Committed,
			Expired: res.ExpiredTTL, Lost: res.Lost,
			Rejected: res.Rejected,
			Goodput:  res.Goodput, P50: res.P50, P99: res.P99,
			Fairness: res.Fairness,
			Blocks:   res.Blocks,
			Elapsed:  time.Since(start),
		}
		for reason, n := range res.Rejected {
			if reason == loadgen.ReasonOther {
				row.Untyped += n
			} else {
				row.Shed += n
			}
		}
		for _, n := range c.Nodes() {
			if peak := n.MempoolStats().PeakSize; peak > row.PeakPool {
				row.PeakPool = peak
			}
		}
		c.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// verifyE14 enforces the overload acceptance bars on a finished sweep.
// The bars are deliberately timing-free (CI machines vary wildly):
// every row commits, every rejection is typed, the pool bound holds at
// every multiplier, fairness stays meaningful, and the top multiplier
// actually overloads the edge (typed shedding engaged, strictly more
// offered than committed — otherwise the shed bar passed vacuously).
func verifyE14(rows []e14Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: e14 produced no rows")
	}
	for _, r := range rows {
		if r.Committed == 0 {
			return fmt.Errorf("experiments: e14 %gx: nothing committed (goodput collapsed)", r.Multiplier)
		}
		if r.Untyped > 0 {
			return fmt.Errorf("experiments: e14 %gx: %d untyped rejections %v", r.Multiplier, r.Untyped, r.Rejected)
		}
		if r.PeakPool > e14PoolCapacity {
			return fmt.Errorf("experiments: e14 %gx: pool peaked at %d over capacity %d", r.Multiplier, r.PeakPool, e14PoolCapacity)
		}
		if r.Fairness <= 0 || r.Fairness > 1 {
			return fmt.Errorf("experiments: e14 %gx: fairness %v out of range", r.Multiplier, r.Fairness)
		}
	}
	top := rows[len(rows)-1]
	if top.Shed == 0 {
		return fmt.Errorf("experiments: e14 %gx: no typed shedding at the top multiplier — the edge was never overloaded", top.Multiplier)
	}
	if top.Offered <= top.Committed {
		return fmt.Errorf("experiments: e14 %gx: not overloaded: offered %d <= committed %d", top.Multiplier, top.Offered, top.Committed)
	}
	return nil
}

var e14Columns = []column[e14Row]{
	{"load", func(r e14Row) string { return fmt.Sprintf("%gx", r.Multiplier) }},
	{"rate/s", func(r e14Row) string { return fmt.Sprintf("%.0f", r.OfferedRate) }},
	{"offered", func(r e14Row) string { return fmt.Sprint(r.Offered) }},
	{"committed", func(r e14Row) string { return fmt.Sprint(r.Committed) }},
	{"shed", func(r e14Row) string { return fmt.Sprint(r.Shed) }},
	{"expired", func(r e14Row) string { return fmt.Sprint(r.Expired) }},
	{"lost", func(r e14Row) string { return fmt.Sprint(r.Lost) }},
	{"goodput/s", func(r e14Row) string { return fmt.Sprintf("%.0f", r.Goodput) }},
	{"p50", func(r e14Row) string { return fmtDur(r.P50) }},
	{"p99", func(r e14Row) string { return fmtDur(r.P99) }},
	{"fairness", func(r e14Row) string { return fmt.Sprintf("%.3f", r.Fairness) }},
	{"peakPool", func(r e14Row) string { return fmt.Sprint(r.PeakPool) }},
	{"blocks", func(r e14Row) string { return fmt.Sprint(r.Blocks) }},
	{"elapsed", func(r e14Row) string { return fmtDur(r.Elapsed) }},
}

func runE14(size Size, seed int64) ([]Table, error) {
	rows, err := e14Overload(e14Sizes[size], seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"E14 overload resilience: open-loop flood vs bounded mempool + admission control (fresh constrained cluster per row)",
		rows, e14Columns)}, verifyE14(rows)
}
