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

// E14Config tunes the overload sweep.
type E14Config struct {
	// Multipliers are the offered-load multiples of BaseRate swept,
	// one row each (default 1, 4, 10).
	Multipliers []float64
	// BaseRate is the 1x total offered load in tx/s across the fleet
	// (default 400).
	BaseRate float64
	// Clients is the fleet size (default 4).
	Clients int
	// Duration is each row's generation window (default 400ms).
	Duration time.Duration
	// Nodes is the cluster size (default 3).
	Nodes int
	// PoolCapacity bounds each node's mempool (default 64).
	PoolCapacity int
	// MaxBlockTxs caps block size so overload actually outruns drain
	// (default 16).
	MaxBlockTxs int
	// TTLBlocks stamps each transaction's deadline (default 8).
	TTLBlocks uint64
	// Seed derives the per-row client key seeds.
	Seed int64
}

func (c E14Config) withDefaults() E14Config {
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{1, 4, 10}
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 400
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.PoolCapacity <= 0 {
		c.PoolCapacity = 64
	}
	if c.MaxBlockTxs <= 0 {
		c.MaxBlockTxs = 16
	}
	if c.TTLBlocks == 0 {
		c.TTLBlocks = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// E14Row is one offered-load multiplier of the overload sweep.
type E14Row struct {
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

// e14BlockInterval paces the commit driver: with the default 16-tx
// blocks the edge drains at most 1600 tx/s.
const e14BlockInterval = 10 * time.Millisecond

// E14Overload sweeps offered load across the configured multipliers,
// one fresh constrained cluster per row.
func E14Overload(cfg E14Config) ([]E14Row, error) {
	cfg = cfg.withDefaults()
	rows := make([]E14Row, 0, len(cfg.Multipliers))
	for _, mult := range cfg.Multipliers {
		start := time.Now()
		c, err := chain.NewCluster(chain.ClusterConfig{
			Nodes:       cfg.Nodes,
			KeySeed:     fmt.Sprintf("e14-%d-%g", cfg.Seed, mult),
			MaxBlockTxs: cfg.MaxBlockTxs,
			Mempool:     &chain.MempoolConfig{Capacity: cfg.PoolCapacity},
		})
		if err != nil {
			return rows, fmt.Errorf("experiments: e14 %gx: %w", mult, err)
		}
		res, err := loadgen.Run(c, loadgen.Config{
			Clients:   cfg.Clients,
			Rate:      mult * cfg.BaseRate / float64(cfg.Clients),
			Duration:  cfg.Duration,
			TTLBlocks: cfg.TTLBlocks,
			KeySeed:   fmt.Sprintf("e14-%d-%g", cfg.Seed, mult),
			// A fixed block interval caps the edge's drain rate at
			// MaxBlockTxs per interval however fast a commit round is,
			// so the top multiplier overloads it on any machine.
			CommitInterval: e14BlockInterval,
		})
		if err != nil {
			c.Close()
			return rows, fmt.Errorf("experiments: e14 %gx: %w", mult, err)
		}
		row := E14Row{
			Multiplier:  mult,
			OfferedRate: mult * cfg.BaseRate,
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

// E14Verify enforces the overload acceptance bars on a finished sweep.
// The bars are deliberately timing-free (CI machines vary wildly):
// every row commits, every rejection is typed, the pool bound holds at
// every multiplier, fairness stays meaningful, and the top multiplier
// actually overloads the edge (typed shedding engaged).
func E14Verify(cfg E14Config, rows []E14Row) error {
	cfg = cfg.withDefaults()
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
		if r.PeakPool > cfg.PoolCapacity {
			return fmt.Errorf("experiments: e14 %gx: pool peaked at %d over capacity %d", r.Multiplier, r.PeakPool, cfg.PoolCapacity)
		}
		if r.Fairness <= 0 || r.Fairness > 1 {
			return fmt.Errorf("experiments: e14 %gx: fairness %v out of range", r.Multiplier, r.Fairness)
		}
	}
	if top := rows[len(rows)-1]; top.Shed == 0 {
		return fmt.Errorf("experiments: e14 %gx: no typed shedding at the top multiplier — the edge was never overloaded", top.Multiplier)
	}
	return nil
}

// TableE14 renders the overload sweep.
func TableE14(rows []E14Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%gx", r.Multiplier),
			fmt.Sprintf("%.0f", r.OfferedRate),
			fmt.Sprint(r.Offered),
			fmt.Sprint(r.Committed),
			fmt.Sprint(r.Shed),
			fmt.Sprint(r.Expired),
			fmt.Sprint(r.Lost),
			fmt.Sprintf("%.0f", r.Goodput),
			fmtDur(r.P50),
			fmtDur(r.P99),
			fmt.Sprintf("%.3f", r.Fairness),
			fmt.Sprint(r.PeakPool),
			fmt.Sprint(r.Blocks),
			fmtDur(r.Elapsed),
		}
	}
	return Table(
		"E14 overload resilience: open-loop flood vs bounded mempool + admission control (fresh constrained cluster per row)",
		[]string{"load", "rate/s", "offered", "committed", "shed", "expired", "lost", "goodput/s", "p50", "p99", "fairness", "peakPool", "blocks", "elapsed"},
		out,
	)
}
