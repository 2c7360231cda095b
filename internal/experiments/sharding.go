package experiments

import (
	"fmt"
	"slices"
	"time"

	"medchain/internal/chain"
	"medchain/internal/p2p"
)

// --- A4: sharded validation ---
//
// The paper's introduction surveys sharding (Chainspace) as a partial
// fix: transactions are partitioned across committees so validation
// parallelizes — but it "only addresses the duplicated computing issue
// of transaction validation in mining space, not … a distributed and
// parallel computing architecture for arbitrary computation". This
// ablation quantifies both halves of that sentence: sharding improves
// throughput versus one monolithic chain of the same total size, yet
// every committee still fully replicates the execution of its own
// shard, so the computation waste ratio stays at committee-size×.

// a4Row is one configuration's measurement.
type a4Row struct {
	// Shards is the number of committees (1 = monolithic baseline).
	Shards int
	// NodesPerShard is each committee's size.
	NodesPerShard int
	// Txs is the committed workload.
	Txs int
	// Elapsed is the modeled wall time: the slowest committee's commit
	// time, each committee's the minimum over a4Repeats (committees run
	// one after another on this host and are modeled on disjoint
	// hardware, like E3).
	Elapsed time.Duration
	// Throughput is Txs/Elapsed.
	Throughput float64
	// WasteRatio is cluster gas over useful gas — unchanged by
	// sharding within a committee.
	WasteRatio float64
}

// The sharding ablation has one size: with fewer nodes or transactions
// the committees' commit rounds are too close to the monolithic chain's
// for the throughput comparison to hold on a loaded host.
const (
	// a4TotalNodes is the fixed hardware budget split into committees.
	a4TotalNodes = 8
	// a4Txs is the workload size (split across shards by sender).
	a4Txs = 8
)

// a4ShardCounts are the committee counts to sweep (each divides
// a4TotalNodes).
var a4ShardCounts = []int{1, 2, 4}

// a4Repeats is how many times each configuration is built and timed.
// Each committee's commit time is the minimum over repeats, the way E3
// and E10 aggregate: on a shared host background load only ever
// inflates a timing, and one preempted committee must not decide the
// comparison.
const a4Repeats = 3

// a4Sharding runs the same workload on one N-node chain versus K
// committees of N/K nodes each (transactions routed by sender).
func a4Sharding(seed int64) ([]a4Row, error) {
	var rows []a4Row
	for _, shards := range a4ShardCounts {
		best := make([]time.Duration, shards)
		var useful, total int64
		for rep := 0; rep < a4Repeats; rep++ {
			elapsed, u, t, err := a4Commit(seed, shards)
			if err != nil {
				return nil, err
			}
			for s, el := range elapsed {
				if rep == 0 || el < best[s] {
					best[s] = el
				}
			}
			useful, total = u, t
		}
		// Committees are disjoint hardware, so the modeled wall time is
		// the slowest committee's.
		slowest := slices.Max(best)
		row := a4Row{
			Shards:        shards,
			NodesPerShard: a4TotalNodes / shards,
			Txs:           a4Txs,
			Elapsed:       slowest,
		}
		if slowest > 0 {
			row.Throughput = float64(a4Txs) / slowest.Seconds()
		}
		if useful > 0 {
			row.WasteRatio = float64(total) / float64(useful)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// a4Commit builds the committees of one configuration, gives each its
// share of the workload, and commits them one after another on this
// host: it returns each committee's commit time, and the useful and the
// total gas of all of them.
func a4Commit(seed int64, shards int) (elapsed []time.Duration, useful, total int64, err error) {
	clusters := make([]*chain.Cluster, shards)
	defer func() {
		for _, c := range clusters {
			if c != nil {
				c.Close()
			}
		}
	}()
	for s := range clusters {
		clusters[s], err = chain.NewCluster(chain.ClusterConfig{
			Nodes:   a4TotalNodes / shards,
			Network: p2p.Config{BaseLatency: linkLatency, Seed: seed},
			ChainID: fmt.Sprintf("shard-%d", s),
			KeySeed: fmt.Sprintf("a4/%d/%d/%d", seed, shards, s),
		})
		if err != nil {
			return nil, 0, 0, err
		}
	}
	// Route transactions to shards by a per-shard sender (shard =
	// committee owning that sender's account space): each committee
	// gets an equal share of the workload.
	for s, c := range clusters {
		if err := submitRegistrations(c, fmt.Sprintf("a4-user-%d-%d", shards, s), fmt.Sprintf("a4/%d/%d", shards, s), a4Txs/shards); err != nil {
			return nil, 0, 0, err
		}
	}
	for _, c := range clusters {
		start := time.Now()
		if _, err := c.CommitAll(); err != nil {
			return nil, 0, 0, err
		}
		elapsed = append(elapsed, time.Since(start))
	}
	for _, c := range clusters {
		useful += c.UsefulGasUsed()
		total += c.TotalGasUsed()
	}
	return elapsed, useful, total, nil
}

// verifyA4 holds both halves of the paper's sentence on sharding: the
// most-sharded configuration out-runs the monolithic chain on the same
// node budget, yet each committee still replicates its shard's execution
// (waste ratio = committee size).
func verifyA4(rows []a4Row) error {
	mono, sharded := rows[0], rows[len(rows)-1]
	if sharded.Throughput <= mono.Throughput {
		return fmt.Errorf("experiments: a4: sharding did not improve throughput: %.1f tx/s at %d shards vs %.1f monolithic",
			sharded.Throughput, sharded.Shards, mono.Throughput)
	}
	if sharded.WasteRatio < float64(sharded.NodesPerShard)-0.01 {
		return fmt.Errorf("experiments: a4: waste ratio %.2f below committee size %d", sharded.WasteRatio, sharded.NodesPerShard)
	}
	return nil
}

var a4Columns = []column[a4Row]{
	{"shards", func(r a4Row) string { return fmt.Sprint(r.Shards) }},
	{"nodes/shard", func(r a4Row) string { return fmt.Sprint(r.NodesPerShard) }},
	{"elapsed", func(r a4Row) string { return fmtDur(r.Elapsed) }},
	{"tx/s", func(r a4Row) string { return fmt.Sprintf("%.1f", r.Throughput) }},
	{"waste ratio", func(r a4Row) string { return fmt.Sprintf("%.1f", r.WasteRatio) }},
}

func runA4(_ Size, seed int64) ([]Table, error) {
	rows, err := a4Sharding(seed)
	if err != nil {
		return nil, err
	}
	return []Table{tabulate(
		"A4  Sharded validation (fixed 8-node budget): throughput improves but execution waste stays at committee size",
		rows, a4Columns)}, verifyA4(rows)
}
