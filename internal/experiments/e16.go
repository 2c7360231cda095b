package experiments

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/shard"
	"medchain/internal/sim"
)

// --- E16: sharded multi-chain scale-out ---
//
// A4 asked whether the paper's "sharding is a partial fix" claim holds
// by simulating committee splits inside one chain. E16 answers the
// follow-up with the real subsystem: internal/shard runs N independent
// member chains under a coordination chain, so the three costs sharding
// actually trades can be measured directly:
//
//   - scaling: intra-shard throughput as the same workload is split
//     across 1/2/4/8 member shards committing in parallel — the win
//     sharding exists for;
//   - cross-shard overhead: the 2PC receipt relay settles transfers in
//     pump rounds (anchor → relay → prove → apply → resolve), so every
//     cross-shard operation pays a multi-block latency, and expired
//     deadlines surface as aborts — the cost the paper's architecture
//     avoids by keeping hospital workflows inside one chain;
//   - Byzantine containment: chaos plus the PR-5 adversary confined to
//     one shard must leave the other shards and the coordination chain
//     live and consistent — the isolation argument for sharding at all.
//
// verifyE16 is timing-free: it checks counts, terminal states, and
// containment, never wall-clock. Throughput and latency numbers are
// reported for the tables and the benchmark, not gated.

// e16Config is the sharding experiment.
type e16Config struct {
	// ShardCounts is the scaling sweep.
	ShardCounts []int
	// Rounds / TxsPerShard shape the intra-shard workload: each round
	// submits TxsPerShard registrations per shard, then every shard
	// commits in parallel.
	Rounds      int
	TxsPerShard int
	// CrossTransfers is the number of 2PC transfers in the cross-shard
	// leg, run on a 2-shard system.
	CrossTransfers int
	// ContainRounds drives the containment leg's sharded simulation.
	ContainRounds int
}

var e16Sizes = [...]e16Config{
	Full:  {ShardCounts: []int{1, 2, 4, 8}, Rounds: 4, TxsPerShard: 8, CrossTransfers: 12, ContainRounds: 16},
	Quick: {ShardCounts: []int{1, 2, 4}, Rounds: 2, TxsPerShard: 4, CrossTransfers: 8, ContainRounds: 10},
}

const (
	// e16NodesPerShard sizes every cluster, coordination chain included.
	e16NodesPerShard = 3
	// e16ShortExpiryEvery forces every Nth transfer onto the abort path
	// by granting an already-passed destination deadline.
	e16ShortExpiryEvery = 4
)

// e16ScaleRow is one shard count in the throughput sweep.
type e16ScaleRow struct {
	// Shards is the member shard count; Nodes the total node count
	// (members plus the coordination chain).
	Shards int
	Nodes  int
	// Txs is the application transactions committed across all shards.
	Txs int
	// Elapsed is the workload wall time; TPS the resulting rate.
	Elapsed time.Duration
	TPS     float64
	// Speedup is TPS relative to the 1-shard row.
	Speedup float64
}

// e16CrossRow summarizes the cross-shard 2PC leg.
type e16CrossRow struct {
	// Shards is the member shard count the transfers spanned.
	Shards int
	// Transfers / Committed / Aborted are the 2PC outcomes; Pending
	// must be zero after settling.
	Transfers int
	Committed int
	Aborted   int
	Pending   int
	// AbortRate is Aborted / Transfers.
	AbortRate float64
	// SettleRounds is the relay pump rounds until every transfer
	// reached a terminal state — the protocol's latency in block
	// rounds; Elapsed the wall time for the whole settlement.
	SettleRounds int
	Elapsed      time.Duration
}

// e16ContainRow summarizes the Byzantine containment leg.
type e16ContainRow struct {
	// Shards / ByzantineShard locate the adversary.
	Shards         int
	ByzantineShard int
	// Offenses is the adversary's scored actions; QuarantineBlocks its
	// quarantine latency (-1: muted before full quarantine).
	Offenses         int
	QuarantineBlocks int
	// Transfers / Pending are the cross-shard ops settled during the
	// attack.
	Transfers int
	Pending   int
	// HealthyMinHeight is the smallest final height among non-Byzantine
	// shards; CoordHeight the coordination chain's.
	HealthyMinHeight uint64
	CoordHeight      uint64
	// Violations are sharded-sim invariant failures (must be empty).
	Violations []string
}

// e16Scaling measures intra-shard throughput across shard counts.
func e16Scaling(cfg e16Config, seed int64) ([]e16ScaleRow, error) {
	rows := make([]e16ScaleRow, 0, len(cfg.ShardCounts))
	for _, shards := range cfg.ShardCounts {
		sys, err := shard.NewSystem(shard.Config{
			Shards: shards, NodesPerShard: e16NodesPerShard, CoordNodes: e16NodesPerShard,
			KeySeed: fmt.Sprintf("e16-scale-%d-%d", seed, shards),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e16 %d shards: %w", shards, err)
		}
		base := make([]uint64, shards)
		for i := range base {
			base[i] = shard.BestNode(sys.Shard(i)).Height()
		}
		start := time.Now()
		seq := 0
		for round := 0; round < cfg.Rounds; round++ {
			for i := 0; i < shards; i++ {
				for k := 0; k < cfg.TxsPerShard; k++ {
					seq++
					if err := registerDataset(sys, i, fmt.Sprintf("e16-ds-%d-%04d", seed, seq)); err != nil {
						sys.Close()
						return nil, fmt.Errorf("experiments: e16 register: %w", err)
					}
				}
			}
			// The point of sharding: every member chain commits its own
			// block concurrently.
			var wg sync.WaitGroup
			for i := 0; i < shards; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _ = sys.Shard(i).CommitAll()
				}(i)
			}
			wg.Wait()
		}
		row := e16ScaleRow{
			Shards: shards, Nodes: (shards + 1) * e16NodesPerShard,
			Elapsed: time.Since(start),
		}
		for i := 0; i < shards; i++ {
			n := shard.BestNode(sys.Shard(i))
			for h := base[i] + 1; h <= n.Height(); h++ {
				if blk, err := n.Chain().BlockAt(h); err == nil {
					row.Txs += len(blk.Txs)
				}
			}
		}
		if row.Elapsed > 0 {
			row.TPS = float64(row.Txs) / row.Elapsed.Seconds()
		}
		if len(rows) > 0 && rows[0].TPS > 0 {
			row.Speedup = row.TPS / rows[0].TPS
		} else if len(rows) == 0 {
			row.Speedup = 1
		}
		rows = append(rows, row)
		sys.Close()
	}
	return rows, nil
}

// datasetOwner derives the per-dataset owner key of the sharded
// experiments (E16, E17).
func datasetOwner(id string) (*cryptoutil.KeyPair, error) {
	return cryptoutil.DeriveKeyPair("sharded/owner/" + id)
}

// registerDataset submits one register_dataset with a fresh per-dataset
// owner key onto shard i.
func registerDataset(sys *shard.System, i int, id string) error {
	owner, err := datasetOwner(id)
	if err != nil {
		return err
	}
	args, err := json.Marshal(contract.RegisterDatasetArgs{
		ID: id, Schema: "fhir.r4", Records: 10, SiteID: shard.ShardID(i),
	})
	if err != nil {
		return err
	}
	return shard.SubmitSigned(sys.Shard(i), owner, &ledger.Transaction{
		Type: ledger.TxData, Method: "register_dataset", Args: args,
	})
}

// e16Cross measures 2PC settlement latency and the abort rate on a
// 2-shard system.
func e16Cross(cfg e16Config, seed int64) (*e16CrossRow, error) {
	const shards = 2
	sys, err := shard.NewSystem(shard.Config{
		Shards: shards, NodesPerShard: e16NodesPerShard, CoordNodes: e16NodesPerShard,
		KeySeed: fmt.Sprintf("e16-cross-%d", seed),
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: e16 cross: %w", err)
	}
	defer sys.Close()

	// Register the datasets, then prepare one transfer each; every Nth
	// gets an already-expired deadline and must abort.
	type xfer struct {
		owner *cryptoutil.KeyPair
		ds    string
		src   int
	}
	xfers := make([]xfer, 0, cfg.CrossTransfers)
	for k := 0; k < cfg.CrossTransfers; k++ {
		id := fmt.Sprintf("e16-x-%d-%03d", seed, k)
		src := k % shards
		if err := registerDataset(sys, src, id); err != nil {
			return nil, fmt.Errorf("experiments: e16 cross register: %w", err)
		}
		owner, _ := datasetOwner(id)
		xfers = append(xfers, xfer{owner: owner, ds: id, src: src})
	}
	for i := 0; i < shards; i++ {
		if _, err := sys.Shard(i).CommitAll(); err != nil {
			return nil, fmt.Errorf("experiments: e16 cross commit: %w", err)
		}
	}
	for k, x := range xfers {
		payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: x.ds})
		var expiry uint64
		if (k+1)%e16ShortExpiryEvery == 0 {
			expiry = 1
		}
		err := sys.SubmitPrepare(x.src, x.owner, contract.CrossPrepareArgs{
			ID: "xfer-" + x.ds, Kind: contract.CrossTransfer,
			DestShard: shard.ShardID(1 - x.src), DestExpiry: expiry,
			Payload: payload,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e16 prepare %s: %w", x.ds, err)
		}
	}

	row := &e16CrossRow{Shards: shards, Transfers: len(xfers)}
	start := time.Now()
	for round := 0; round < 40; round++ {
		for i := 0; i < shards; i++ {
			if _, err := sys.Shard(i).CommitAll(); err != nil {
				return nil, fmt.Errorf("experiments: e16 settle commit: %w", err)
			}
		}
		sys.PumpRound()
		row.SettleRounds = round + 1
		if sys.PendingTransfers() == 0 {
			break
		}
	}
	row.Elapsed = time.Since(start)

	for i := 0; i < shards; i++ {
		for _, prep := range shard.BestNode(sys.Shard(i)).State().CrossOutboundAll() {
			switch prep.Status {
			case contract.CrossCommitted:
				row.Committed++
			case contract.CrossAborted:
				row.Aborted++
			default:
				row.Pending++
			}
		}
	}
	if row.Transfers > 0 {
		row.AbortRate = float64(row.Aborted) / float64(row.Transfers)
	}
	return row, nil
}

// e16Containment runs the sharded simulation with chaos plus the
// Byzantine adversary confined to shard 0 of a 3-shard system. A
// simulation failure is reported through the row's Violations, so the
// table is in hand when verifyE16 names it.
func e16Containment(cfg e16Config, seed int64) (*e16ContainRow, error) {
	res, err := sim.RunSharded(sim.ShardedConfig{
		Seed: seed, Shards: 3, NodesPerShard: 4, Rounds: cfg.ContainRounds,
		Adversary: &sim.AdversaryConfig{}, ByzantineShard: 0,
	})
	row := &e16ContainRow{
		Shards: res.Shards, ByzantineShard: 0,
		QuarantineBlocks: res.QuarantineBlocks,
		Transfers:        res.Transfers, Pending: res.Pending,
		CoordHeight: res.CoordHeight, Violations: res.Violations,
	}
	for _, n := range res.AdversaryOffenses {
		row.Offenses += n
	}
	for i, h := range res.ShardHeights {
		if i == row.ByzantineShard {
			continue
		}
		if row.HealthyMinHeight == 0 || h < row.HealthyMinHeight {
			row.HealthyMinHeight = h
		}
	}
	if err != nil && len(row.Violations) == 0 {
		return nil, fmt.Errorf("experiments: e16 containment: %w", err)
	}
	return row, nil
}

// verifyE16 enforces the sharding acceptance bars without reading a
// clock: workload completeness per shard count, 2PC terminality with
// both outcomes exercised, and containment with zero violations.
func verifyE16(cfg e16Config, scale []e16ScaleRow, cross *e16CrossRow, contain *e16ContainRow) error {
	if len(scale) != len(cfg.ShardCounts) {
		return fmt.Errorf("experiments: e16: %d scale rows, want %d", len(scale), len(cfg.ShardCounts))
	}
	for i, r := range scale {
		want := cfg.Rounds * cfg.TxsPerShard * cfg.ShardCounts[i]
		if r.Txs != want {
			return fmt.Errorf("experiments: e16 %d shards: committed %d txs, want %d", r.Shards, r.Txs, want)
		}
	}
	if cross.Pending != 0 {
		return fmt.Errorf("experiments: e16: %d transfers never settled", cross.Pending)
	}
	if cross.Committed == 0 || cross.Aborted == 0 {
		return fmt.Errorf("experiments: e16: 2PC outcomes not both exercised (committed=%d aborted=%d)", cross.Committed, cross.Aborted)
	}
	wantAborts := cfg.CrossTransfers / e16ShortExpiryEvery
	if cross.Aborted != wantAborts {
		return fmt.Errorf("experiments: e16: %d aborts, want %d (every %dth transfer expires)", cross.Aborted, wantAborts, e16ShortExpiryEvery)
	}
	if len(contain.Violations) > 0 {
		return fmt.Errorf("experiments: e16 containment: %d violation(s); first: %s", len(contain.Violations), contain.Violations[0])
	}
	if contain.Offenses == 0 {
		return fmt.Errorf("experiments: e16 containment: adversary never acted")
	}
	if contain.Pending != 0 {
		return fmt.Errorf("experiments: e16 containment: %d transfers pending", contain.Pending)
	}
	return nil
}

var e16ScaleColumns = []column[e16ScaleRow]{
	{"shards", func(r e16ScaleRow) string { return fmt.Sprint(r.Shards) }},
	{"nodes", func(r e16ScaleRow) string { return fmt.Sprint(r.Nodes) }},
	{"txs", func(r e16ScaleRow) string { return fmt.Sprint(r.Txs) }},
	{"elapsed", func(r e16ScaleRow) string { return fmtDur(r.Elapsed) }},
	{"tps", func(r e16ScaleRow) string { return fmt.Sprintf("%.0f", r.TPS) }},
	{"speedup", func(r e16ScaleRow) string { return fmt.Sprintf("%.2fx", r.Speedup) }},
}

var e16CrossColumns = []column[*e16CrossRow]{
	{"shards", func(r *e16CrossRow) string { return fmt.Sprint(r.Shards) }},
	{"transfers", func(r *e16CrossRow) string { return fmt.Sprint(r.Transfers) }},
	{"committed", func(r *e16CrossRow) string { return fmt.Sprint(r.Committed) }},
	{"aborted", func(r *e16CrossRow) string { return fmt.Sprint(r.Aborted) }},
	{"abort%", func(r *e16CrossRow) string { return fmt.Sprintf("%.0f%%", r.AbortRate*100) }},
	{"rounds", func(r *e16CrossRow) string { return fmt.Sprint(r.SettleRounds) }},
	{"elapsed", func(r *e16CrossRow) string { return fmtDur(r.Elapsed) }},
}

var e16ContainColumns = []column[*e16ContainRow]{
	{"shards", func(r *e16ContainRow) string { return fmt.Sprint(r.Shards) }},
	{"byz", func(r *e16ContainRow) string { return shard.ShardID(r.ByzantineShard) }},
	{"offenses", func(r *e16ContainRow) string { return fmt.Sprint(r.Offenses) }},
	{"quarantine", func(r *e16ContainRow) string { return fmt.Sprint(r.QuarantineBlocks) }},
	{"transfers", func(r *e16ContainRow) string { return fmt.Sprint(r.Transfers) }},
	{"pending", func(r *e16ContainRow) string { return fmt.Sprint(r.Pending) }},
	{"healthyMinH", func(r *e16ContainRow) string { return fmt.Sprint(r.HealthyMinHeight) }},
	{"coordH", func(r *e16ContainRow) string { return fmt.Sprint(r.CoordHeight) }},
	{"violations", func(r *e16ContainRow) string { return fmt.Sprint(len(r.Violations)) }},
}

func runE16(size Size, seed int64) ([]Table, error) {
	cfg := e16Sizes[size]
	scale, err := e16Scaling(cfg, seed)
	if err != nil {
		return nil, err
	}
	cross, err := e16Cross(cfg, seed)
	if err != nil {
		return nil, err
	}
	contain, err := e16Containment(cfg, seed)
	if err != nil {
		return nil, err
	}
	return []Table{
		tabulate("E16a intra-shard throughput vs shard count (same per-shard workload; shards commit in parallel)", scale, e16ScaleColumns),
		tabulate("E16b cross-shard 2PC: receipt-relay settlement latency and abort rate (every expired deadline must abort)", []*e16CrossRow{cross}, e16CrossColumns),
		tabulate("E16c Byzantine containment: chaos + adversary confined to shard-0 (healthy shards and coord must stay live)", []*e16ContainRow{contain}, e16ContainColumns),
	}, verifyE16(cfg, scale, cross, contain)
}
