package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/shard"
	"medchain/internal/store"
)

// --- E17: crash-durable elastic shards ---
//
// E16 measured what sharding buys and costs while every chain stayed
// up. E17 measures the machinery that keeps the sharded deployment
// honest when it doesn't: whole-shard crash recovery from per-node
// stores, epoch-based resharding, and gateway failover committees.
//
//   - recovery: a member shard is power-cut (every node at once) and
//     recovered from disk at increasing chain lengths — recovery must
//     reproduce the pre-crash head bit-identically, and the snapshot
//     cadence bounds how many WAL blocks are re-executed;
//   - resharding: a 2-shard deployment grows to 3 through a full epoch
//     transition (begin_epoch → migrate → commit_epoch) at increasing
//     dataset counts — the cost is the migrated fraction and wall time,
//     the bar is zero lost, duplicated, or misplaced datasets;
//   - failover: the active anchoring gateway of one shard is killed
//     with and without a standby committee — without one the shard's
//     anchoring (and every outbound transfer) stalls forever; with one
//     a standby takes the lease after it expires and the backlog
//     settles, the downtime bounded in coordination-chain blocks.
//
// verifyE17 is timing-free: head identity, replay arithmetic, dataset
// censuses, lease membership and block-counted downtime — never
// wall-clock. Elapsed times are reported for the tables only.

// e17Config is the elasticity experiment.
type e17Config struct {
	// ChainLengths is the recovery sweep: blocks committed on the
	// victim shard before the power cut.
	ChainLengths []int
	// DatasetCounts is the resharding sweep: datasets registered before
	// the 2 -> 3 shard epoch transition.
	DatasetCounts []int
}

var e17Sizes = [...]e17Config{
	Full:  {ChainLengths: []int{4, 8, 16}, DatasetCounts: []int{8, 16, 32}},
	Quick: {ChainLengths: []int{4, 8}, DatasetCounts: []int{8, 16}},
}

const (
	// e17NodesPerShard sizes every cluster, coordination chain included.
	e17NodesPerShard = 3
	// e17SnapshotEvery is the state-snapshot cadence of the disk-backed
	// recovery leg: recovery replays at most the blocks since the last
	// snapshot.
	e17SnapshotEvery = 4
	// e17MigrateRounds bounds the migration drain.
	e17MigrateRounds = 40
	// e17LeaseBlocks is the anchoring-lease bound in coordination-chain
	// blocks for the failover leg.
	e17LeaseBlocks = 4
	// e17FailoverRounds bounds the post-kill commit/pump rounds while
	// waiting for a standby takeover.
	e17FailoverRounds = 16
)

// e17CommitteeSizes is the failover sweep: size 1 means no standby —
// the control run that shows what failover is for.
var e17CommitteeSizes = []int{1, 3}

// e17RecoverRow is one chain length in the whole-shard recovery sweep.
type e17RecoverRow struct {
	// Blocks is the blocks committed on the victim shard post-boot;
	// Height the resulting (and recovered) chain height.
	Blocks int
	Height uint64
	// SnapshotHeight / ReplayedBlocks report node 0's recovery: the
	// snapshot it resumed from and the WAL blocks re-executed past it.
	SnapshotHeight uint64
	ReplayedBlocks int
	// HeadMatch is true when the recovered head equals the pre-crash
	// head hash and height exactly.
	HeadMatch bool
	// Elapsed is the whole-shard recovery wall time (all nodes).
	Elapsed time.Duration
}

// e17ReshardRow is one dataset count in the epoch-transition sweep.
type e17ReshardRow struct {
	// Datasets is the population size; Migrated how many the epoch
	// transition moved to the new shard layout.
	Datasets int
	Migrated int
	// FinalEpoch is the committed routing epoch after the transition
	// (must be 2: bootstrap commits epoch 1).
	FinalEpoch uint64
	// Lost / Duplicated / Misplaced are census failures after the
	// commit: datasets with zero live copies, more than one, or a live
	// copy off their epoch-2 home (all must be 0).
	Lost       int
	Duplicated int
	Misplaced  int
	// Elapsed is the full transition wall time (grow + migrate +
	// commit).
	Elapsed time.Duration
}

// e17FailoverRow is one committee size in the gateway-kill sweep.
type e17FailoverRow struct {
	// Committee is the gateway committee size; LeaseBlocks the lease
	// bound in coordination-chain blocks.
	Committee   int
	LeaseBlocks uint64
	// AnchorAtKill is the victim shard's last anchored coordination
	// height when its gateway was killed; RecoverAnchor the first
	// anchor by the standby that took over (0 = never).
	AnchorAtKill  uint64
	RecoverAnchor uint64
	// DowntimeBlocks is RecoverAnchor - AnchorAtKill: how long the
	// shard went unanchored, in coordination-chain blocks (-1 = never
	// recovered).
	DowntimeBlocks int
	// Recovered is true when a different committee member anchored
	// after the kill; TakeoverInCommittee that the new lease holder is
	// a registered committee member.
	Recovered           bool
	TakeoverInCommittee bool
	// Pending is the cross-shard transfers still unsettled at the end:
	// 0 with a standby, > 0 without one (the stall is the point).
	Pending int
}

// e17Transfer prepares one cross-shard transfer of ds from src to dest
// and commits the prepare on src.
func e17Transfer(sys *shard.System, src, dest int, id, ds string) error {
	owner, err := datasetOwner(ds)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(contract.CrossTransferPayload{Dataset: ds})
	if err != nil {
		return err
	}
	err = sys.SubmitPrepare(src, owner, contract.CrossPrepareArgs{
		ID: id, Kind: contract.CrossTransfer,
		DestShard: shard.ShardID(dest), Payload: payload,
	})
	if err != nil {
		return err
	}
	_, err = sys.Shard(src).CommitAll()
	return err
}

// e17Recovery power-cuts a whole member shard at increasing chain
// lengths and recovers it from its per-node stores.
func e17Recovery(chainLengths []int, seed int64) ([]e17RecoverRow, error) {
	rows := make([]e17RecoverRow, 0, len(chainLengths))
	for _, blocks := range chainLengths {
		sys, err := shard.NewSystem(shard.Config{
			Shards: 2, NodesPerShard: e17NodesPerShard, CoordNodes: e17NodesPerShard,
			KeySeed:       fmt.Sprintf("e17-rec-%d-%d", seed, blocks),
			FS:            store.NewMemFS(),
			SnapshotEvery: e17SnapshotEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e17 recovery boot: %w", err)
		}
		for b := 0; b < blocks; b++ {
			for k := 0; k < 2; k++ {
				id := fmt.Sprintf("e17-rec-%d-%d-%02d-%d", seed, blocks, b, k)
				if err := registerDataset(sys, 0, id); err != nil {
					sys.Close()
					return nil, fmt.Errorf("experiments: e17 recovery register: %w", err)
				}
			}
			if _, err := sys.Shard(0).CommitAll(); err != nil {
				sys.Close()
				return nil, fmt.Errorf("experiments: e17 recovery commit: %w", err)
			}
		}
		pre := shard.BestNode(sys.Shard(0)).Chain().Head()
		wantHash, wantHeight := pre.Hash(), pre.Header.Height

		sys.StopShard(0)
		start := time.Now()
		if err := sys.RecoverShard(0); err != nil {
			sys.Close()
			return nil, fmt.Errorf("experiments: e17 recover shard: %w", err)
		}
		row := e17RecoverRow{Blocks: blocks, Elapsed: time.Since(start)}
		got := shard.BestNode(sys.Shard(0)).Chain().Head()
		row.Height = got.Header.Height
		row.HeadMatch = got.Hash() == wantHash && got.Header.Height == wantHeight
		if rec := sys.Shard(0).Node(0).LastRecovery(); rec != nil {
			row.SnapshotHeight = rec.SnapshotHeight
			row.ReplayedBlocks = rec.ReplayedBlocks
		}
		rows = append(rows, row)
		sys.Close()
	}
	return rows, nil
}

// e17Reshard grows a 2-shard deployment to 3 through a full epoch
// transition at increasing dataset counts and censuses the survivors.
func e17Reshard(datasetCounts []int, seed int64) ([]e17ReshardRow, error) {
	rows := make([]e17ReshardRow, 0, len(datasetCounts))
	for _, count := range datasetCounts {
		sys, err := shard.NewSystem(shard.Config{
			Shards: 2, NodesPerShard: e17NodesPerShard, CoordNodes: e17NodesPerShard,
			KeySeed: fmt.Sprintf("e17-rs-%d-%d", seed, count),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e17 reshard boot: %w", err)
		}
		ids := make([]string, 0, count)
		pendingPer := make([]int, sys.Shards())
		for k := 0; k < count; k++ {
			id := fmt.Sprintf("e17-rs-%d-%d-%03d", seed, count, k)
			home := sys.ShardOf(id)
			if err := registerDataset(sys, home, id); err != nil {
				sys.Close()
				return nil, fmt.Errorf("experiments: e17 reshard register: %w", err)
			}
			ids = append(ids, id)
			if pendingPer[home]++; pendingPer[home] >= 8 {
				pendingPer[home] = 0
				if _, err := sys.Shard(home).CommitAll(); err != nil {
					sys.Close()
					return nil, fmt.Errorf("experiments: e17 reshard commit: %w", err)
				}
			}
		}
		for i := 0; i < sys.Shards(); i++ {
			if _, err := sys.Shard(i).CommitAll(); err != nil {
				sys.Close()
				return nil, fmt.Errorf("experiments: e17 reshard commit: %w", err)
			}
		}

		start := time.Now()
		if _, err := sys.AddShard(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("experiments: e17 add shard: %w", err)
		}
		if _, err := sys.BeginEpoch(sys.ShardIDs()); err != nil {
			sys.Close()
			return nil, fmt.Errorf("experiments: e17 begin epoch: %w", err)
		}
		moved, err := sys.DrainMigrations(func(m shard.Migration) *cryptoutil.KeyPair {
			kp, _ := datasetOwner(m.Dataset)
			return kp
		}, e17MigrateRounds)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("experiments: e17 migrate: %w", err)
		}
		if err := sys.CommitEpoch(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("experiments: e17 commit epoch: %w", err)
		}
		row := e17ReshardRow{
			Datasets: count, Migrated: moved,
			FinalEpoch: sys.Epoch(), Elapsed: time.Since(start),
		}
		for _, id := range ids {
			live := 0
			for i := 0; i < sys.Shards(); i++ {
				n := shard.BestNode(sys.Shard(i))
				if n == nil {
					continue
				}
				if ds, ok := n.State().Dataset(id); ok && ds.MovedTo == "" {
					live++
					if i != sys.ShardOf(id) {
						row.Misplaced++
					}
				}
			}
			switch {
			case live == 0:
				row.Lost++
			case live > 1:
				row.Duplicated++
			}
		}
		rows = append(rows, row)
		sys.Close()
	}
	return rows, nil
}

// e17Failover kills the active anchoring gateway of shard 0 with and
// without standby committee members and measures the anchoring outage
// in coordination-chain blocks.
func e17Failover(seed int64) ([]e17FailoverRow, error) {
	rows := make([]e17FailoverRow, 0, len(e17CommitteeSizes))
	for _, committee := range e17CommitteeSizes {
		sys, err := shard.NewSystem(shard.Config{
			Shards: 2, NodesPerShard: e17NodesPerShard, CoordNodes: e17NodesPerShard,
			KeySeed:       fmt.Sprintf("e17-fo-%d-%d", seed, committee),
			CommitteeSize: committee,
			LeaseBlocks:   e17LeaseBlocks,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: e17 failover boot: %w", err)
		}
		// A dataset pool on each shard feeds one transfer per direction
		// per round — outbound traffic is what makes the outage visible.
		pool := make([][]string, 2)
		for s := 0; s < 2; s++ {
			for k := 0; k < e17FailoverRounds+4; k++ {
				id := fmt.Sprintf("e17-fo-%d-%d-%d-%02d", seed, committee, s, k)
				if err := registerDataset(sys, s, id); err != nil {
					sys.Close()
					return nil, fmt.Errorf("experiments: e17 failover register: %w", err)
				}
				pool[s] = append(pool[s], id)
			}
			if _, err := sys.Shard(s).CommitAll(); err != nil {
				sys.Close()
				return nil, fmt.Errorf("experiments: e17 failover commit: %w", err)
			}
		}
		next := []int{0, 0}
		xferSeq := 0
		transferEach := func() error {
			for s := 0; s < 2; s++ {
				ds := pool[s][next[s]]
				next[s]++
				xferSeq++
				if err := e17Transfer(sys, s, 1-s, fmt.Sprintf("e17-fo-x-%03d", xferSeq), ds); err != nil {
					return err
				}
			}
			return nil
		}
		// Warm up: one settled round-trip proves anchoring works before
		// the kill.
		if err := transferEach(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("experiments: e17 failover warmup: %w", err)
		}
		sys.Pump(10)

		row := e17FailoverRow{Committee: committee, LeaseBlocks: e17LeaseBlocks, DowntimeBlocks: -1}
		coordState := shard.BestNode(sys.Coord()).State()
		if info, ok := coordState.ShardInfoOf(shard.ShardID(0)); ok {
			row.AnchorAtKill = info.LastAnchor
		}
		killed := sys.ActiveGateway(0)
		sys.KillGateway(0)

		for r := 0; r < e17FailoverRounds; r++ {
			if err := transferEach(); err != nil {
				sys.Close()
				return nil, fmt.Errorf("experiments: e17 failover round %d: %w", r, err)
			}
			sys.PumpRound()
			n := shard.BestNode(sys.Coord())
			if n == nil {
				continue
			}
			info, ok := n.State().ShardInfoOf(shard.ShardID(0))
			if !ok {
				continue
			}
			if info.Gateway != killed && info.LastAnchor > row.AnchorAtKill {
				row.Recovered = true
				row.RecoverAnchor = info.LastAnchor
				row.DowntimeBlocks = int(info.LastAnchor - row.AnchorAtKill)
				for _, m := range sys.CommitteeAddresses(0) {
					if m == info.Gateway {
						row.TakeoverInCommittee = true
					}
				}
				break
			}
		}
		// Let the backlog settle (it can't without a takeover).
		for r := 0; r < 30 && sys.PendingTransfers() > 0; r++ {
			for s := 0; s < 2; s++ {
				if _, err := sys.Shard(s).CommitAll(); err != nil {
					sys.Close()
					return nil, fmt.Errorf("experiments: e17 failover settle: %w", err)
				}
			}
			sys.PumpRound()
		}
		row.Pending = sys.PendingTransfers()
		rows = append(rows, row)
		sys.Close()
	}
	return rows, nil
}

// verifyE17 enforces the elasticity acceptance bars without reading a
// clock: bit-identical recovered heads with snapshot-bounded replay,
// loss-free epoch transitions, and lease takeover if and only if a
// standby exists.
func verifyE17(cfg e17Config, recov []e17RecoverRow, reshard []e17ReshardRow, failover []e17FailoverRow) error {
	if len(recov) != len(cfg.ChainLengths) {
		return fmt.Errorf("experiments: e17: %d recovery rows, want %d", len(recov), len(cfg.ChainLengths))
	}
	for _, r := range recov {
		if !r.HeadMatch {
			return fmt.Errorf("experiments: e17 recovery at %d blocks: head not bit-identical", r.Blocks)
		}
		if r.Height < uint64(r.Blocks) {
			return fmt.Errorf("experiments: e17 recovery at %d blocks: recovered height %d too short", r.Blocks, r.Height)
		}
		if got, want := r.ReplayedBlocks, int(r.Height-r.SnapshotHeight); got != want {
			return fmt.Errorf("experiments: e17 recovery at %d blocks: replayed %d, want height-snapshot = %d", r.Blocks, got, want)
		}
		if r.SnapshotHeight == 0 && r.Height > uint64(2*e17SnapshotEvery) {
			return fmt.Errorf("experiments: e17 recovery at %d blocks: no snapshot used despite cadence %d", r.Blocks, e17SnapshotEvery)
		}
	}
	if len(reshard) != len(cfg.DatasetCounts) {
		return fmt.Errorf("experiments: e17: %d reshard rows, want %d", len(reshard), len(cfg.DatasetCounts))
	}
	for _, r := range reshard {
		if r.FinalEpoch != 2 {
			return fmt.Errorf("experiments: e17 reshard %d datasets: final epoch %d, want 2", r.Datasets, r.FinalEpoch)
		}
		if r.Lost != 0 || r.Duplicated != 0 || r.Misplaced != 0 {
			return fmt.Errorf("experiments: e17 reshard %d datasets: lost=%d duplicated=%d misplaced=%d, want all 0",
				r.Datasets, r.Lost, r.Duplicated, r.Misplaced)
		}
		if r.Migrated == 0 {
			return fmt.Errorf("experiments: e17 reshard %d datasets: epoch transition migrated nothing", r.Datasets)
		}
		if r.Migrated > r.Datasets {
			return fmt.Errorf("experiments: e17 reshard %d datasets: migrated %d > population", r.Datasets, r.Migrated)
		}
	}
	if len(failover) != len(e17CommitteeSizes) {
		return fmt.Errorf("experiments: e17: %d failover rows, want %d", len(failover), len(e17CommitteeSizes))
	}
	sawControl, sawFailover := false, false
	for _, r := range failover {
		if r.Committee <= 1 {
			sawControl = true
			if r.Recovered {
				return fmt.Errorf("experiments: e17 failover committee=%d: anchoring recovered without a standby", r.Committee)
			}
			if r.Pending == 0 {
				return fmt.Errorf("experiments: e17 failover committee=%d: outbound transfers settled without anchoring", r.Committee)
			}
			continue
		}
		sawFailover = true
		if !r.Recovered {
			return fmt.Errorf("experiments: e17 failover committee=%d: standby never took the lease", r.Committee)
		}
		if !r.TakeoverInCommittee {
			return fmt.Errorf("experiments: e17 failover committee=%d: lease left the registered committee", r.Committee)
		}
		if r.DowntimeBlocks <= int(r.LeaseBlocks) {
			return fmt.Errorf("experiments: e17 failover committee=%d: downtime %d blocks inside the lease bound %d — takeover before expiry",
				r.Committee, r.DowntimeBlocks, r.LeaseBlocks)
		}
		if r.Pending != 0 {
			return fmt.Errorf("experiments: e17 failover committee=%d: %d transfers never settled after takeover", r.Committee, r.Pending)
		}
	}
	if !sawControl || !sawFailover {
		return fmt.Errorf("experiments: e17 failover: sweep must include committee=1 and committee>1 (control=%v failover=%v)", sawControl, sawFailover)
	}
	return nil
}

// yesNo is how E17's tables print a bar that held or did not.
func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

var e17RecoverColumns = []column[e17RecoverRow]{
	{"blocks", func(r e17RecoverRow) string { return fmt.Sprint(r.Blocks) }},
	{"height", func(r e17RecoverRow) string { return fmt.Sprint(r.Height) }},
	{"snapshot@", func(r e17RecoverRow) string { return fmt.Sprint(r.SnapshotHeight) }},
	{"replayed", func(r e17RecoverRow) string { return fmt.Sprint(r.ReplayedBlocks) }},
	{"head match", func(r e17RecoverRow) string { return yesNo(r.HeadMatch) }},
	{"recovery", func(r e17RecoverRow) string { return fmtDur(r.Elapsed) }},
}

var e17ReshardColumns = []column[e17ReshardRow]{
	{"datasets", func(r e17ReshardRow) string { return fmt.Sprint(r.Datasets) }},
	{"migrated", func(r e17ReshardRow) string { return fmt.Sprint(r.Migrated) }},
	{"moved%", func(r e17ReshardRow) string {
		return fmt.Sprintf("%.0f%%", float64(r.Migrated)/float64(max(r.Datasets, 1))*100)
	}},
	{"epoch", func(r e17ReshardRow) string { return fmt.Sprint(r.FinalEpoch) }},
	{"lost", func(r e17ReshardRow) string { return fmt.Sprint(r.Lost) }},
	{"dup", func(r e17ReshardRow) string { return fmt.Sprint(r.Duplicated) }},
	{"misplaced", func(r e17ReshardRow) string { return fmt.Sprint(r.Misplaced) }},
	{"elapsed", func(r e17ReshardRow) string { return fmtDur(r.Elapsed) }},
}

var e17FailoverColumns = []column[e17FailoverRow]{
	{"committee", func(r e17FailoverRow) string { return fmt.Sprint(r.Committee) }},
	{"lease", func(r e17FailoverRow) string { return fmt.Sprint(r.LeaseBlocks) }},
	{"recovered", func(r e17FailoverRow) string { return yesNo(r.Recovered) }},
	{"downtime (coord blocks)", func(r e17FailoverRow) string {
		if !r.Recovered {
			return "∞"
		}
		return fmt.Sprint(r.DowntimeBlocks)
	}},
	{"pending", func(r e17FailoverRow) string { return fmt.Sprint(r.Pending) }},
}

func runE17(size Size, seed int64) ([]Table, error) {
	cfg := e17Sizes[size]
	recov, err := e17Recovery(cfg.ChainLengths, seed)
	if err != nil {
		return nil, err
	}
	reshard, err := e17Reshard(cfg.DatasetCounts, seed)
	if err != nil {
		return nil, err
	}
	failover, err := e17Failover(seed)
	if err != nil {
		return nil, err
	}
	return []Table{
		tabulate("E17a whole-shard crash recovery vs chain length (snapshot cadence bounds WAL replay; head must be bit-identical)", recov, e17RecoverColumns),
		tabulate("E17b epoch-based resharding 2 -> 3 shards vs dataset count (zero lost/duplicated/misplaced datasets)", reshard, e17ReshardColumns),
		tabulate("E17c anchoring outage after gateway kill: no standby stalls forever; a committee takes the lease after expiry", failover, e17FailoverColumns),
	}, verifyE17(cfg, recov, reshard, failover)
}
