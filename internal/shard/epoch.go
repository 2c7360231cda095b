package shard

import (
	"encoding/json"
	"fmt"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
)

// This file is the elastic half of the sharded deployment: the
// routing-epoch table committed on the coordination chain versions the
// shard set, AddShard grows the deployment, and BeginEpoch /
// MigrationPlan / CommitEpoch drive a reshard. During a transition the
// router answers from both epochs (dual-epoch routing), so a dataset
// is findable whether or not its migration transfer has settled yet;
// the migration itself rides the ordinary freeze-then-tombstone
// cross-shard transfer path, inheriting its exactly-once guarantees.

// Migration is one dataset move a pending epoch requires: the dataset
// currently lives on shard Src and the pending epoch homes it on Dest.
// The prepare must be signed by the dataset owner, so the plan carries
// the owner address and the caller supplies the key.
type Migration struct {
	Dataset string
	Src     int
	Dest    int
	Owner   cryptoutil.Address
}

// routingLists reads the current and pending epoch shard lists from
// the coordination chain. A deployment whose coordination chain is
// unreadable (or predates the routing table) falls back to the full
// local shard list as the current epoch.
func (s *System) routingLists() (current, pending []string) {
	if n := s.coord.Best(); n != nil {
		if rt, ok := n.State().Routing(); ok && rt.Current != nil {
			if rt.Pending != nil {
				pending = rt.Pending.Shards
			}
			return rt.Current.Shards, pending
		}
	}
	return s.shardIDs, nil
}

// Epoch returns the committed routing epoch number (0 before the first
// commit_epoch).
func (s *System) Epoch() uint64 {
	if n := s.coord.Best(); n != nil {
		if rt, ok := n.State().Routing(); ok && rt.Current != nil {
			return rt.Current.Epoch
		}
	}
	return 0
}

// InTransition reports whether an epoch transition is pending.
func (s *System) InTransition() bool {
	_, pending := s.routingLists()
	return pending != nil
}

// homeIn routes key within one epoch's shard list and maps the shard
// ID back to its cluster index (-1 when the list is empty or names a
// shard this System does not run).
func (s *System) homeIn(key string, shards []string) int {
	id, err := RouteIn(key, shards)
	if err != nil {
		return -1
	}
	return s.shardIndex(id)
}

// skipEpochCheck is a mutation seam (export_test.go sets it): during an
// epoch transition the dataset router consults only the pending epoch,
// so datasets not yet migrated 404 and the sharded sim's query-liveness
// invariant must fail. False outside tests.
var skipEpochCheck bool

// ShardOf routes a key (patient ID, dataset ID, site name) to its home
// shard under the committed routing epoch — every router holding the
// same epoch derives the same assignment with no coordination.
func (s *System) ShardOf(key string) int {
	current, pending := s.routingLists()
	if skipEpochCheck && pending != nil {
		if h := s.homeIn(key, pending); h >= 0 {
			return h
		}
	}
	if h := s.homeIn(key, current); h >= 0 {
		return h
	}
	return 0
}

// LookupShards returns every shard a key may legitimately live on:
// its current-epoch home, plus its pending-epoch home during a
// transition (dual-epoch routing — reads keep answering while
// migration is in flight).
func (s *System) LookupShards(key string) []int {
	current, pending := s.routingLists()
	if skipEpochCheck && pending != nil {
		if h := s.homeIn(key, pending); h >= 0 {
			return []int{h}
		}
	}
	var out []int
	if h := s.homeIn(key, current); h >= 0 {
		out = append(out, h)
	}
	if pending != nil {
		if h := s.homeIn(key, pending); h >= 0 && (len(out) == 0 || out[0] != h) {
			out = append(out, h)
		}
	}
	return out
}

// FindDataset locates the live (non-tombstoned) copy of a dataset: its
// current-epoch home first, then its pending-epoch home (dual-epoch
// routing), and from either along the forwarding record a transfer off
// that shard left behind (Dataset.MovedTo). Returns the shard index
// holding the copy.
func (s *System) FindDataset(id string) (int, *contract.Dataset, bool) {
	for _, i := range s.LookupShards(id) {
		for hops := 0; i >= 0 && hops < len(s.shards); hops++ {
			n := s.shards[i].Best()
			if n == nil {
				break
			}
			ds, ok := n.State().Dataset(id)
			if !ok {
				break
			}
			if ds.MovedTo == "" {
				return i, ds, true
			}
			i = s.shardIndex(ds.MovedTo)
		}
	}
	return -1, nil, false
}

// AddShard grows the deployment by one member shard: a new cluster
// (disk-backed when the deployment is), its gateway committee, cross
// init on the new chain, and registration on the coordination chain.
// The new shard serves no keys until an epoch including it commits —
// AddShard is step one of a reshard, BeginEpoch/CommitEpoch are the
// rest.
func (s *System) AddShard() (int, error) {
	i := len(s.shards)
	if err := s.addShardCluster(i); err != nil {
		return -1, err
	}
	init := contract.InitCrossArgs{
		ShardID: s.shardIDs[i], Shards: len(s.shards), Coordinator: s.coordKey.Address(),
	}
	if err := s.submitCross(s.shards[i], s.coordKey, "init", init); err != nil {
		return -1, fmt.Errorf("shard: init %s: %w", s.shardIDs[i], err)
	}
	if _, err := s.shards[i].CommitAll(); err != nil {
		return -1, fmt.Errorf("shard: commit %s init: %w", s.shardIDs[i], err)
	}
	if err := s.registerShard(i); err != nil {
		return -1, err
	}
	if _, err := s.coord.CommitAll(); err != nil {
		return -1, fmt.Errorf("shard: commit %s registration: %w", s.shardIDs[i], err)
	}
	return i, nil
}

// BeginEpoch opens an epoch transition over the given shard list
// (every listed shard must be registered) and returns the new epoch
// number. Routing turns dual-epoch until CommitEpoch.
func (s *System) BeginEpoch(shardIDs []string) (uint64, error) {
	next := s.Epoch() + 1
	args := contract.BeginEpochArgs{Epoch: next, Shards: shardIDs}
	if err := s.submitCross(s.coord, s.coordKey, "begin_epoch", args); err != nil {
		return 0, fmt.Errorf("shard: begin epoch %d: %w", next, err)
	}
	if _, err := s.coord.CommitAll(); err != nil {
		return 0, fmt.Errorf("shard: commit begin_epoch: %w", err)
	}
	if n := s.coord.Best(); n != nil {
		if rt, ok := n.State().Routing(); !ok || rt.Pending == nil || rt.Pending.Epoch != next {
			return 0, fmt.Errorf("shard: begin_epoch %d did not take effect", next)
		}
	}
	return next, nil
}

// CommitEpoch finalizes the pending epoch: the pending shard list
// becomes the sole routing truth. Callers should first drain the
// migration plan — committing early is safe for writes (migration
// transfers still settle exactly-once) but unmigrated keys stop
// routing to their old home.
func (s *System) CommitEpoch() error {
	n := s.coord.Best()
	if n == nil {
		return chain.ErrStopped
	}
	rt, ok := n.State().Routing()
	if !ok || rt.Pending == nil {
		return fmt.Errorf("shard: no pending epoch to commit")
	}
	epoch := rt.Pending.Epoch
	if err := s.submitCross(s.coord, s.coordKey, "commit_epoch", contract.CommitEpochArgs{Epoch: epoch}); err != nil {
		return fmt.Errorf("shard: commit epoch %d: %w", epoch, err)
	}
	if _, err := s.coord.CommitAll(); err != nil {
		return fmt.Errorf("shard: commit commit_epoch: %w", err)
	}
	if rt, ok := s.coord.Best().State().Routing(); !ok || rt.Current == nil || rt.Current.Epoch != epoch {
		return fmt.Errorf("shard: commit_epoch %d did not take effect", epoch)
	}
	return nil
}

// MigrationPlan lists the dataset moves the pending epoch still
// requires: every live dataset whose pending-epoch home differs from
// the shard it currently lives on. Frozen datasets (a migration
// transfer already in flight) and tombstones are skipped, so draining
// the plan is: submit transfers for the plan, pump, re-plan, repeat
// until empty.
func (s *System) MigrationPlan() ([]Migration, error) {
	_, pending := s.routingLists()
	if pending == nil {
		return nil, fmt.Errorf("shard: no pending epoch")
	}
	var plan []Migration
	for i := range s.shards {
		n := s.shards[i].Best()
		if n == nil {
			continue
		}
		st := n.State()
		for _, id := range st.Datasets() {
			ds, ok := st.Dataset(id)
			if !ok || ds.MovedTo != "" || ds.Frozen {
				continue
			}
			dest := s.homeIn(id, pending)
			if dest < 0 || dest == i {
				continue
			}
			plan = append(plan, Migration{Dataset: id, Src: i, Dest: dest, Owner: ds.Owner})
		}
	}
	return plan, nil
}

// DrainMigrations drives the pending epoch's dataset moves to
// completion: plan, submit a freeze-then-tombstone transfer per move
// (signed with the owner key keyFor supplies — a nil key skips the
// move this round), pump the relay, re-plan, until both the plan and
// the relay's pending-transfer set are empty. Bounded by maxRounds;
// running out is an error, the signal a caller's invariant should
// trip on. Returns the number of transfers submitted.
func (s *System) DrainMigrations(keyFor func(Migration) *cryptoutil.KeyPair, maxRounds int) (int, error) {
	moved := 0
	for r := 0; r < maxRounds; r++ {
		plan, err := s.MigrationPlan()
		if err != nil {
			return moved, err
		}
		if len(plan) == 0 && s.PendingTransfers() == 0 {
			return moved, nil
		}
		touched := make(map[int]bool)
		for _, m := range plan {
			kp := keyFor(m)
			if kp == nil {
				continue
			}
			payload, _ := json.Marshal(contract.CrossTransferPayload{Dataset: m.Dataset})
			err := s.SubmitPrepare(m.Src, kp, contract.CrossPrepareArgs{
				// Round-scoped ID: a move aborted by expiry re-plans and
				// resubmits under a fresh ID instead of colliding.
				ID:   fmt.Sprintf("mig-%d-%d-%s", s.Epoch()+1, r, m.Dataset),
				Kind: contract.CrossTransfer, DestShard: s.shardIDs[m.Dest], Payload: payload,
			})
			if err == nil {
				moved++
				touched[m.Src] = true
			}
		}
		_ = s.commitShards(func(i int) bool { return touched[i] })
		s.Pump(4)
	}
	return moved, fmt.Errorf("shard: migrations did not drain in %d rounds", maxRounds)
}
