package shard

import (
	"strings"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
)

// liveCopies counts the shards holding a live (non-tombstoned) copy of
// a dataset, scanning every shard — the exactly-once placement check.
func liveCopies(s *System, id string) (count, home int) {
	home = -1
	for i := 0; i < s.Shards(); i++ {
		n := s.Shard(i).Best()
		if n == nil {
			continue
		}
		if ds, ok := n.State().Dataset(id); ok && ds.MovedTo == "" {
			count++
			home = i
		}
	}
	return count, home
}

// TestAddShardReshardMigration grows a 2-shard deployment to 3 and
// drives a full epoch transition: every reassigned dataset migrates
// over the ordinary transfer path, dual-epoch routing keeps every
// dataset findable throughout, and after commit_epoch each dataset
// lives exactly once, at its new-epoch home.
func TestAddShardReshardMigration(t *testing.T) {
	s := newTestSystem(t, 2)
	owners := make(map[string]*cryptoutil.KeyPair)
	var ids []string
	for _, suffix := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		id := "ds-mig-" + suffix
		kp := mustKey(t, "owner/"+id)
		// Routed placement: the dataset starts at its epoch-1 home.
		registerDataset(t, s, s.ShardOf(id), kp, id)
		owners[id], ids = kp, append(ids, id)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("bootstrap epoch = %d, want 1", got)
	}

	ni, err := s.AddShard()
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if ni != 2 || s.Shards() != 3 {
		t.Fatalf("AddShard → index %d of %d shards, want 2 of 3", ni, s.Shards())
	}
	// The new shard serves no keys until the epoch including it commits.
	if s.InTransition() {
		t.Fatal("AddShard alone must not open a transition")
	}

	epoch, err := s.BeginEpoch(s.ShardIDs())
	if err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	if epoch != 2 || !s.InTransition() {
		t.Fatalf("epoch = %d, inTransition = %v", epoch, s.InTransition())
	}
	plan, err := s.MigrationPlan()
	if err != nil {
		t.Fatalf("MigrationPlan: %v", err)
	}
	if len(plan) == 0 {
		t.Fatal("growing 2→3 shards reassigned no datasets — nothing exercises migration")
	}
	// Dual-epoch routing: every dataset stays findable mid-transition.
	for _, id := range ids {
		if _, _, ok := s.FindDataset(id); !ok {
			t.Fatalf("dataset %s unreachable during transition", id)
		}
	}

	moved, err := s.DrainMigrations(func(m Migration) *cryptoutil.KeyPair {
		return owners[m.Dataset]
	}, 20)
	if err != nil {
		t.Fatalf("DrainMigrations: %v (moved %d)", err, moved)
	}
	if moved != len(plan) {
		t.Fatalf("moved %d datasets, plan had %d", moved, len(plan))
	}
	if err := s.CommitEpoch(); err != nil {
		t.Fatalf("CommitEpoch: %v", err)
	}
	if s.Epoch() != 2 || s.InTransition() {
		t.Fatalf("post-commit epoch = %d, inTransition = %v", s.Epoch(), s.InTransition())
	}

	// Zero lost, zero duplicated, all at the new-epoch home.
	for _, id := range ids {
		count, home := liveCopies(s, id)
		if count != 1 {
			t.Fatalf("dataset %s has %d live copies, want exactly 1", id, count)
		}
		if want := s.ShardOf(id); home != want {
			t.Fatalf("dataset %s lives on shard %d, epoch-2 home is %d", id, home, want)
		}
		if gi, _, ok := s.FindDataset(id); !ok || gi != home {
			t.Fatalf("FindDataset(%s) = %d, %v; want %d", id, gi, ok, home)
		}
	}
	noAnomalies(t, s)
	if err := s.VerifyConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
}

// TestSkipEpochCheckKnobBreaksLookup proves the mutation seam does
// what the sharded sim relies on: with the router consulting only the
// pending epoch mid-transition, an unmigrated dataset 404s.
func TestSkipEpochCheckKnobBreaksLookup(t *testing.T) {
	s := newTestSystem(t, 2)
	owners := make(map[string]*cryptoutil.KeyPair)
	var ids []string
	for _, suffix := range []string{"a", "b", "c", "d", "e", "f"} {
		id := "ds-knob-" + suffix
		kp := mustKey(t, "owner/"+id)
		registerDataset(t, s, s.ShardOf(id), kp, id)
		owners[id], ids = kp, append(ids, id)
	}
	if _, err := s.AddShard(); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if _, err := s.BeginEpoch(s.ShardIDs()); err != nil {
		t.Fatalf("BeginEpoch: %v", err)
	}
	plan, err := s.MigrationPlan()
	if err != nil || len(plan) == 0 {
		t.Fatalf("plan = %v, err = %v; need at least one reassignment", plan, err)
	}

	restore := SetSkipEpochCheck()
	defer restore()
	broken := 0
	for _, m := range plan {
		if _, _, ok := s.FindDataset(m.Dataset); !ok {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("skip-epoch-check seam caused no lookup failures — the sim invariant would never fire")
	}
	restore()
	for _, id := range ids {
		if _, _, ok := s.FindDataset(id); !ok {
			t.Fatalf("dataset %s unreachable with dual-epoch routing restored", id)
		}
	}
}

// TestStaleEpochTransitionsRefused replays stale and out-of-order
// transition transactions signed by the real coordinator: the contract
// must refuse each with ErrCrossEpoch.
func TestStaleEpochTransitionsRefused(t *testing.T) {
	s := newTestSystem(t, 2)
	probe := func(method string, args any, want error) {
		t.Helper()
		tx, err := s.CoordinatorSubmit(method, args)
		if err != nil {
			t.Fatalf("CoordinatorSubmit(%s): %v", method, err)
		}
		if _, err := s.Coord().CommitAll(); err != nil {
			t.Fatalf("commit %s probe: %v", method, err)
		}
		r, ok := s.Coord().Best().Receipt(tx.ID())
		if !ok {
			t.Fatalf("%s probe receipt missing", method)
		}
		if r.OK() || !strings.Contains(r.Err, want.Error()) {
			t.Fatalf("%s probe receipt = ok=%v err=%q, want %v", method, r.OK(), r.Err, want)
		}
	}
	// Bootstrap committed epoch 1: replaying it, skipping ahead, and
	// committing with nothing pending are all refused.
	probe("begin_epoch", contract.BeginEpochArgs{Epoch: 1, Shards: s.ShardIDs()}, contract.ErrCrossEpoch)
	probe("begin_epoch", contract.BeginEpochArgs{Epoch: 3, Shards: s.ShardIDs()}, contract.ErrCrossEpoch)
	probe("commit_epoch", contract.CommitEpochArgs{Epoch: 2}, contract.ErrCrossEpoch)
}
