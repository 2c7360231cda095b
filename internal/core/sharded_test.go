package core

import (
	"testing"

	"medchain/internal/contract"
	"medchain/internal/shard"
	"medchain/internal/store"
)

// TestShardedPlatformFacade drives the facade end-to-end: routed
// registration, a cross-shard HIE transfer settled by 2PC, and a
// consent grant applied on the resource's home shard.
func TestShardedPlatformFacade(t *testing.T) {
	sp, err := NewShardedPlatform(shard.Config{Shards: 2, NodesPerShard: 3, CoordNodes: 3})
	if err != nil {
		t.Fatalf("NewShardedPlatform: %v", err)
	}
	defer sp.Close()

	owner, err := sp.Acquire("hospital-a")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	const dsID = "cohort/alpha"
	home, err := sp.RegisterDataset(owner, contract.RegisterDatasetArgs{
		ID: dsID, Schema: "fhir.r4", Records: 42, SiteID: "site-a",
	})
	if err != nil {
		t.Fatalf("RegisterDataset: %v", err)
	}
	if home != sp.HomeShard(dsID) {
		t.Fatalf("registered on shard %d, routed to %d", home, sp.HomeShard(dsID))
	}
	if _, at, ok := sp.Dataset(dsID); !ok || at != home {
		t.Fatalf("Dataset lookup = shard %d ok=%v, want shard %d", at, ok, home)
	}

	dest := 1 - home
	xfer, err := sp.TransferDataset(owner, dsID, dest)
	if err != nil {
		t.Fatalf("TransferDataset: %v", err)
	}
	if pending := sp.Settle(20); pending != 0 {
		t.Fatalf("%d transfers unsettled; anomalies=%v", pending, sp.System().Anomalies())
	}
	prep, ok := sp.TransferStatus(home, xfer)
	if !ok || prep.Status != contract.CrossCommitted {
		t.Fatalf("transfer status = %+v ok=%v, want committed", prep, ok)
	}
	if _, at, ok := sp.Dataset(dsID); !ok || at != dest {
		t.Fatalf("after transfer, dataset on shard %d ok=%v, want %d", at, ok, dest)
	}

	grantee, err := sp.Acquire("researcher")
	if err != nil {
		t.Fatalf("Acquire grantee: %v", err)
	}
	// The dataset now lives on dest; author the grant from the other
	// shard to force the cross-shard consent path.
	srcShard := home
	if sp.HomeShard(dsID) == srcShard {
		srcShard = dest
	}
	id, err := sp.GrantConsent(owner, srcShard, contract.GrantArgs{
		Resource: "data:" + dsID, Grantee: grantee.Address(),
		Actions: []contract.Action{contract.ActionRead}, Purpose: "study",
	})
	if err != nil {
		t.Fatalf("GrantConsent: %v", err)
	}
	if pending := sp.Settle(20); pending != 0 {
		t.Fatalf("%d grants unsettled; anomalies=%v", pending, sp.System().Anomalies())
	}
	if id != "" {
		// Cross-shard path: check 2PC status on the authoring shard.
		prep, ok := sp.TransferStatus(srcShard, id)
		if !ok || prep.Status != contract.CrossCommitted {
			t.Fatalf("grant status = %+v ok=%v", prep, ok)
		}
	}
}

// TestShardedPlatformRecoverAndReshard drives the durability and
// elasticity facade: a disk-backed deployment survives a whole-shard
// crash, and Reshard grows it by one shard with every reassigned
// dataset migrated to its new-epoch home.
func TestShardedPlatformRecoverAndReshard(t *testing.T) {
	disk := store.NewMemFS()
	sp, err := NewShardedPlatform(shard.Config{
		Shards: 2, NodesPerShard: 3, CoordNodes: 3,
		KeySeed: "sharded-elastic-test", FSFor: func(string, int) store.FS { return disk },
	})
	if err != nil {
		t.Fatalf("NewShardedPlatform: %v", err)
	}
	defer sp.Close()

	owner, err := sp.Acquire("hospital-b")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	var ids []string
	for _, suffix := range []string{"a", "b", "c", "d", "e", "f"} {
		id := "cohort/elastic-" + suffix
		if _, err := sp.RegisterDataset(owner, contract.RegisterDatasetArgs{
			ID: id, Schema: "fhir.r4", Records: 7, SiteID: "site-b",
		}); err != nil {
			t.Fatalf("RegisterDataset %s: %v", id, err)
		}
		ids = append(ids, id)
	}

	// Crash shard 0 whole, recover it from disk, and keep serving.
	sp.StopShard(0)
	if err := sp.RecoverShard(0); err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	for _, id := range ids {
		if _, _, ok := sp.Dataset(id); !ok {
			t.Fatalf("dataset %s lost across shard recovery", id)
		}
	}

	ni, moved, err := sp.Reshard(20)
	if err != nil {
		t.Fatalf("Reshard: %v (new shard %d, moved %d)", err, ni, moved)
	}
	if ni != 2 || sp.System().Epoch() != 2 {
		t.Fatalf("new shard %d, epoch %d; want shard 2 at epoch 2", ni, sp.System().Epoch())
	}
	if moved == 0 {
		t.Fatal("growing 2→3 shards migrated no datasets")
	}
	for _, id := range ids {
		ds, at, ok := sp.Dataset(id)
		if !ok || ds == nil {
			t.Fatalf("dataset %s lost across reshard", id)
		}
		if want := sp.HomeShard(id); at != want {
			t.Fatalf("dataset %s lives on shard %d, epoch-2 home is %d", id, at, want)
		}
	}
}
