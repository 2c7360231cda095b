// Sharded mode: -shards N boots N member shards plus the coordination
// chain, routes dataset registrations by stable hashing, settles a
// cross-shard HIE transfer through the receipt relay, and — with
// -data-dir — persists every chain under its own subdirectory
// (<data-dir>/shard-i/node-j, <data-dir>/coord/node-j), ending the demo
// by power-cutting a whole shard mid-flight and recovering it from disk
// bit-identical to the live quorum.
package main

import (
	"fmt"
	"time"

	"medchain/internal/contract"
	"medchain/internal/core"
	"medchain/internal/shard"
)

func runSharded(shards, nodes, blocks int, dataDir string, committee int) error {
	sp, err := core.NewShardedPlatform(shard.Config{
		Shards:        shards,
		NodesPerShard: nodes,
		CoordNodes:    nodes,
		KeySeed:       "medchaind-sharded",
		DataDir:       dataDir, // empty = memory-only
		CommitteeSize: committee,
	})
	if err != nil {
		return err
	}
	defer sp.Close()
	sys := sp.System()
	fmt.Printf("sharded deployment up: %d member shards x %d nodes + coordination chain, routing epoch %d\n",
		sys.Shards(), nodes, sys.Epoch())
	if dataDir != "" {
		fmt.Printf("  durable: each chain under %s/<chain-id>/node-i, gateway committees of %d\n", dataDir, committee)
	}

	owner, err := sp.Acquire("owner")
	if err != nil {
		return err
	}
	// A rerun over the same data dir finds the datasets (and the
	// transfer below) where the first run left them.
	var ids []string
	for b := 0; b < blocks; b++ {
		for s := 0; s < shards; s++ {
			id := fmt.Sprintf("hospital/emr-%d-%d", b, s)
			ids = append(ids, id)
			if _, _, ok := sp.Dataset(id); ok {
				continue
			}
			if _, err := sp.RegisterDataset(owner, contract.RegisterDatasetArgs{
				ID: id, Schema: "fhir.r4", Records: 64, SiteID: shard.ShardID(sp.HomeShard(id)),
			}); err != nil {
				return err
			}
		}
	}
	fmt.Printf("registered %d datasets across %d shards (routed by stable hashing)\n", len(ids), shards)

	// One cross-shard HIE transfer, off the dataset's home shard,
	// settled by the 2PC receipt relay.
	ds := ids[0]
	src := sp.HomeShard(ds)
	dest := (src + 1) % shards
	if _, at, _ := sp.Dataset(ds); at != dest {
		if _, err := sp.TransferDataset(owner, ds, dest); err != nil {
			return err
		}
	}
	rounds := sys.Pump(12)
	if n := sys.PendingTransfers(); n != 0 {
		return fmt.Errorf("transfer still pending after %d relay rounds", rounds)
	}
	fmt.Printf("cross-shard transfer %s -> %s settled in %d relay rounds\n",
		shard.ShardID(src), shard.ShardID(dest), rounds)

	for i := 0; i < sys.Shards(); i++ {
		if err := sys.Shard(i).VerifyConsistency(); err != nil {
			return fmt.Errorf("%s inconsistent: %w", shard.ShardID(i), err)
		}
		if n := sys.Shard(i).Best(); n != nil {
			fmt.Printf("  %-8s height=%d\n", shard.ShardID(i), n.Height())
		}
	}
	if n := sys.Coord().Best(); n != nil {
		fmt.Printf("  %-8s height=%d (anchored receipt roots)\n", "coord", n.Height())
	}

	if dataDir != "" {
		return killAndRecoverShard(sp, dest)
	}
	return nil
}

// killAndRecoverShard is the sharded durability demo: power-cut every
// node of one member shard at once, recover the whole shard from its
// per-node stores, and prove the recovered chain bit-identical to its
// pre-crash head.
func killAndRecoverShard(sp *core.ShardedPlatform, victim int) error {
	sys := sp.System()
	n := sys.Shard(victim).Best()
	if n == nil {
		return fmt.Errorf("%s has no running node", shard.ShardID(victim))
	}
	head := n.Chain().Head()
	wantHash, wantHeight := head.Hash(), head.Header.Height
	fmt.Printf("\ndurability demo: power-cutting all of %s and recovering from disk\n", shard.ShardID(victim))
	sp.StopShard(victim)
	start := time.Now()
	if err := sp.RecoverShard(victim); err != nil {
		return fmt.Errorf("shard recovery: %w", err)
	}
	n = sys.Shard(victim).Best()
	got := n.Chain().Head()
	if got.Hash() != wantHash || got.Header.Height != wantHeight {
		return fmt.Errorf("recovered head %s@%d != pre-crash %s@%d",
			got.Hash().Short(), got.Header.Height, wantHash.Short(), wantHeight)
	}
	for _, node := range sys.Shard(victim).Nodes() {
		rec := node.LastRecovery()
		fmt.Printf("  %-8s recovered height=%d (snapshot@%d, %d blocks replayed) in %s\n",
			node.ID(), rec.Height, rec.SnapshotHeight, rec.ReplayedBlocks, rec.Elapsed.Round(time.Microsecond))
	}
	fmt.Printf("  whole-shard recovery in %s, head bit-identical at height %d ✔\n",
		time.Since(start).Round(time.Microsecond), wantHeight)
	return nil
}
