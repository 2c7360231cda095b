// Command medchaind runs a local medical-blockchain cluster and
// exercises it: it boots N nodes under quorum consensus, registers a dataset per node, anchors off-chain blob manifests
// under each dataset (the data plane's entire on-chain footprint),
// commits blocks, and prints the chain state, the per-dataset
// manifest-set roots, and per-node gas accounting. It is the smallest
// way to watch the duplicated-computing architecture at work.
//
//	medchaind -nodes 4 -blocks 3
//
// With -data-dir the cluster is disk-backed: every node writes its
// block WAL and state snapshots under <data-dir>/node-i, the demo ends
// by killing one node and recovering it from disk (printing recovered
// height, replay time, and the state-root match against the live
// quorum), and a re-run over the same directory resumes at the durable
// height instead of genesis:
//
//	medchaind -data-dir /tmp/medchain -blocks 3
//	medchaind -data-dir /tmp/medchain -blocks 3   # resumes, replays, continues
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

func main() {
	nodes := flag.Int("nodes", 4, "cluster size")
	blocks := flag.Int("blocks", 3, "blocks to produce")
	txPerBlock := flag.Int("tx", 2, "transactions per block")
	dataDir := flag.String("data-dir", "", "durable storage root: each node keeps its WAL and snapshots under <data-dir>/node-i (empty = memory-only)")
	syncEvery := flag.Int("sync-every", 1, "WAL group-commit batch: blocks per fsync (with -data-dir)")
	snapshotEvery := flag.Int("snapshot-every", 2, "state snapshot cadence in blocks (with -data-dir; 0 = never)")
	shards := flag.Int("shards", 0, "run a sharded deployment of N member shards plus a coordination chain (0 = single chain); with -data-dir each chain persists under <data-dir>/<chain-id>/node-i and the demo kills and recovers a whole shard")
	committee := flag.Int("committee", 3, "gateway failover committee size per shard (with -shards)")
	flag.Parse()

	var err error
	if *shards >= 2 {
		err = runSharded(*shards, *nodes, *blocks, *dataDir, *committee)
	} else {
		err = run(*nodes, *blocks, *txPerBlock, *dataDir, *syncEvery, *snapshotEvery)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "medchaind: %v\n", err)
		os.Exit(1)
	}
}

func run(nodes, blocks, txPerBlock int, dataDir string, syncEvery, snapshotEvery int) error {
	cfg := chain.ClusterConfig{Nodes: nodes, KeySeed: "medchaind"}
	if dataDir != "" {
		cfg.Persist = &chain.PersistConfig{
			Dir: dataDir, SyncEvery: syncEvery, SnapshotEvery: snapshotEvery,
		}
	}
	c, err := chain.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("cluster up: %d nodes, quorum consensus, chain %q\n",
		c.Size(), c.Node(0).Chain().ChainID())
	if dataDir != "" {
		for _, n := range c.Nodes() {
			rec := n.LastRecovery()
			fmt.Printf("  %-8s disk %s: recovered height=%d (snapshot@%d, %d blocks replayed, %d torn bytes truncated) in %s\n",
				n.ID(), n.DataDir(), rec.Height, rec.SnapshotHeight, rec.ReplayedBlocks, rec.TruncatedBytes, rec.Elapsed.Round(time.Microsecond))
		}
	}

	user, err := cryptoutil.DeriveKeyPair("medchaind-user")
	if err != nil {
		return err
	}
	// Resume at the recovered nonce, so re-running over an existing
	// data dir keeps extending the same chain.
	nonce := c.Node(0).Chain().NextNonce(user.Address())
	for b := 0; b < blocks; b++ {
		// Each dataset registration is followed by a manifest anchor:
		// two fabricated record blobs per dataset, batch root verified
		// on-chain. Same-sender nonce order guarantees the dataset
		// exists before its manifests apply.
		for i := 0; i < txPerBlock; i++ {
			dataset := fmt.Sprintf("hospital/emr-%d", nonce)
			args, err := json.Marshal(contract.RegisterDatasetArgs{
				ID:      dataset,
				Digest:  cryptoutil.Sum([]byte(fmt.Sprintf("data-%d-%d", b, i))),
				Schema:  "cdf/v1",
				Records: 100,
				SiteID:  fmt.Sprintf("site-%d", i),
			})
			if err != nil {
				return err
			}
			tx := &ledger.Transaction{
				Type: ledger.TxData, Nonce: nonce, Method: "register_dataset",
				Args: args, Timestamp: time.Now().UnixNano(),
			}
			nonce++
			if err := tx.Sign(user); err != nil {
				return err
			}
			if err := c.Submit(tx); err != nil {
				return err
			}
			entries := []contract.ManifestEntry{
				{Record: "P-000001", Root: cryptoutil.Sum([]byte(dataset + "/P-000001"))},
				{Record: "P-000002", Root: cryptoutil.Sum([]byte(dataset + "/P-000002"))},
			}
			margs, err := json.Marshal(contract.RegisterManifestsArgs{
				Dataset:   dataset,
				BatchRoot: contract.ManifestBatchRoot(entries),
				Entries:   entries,
			})
			if err != nil {
				return err
			}
			mtx := &ledger.Transaction{
				Type: ledger.TxData, Nonce: nonce, Method: "register_manifests",
				Args: margs, Timestamp: time.Now().UnixNano(),
			}
			nonce++
			if err := mtx.Sign(user); err != nil {
				return err
			}
			if err := c.Submit(mtx); err != nil {
				return err
			}
		}
		// Let gossip settle, then commit.
		c.WaitPooled(2*txPerBlock, 5*time.Second)
		start := time.Now()
		blk, err := c.Commit()
		if err != nil {
			return err
		}
		fmt.Printf("block %d: %d txs, proposer %s, hash %s, committed in %s\n",
			blk.Header.Height, len(blk.Txs), blk.Header.Proposer.Short(),
			blk.Hash().Short(), time.Since(start).Round(time.Microsecond))
	}

	if err := c.VerifyConsistency(); err != nil {
		return fmt.Errorf("consistency check failed: %w", err)
	}
	fmt.Println("all nodes agree on head and state root ✔")

	state := c.Node(0).State()
	if sets := state.ManifestSets(); len(sets) > 0 {
		fmt.Printf("\noff-chain manifest anchors (the data plane's on-chain footprint):\n")
		for _, ds := range sets {
			if set, ok := state.ManifestSetOf(ds); ok {
				fmt.Printf("  %-20s %d records in %d batches, set root %s\n",
					set.Dataset, set.Count, set.Batches, set.Root.Short())
			}
		}
	}

	fmt.Printf("\nper-node gas (duplicated execution):\n")
	for _, n := range c.Nodes() {
		fmt.Printf("  %-8s height=%d gas=%d\n", n.ID(), n.Height(), n.GasUsed())
	}
	fmt.Printf("cluster total gas: %d (useful: %d, waste ratio %.1fx)\n",
		c.TotalGasUsed(), c.UsefulGasUsed(),
		float64(c.TotalGasUsed())/float64(max64(c.UsefulGasUsed(), 1)))

	if dataDir != "" {
		if err := killAndRecover(c); err != nil {
			return err
		}
	}
	return nil
}

// killAndRecover is the durability demo: kill the last node the way a
// process dies (no final sync), recover it from its data directory,
// and prove the recovered replica bit-identical to the live quorum.
func killAndRecover(c *chain.Cluster) error {
	victim := c.Size() - 1
	n := c.Node(victim)
	fmt.Printf("\ndurability demo: killing %s (no final sync) and recovering from %s\n", n.ID(), n.DataDir())
	c.StopNode(victim)
	if err := c.RestartNode(victim); err != nil {
		return fmt.Errorf("recovery restart: %w", err)
	}
	rec := n.LastRecovery()
	fmt.Printf("  recovered height=%d (snapshot@%d, %d blocks replayed from WAL, %d torn bytes truncated) in %s\n",
		rec.Height, rec.SnapshotHeight, rec.ReplayedBlocks, rec.TruncatedBytes, rec.Elapsed.Round(time.Microsecond))

	// The recovered height can trail the head by the group-commit
	// window; RestartNode asked the best peer for the gap.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.WaitHeight(ctx, c.Node(0).Height()); err != nil {
		return fmt.Errorf("re-sync of %s stuck at height %d: %w", n.ID(), n.Height(), err)
	}
	live, recovered := c.Node(0).State().Root(), n.State().Root()
	if recovered != live {
		return fmt.Errorf("recovered state root %s != live quorum root %s", recovered.Short(), live.Short())
	}
	fmt.Printf("  state root match with live quorum at height %d: %s ✔\n", n.Height(), recovered.Short())
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
