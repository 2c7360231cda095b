package chain

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/store"
)

// NewNode refuses a config without exactly one transport before it
// opens the store, so a refused config leaves the disk untouched and
// nothing open; a disk-backed config recovers, reports it and joins.
func TestNewNodeNeedsExactlyOneTransport(t *testing.T) {
	key := userKey(t, "new-node")
	vals, err := consensus.NewValidatorSet([]*cryptoutil.KeyPair{key})
	if err != nil {
		t.Fatal(err)
	}
	net := p2p.NewNetwork(p2p.Config{})
	defer net.Close()
	bare, err := net.Join("bare")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		network  *p2p.Network
		endpoint p2p.Endpoint
		ok       bool
	}{
		{"no transport", nil, nil, false},
		{"both transports", net, bare, false},
		{"network, disk-backed", net, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := store.NewMemFS()
			n, rec, err := NewNode(NodeConfig{
				ID: "node-0", Key: key, ChainID: "medchain", Validators: vals,
				Network: tc.network, Endpoint: tc.endpoint,
				Store: &store.Options{FS: disk, Dir: "data"},
			})
			written, _ := disk.ReadDir("data")
			if !tc.ok {
				if err == nil {
					n.Close()
					t.Fatal("config accepted")
				}
				if len(written) != 0 {
					t.Fatalf("refused config wrote %v", written)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if rec == nil || rec.Chain.Height() != 0 {
				t.Fatalf("recovery report %+v, want a fresh chain's", rec)
			}
			if !n.Running() || !n.Persistent() || n.DataDir() != "data" || len(written) == 0 {
				t.Fatalf("running %v, persistent %v, dir %q, wrote %v", n.Running(), n.Persistent(), n.DataDir(), written)
			}
		})
	}
}

// persistentCluster builds a quorum cluster whose nodes each live on
// their own MemFS (so each node's disk can crash independently).
func persistentCluster(t testing.TB, nodes int, seed string, syncEvery, snapEvery int) (*Cluster, []*store.MemFS) {
	t.Helper()
	disks := make([]*store.MemFS, nodes)
	for i := range disks {
		disks[i] = store.NewMemFS()
	}
	c, err := NewCluster(ClusterConfig{
		Nodes: nodes, KeySeed: seed,
		CommitTimeout: 5 * time.Second,
		Persist: &PersistConfig{
			Dir:           "data",
			FSFor:         func(i int) store.FS { return disks[i] },
			SyncEvery:     syncEvery,
			SnapshotEvery: snapEvery,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, disks
}

func persistTx(t testing.TB, kp *cryptoutil.KeyPair, nonce uint64, id string) *ledger.Transaction {
	t.Helper()
	args, err := json.Marshal(contract.RegisterDatasetArgs{
		ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1", Records: 5, SiteID: "site",
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := &ledger.Transaction{Type: ledger.TxData, Nonce: nonce, Method: "register_dataset", Args: args, Timestamp: 1}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

// commitRounds submits one tx per round and drains the mempools fully
// each time. Submit enters through node 0 and gossip is asynchronous, so
// a bare Commit could find the proposer's pool empty; CommitAll waits
// until the proposer holds the tx and re-gossips if it never arrives.
func commitRounds(t testing.TB, c *Cluster, kp *cryptoutil.KeyPair, fromNonce uint64, rounds int, label string) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		nonce := fromNonce + uint64(r)
		if err := c.Submit(persistTx(t, kp, nonce, fmt.Sprintf("%s-%d", label, nonce))); err != nil {
			t.Fatalf("submit %s/%d: %v", label, nonce, err)
		}
		if _, err := c.CommitAll(); err != nil {
			t.Fatalf("commit %s/%d: %v", label, nonce, err)
		}
	}
}

// A disk-backed node crashed with a power loss must recover from only
// its fsynced data, then re-sync the blocks it missed — ending
// bit-identical to the live quorum.
func TestPersistentNodeCrashRecoverResync(t *testing.T) {
	c, disks := persistentCluster(t, 4, "persist-crash", 1, 3)
	kp, err := cryptoutil.DeriveKeyPair("persist-user")
	if err != nil {
		t.Fatal(err)
	}
	commitRounds(t, c, kp, 0, 5, "pre")

	victim := 1
	heightAtCrash := c.Node(victim).Height()
	c.StopNode(victim)
	disks[victim].Crash() // power loss: unsynced bytes are gone

	commitRounds(t, c, kp, 5, 3, "down") // quorum advances without the victim

	if err := c.RestartNode(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	rec := c.Node(victim).LastRecovery()
	if rec == nil {
		t.Fatal("disk-backed node restarted without a recovery report")
	}
	// SyncEvery=1 means every committed block was fsynced before Commit
	// returned... on the fsync path. The recovered height may still
	// trail by the block that was mid-write at the crash, never by more.
	if rec.Height > heightAtCrash {
		t.Fatalf("recovered height %d exceeds pre-crash height %d", rec.Height, heightAtCrash)
	}
	if heightAtCrash-rec.Height > 1 {
		t.Fatalf("syncEvery=1 lost %d blocks (recovered %d, had %d)", heightAtCrash-rec.Height, rec.Height, heightAtCrash)
	}

	// The restarted node must catch up and converge with the quorum.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Node(victim).Height() == c.Node(0).Height() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatalf("post-recovery consistency: %v", err)
	}
	if got, want := c.Node(victim).GasUsed(), c.Node(0).GasUsed(); got != want {
		t.Fatalf("recovered node gas %d != live node gas %d", got, want)
	}
	// Receipts must match the live quorum's, transaction by transaction.
	c.Node(0).Chain().Walk(func(blk *ledger.Block) bool {
		for _, tx := range blk.Txs {
			live, ok1 := c.Node(0).Receipt(tx.ID())
			recd, ok2 := c.Node(victim).Receipt(tx.ID())
			if !ok1 || !ok2 {
				t.Fatalf("receipt for %s missing (live %v, recovered %v)", tx.ID().Short(), ok1, ok2)
			}
			a, _ := json.Marshal(live)
			b, _ := json.Marshal(recd)
			if string(a) != string(b) {
				t.Fatalf("receipt for %s differs:\nlive %s\nrecovered %s", tx.ID().Short(), a, b)
			}
		}
		return true
	})
	// And the node keeps working: more rounds commit cleanly.
	commitRounds(t, c, kp, 8, 2, "post")
	if err := c.VerifyConsistency(); err != nil {
		t.Fatalf("final consistency: %v", err)
	}
}

// A whole-cluster shutdown and reopen onto the same disks must resume
// at the committed height — the process-restart path, no crash.
func TestPersistentClusterReopenResumes(t *testing.T) {
	disks := []*store.MemFS{store.NewMemFS(), store.NewMemFS(), store.NewMemFS()}
	mk := func() *Cluster {
		c, err := NewCluster(ClusterConfig{
			Nodes: 3, KeySeed: "persist-reopen",
			CommitTimeout: 5 * time.Second,
			Persist: &PersistConfig{
				Dir:   "data",
				FSFor: func(i int) store.FS { return disks[i] },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	kp, err := cryptoutil.DeriveKeyPair("persist-user")
	if err != nil {
		t.Fatal(err)
	}

	c1 := mk()
	commitRounds(t, c1, kp, 0, 4, "gen1")
	height := c1.Node(0).Height()
	root := c1.Node(0).State().Root()
	c1.Close() // graceful: syncs before closing

	c2 := mk()
	defer c2.Close()
	for i := 0; i < c2.Size(); i++ {
		rec := c2.Node(i).LastRecovery()
		if rec == nil {
			t.Fatalf("node %d has no recovery report", i)
		}
		if rec.Height != height {
			t.Fatalf("node %d recovered height %d, want %d", i, rec.Height, height)
		}
	}
	if got := c2.Node(0).State().Root(); got != root {
		t.Fatalf("reopened root %s != pre-shutdown root %s", got, root)
	}
	if err := c2.VerifyConsistency(); err != nil {
		t.Fatalf("reopened consistency: %v", err)
	}
	// Nonces recovered through the ledger: the next nonce continues.
	commitRounds(t, c2, kp, 4, 2, "gen2")
	if got := c2.Node(0).Chain().NextNonce(kp.Address()); got != 6 {
		t.Fatalf("post-reopen next nonce %d, want 6", got)
	}
	if err := c2.VerifyConsistency(); err != nil {
		t.Fatalf("post-reopen consistency: %v", err)
	}
}

// Persistence is best-effort relative to consensus: a node whose disk
// dies mid-run keeps committing in memory and only the persist-error
// counter notices.
func TestDiskFaultDoesNotHaltConsensus(t *testing.T) {
	disks := make([]store.FS, 3)
	var victim *store.FaultFS
	for i := range disks {
		mem := store.NewMemFS()
		if i == 2 {
			victim = store.NewFaultFS(mem, store.FaultConfig{})
			disks[i] = victim
		} else {
			disks[i] = mem
		}
	}
	c, err := NewCluster(ClusterConfig{
		Nodes: 3, KeySeed: "persist-fault",
		CommitTimeout: 5 * time.Second,
		Persist: &PersistConfig{
			Dir:   "data",
			FSFor: func(i int) store.FS { return disks[i] },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kp, err := cryptoutil.DeriveKeyPair("persist-user")
	if err != nil {
		t.Fatal(err)
	}
	commitRounds(t, c, kp, 0, 2, "pre")
	victim.ArmCrashAfter(1) // next WAL write kills node 2's disk
	commitRounds(t, c, kp, 2, 3, "post")
	if err := c.VerifyConsistency(); err != nil {
		t.Fatalf("consistency with a dead disk: %v", err)
	}
	if got := c.Node(2).PersistErrors(); got == 0 {
		t.Fatal("dead disk produced no persist errors")
	}
	if got := c.Node(0).PersistErrors(); got != 0 {
		t.Fatalf("healthy disk counted %d persist errors", got)
	}
}
