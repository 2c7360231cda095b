package chain

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/store"
	"medchain/internal/vm"
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

// A contract's HOST registry reads are replayed on recovery exactly as
// the live nodes ran them: with no snapshot, recovery re-executes the
// invocation on the state it rebuilds from the WAL, and that state
// answers registry.* itself. A restarted node and a node built fresh
// over the same data directory both reach the live head and root.
func TestPersistentNodeReplaysRegistryHostCalls(t *testing.T) {
	c, disks := persistentCluster(t, 4, "persist-host", 1, 0)
	kp := userKey(t, "persist-host-user")
	submit := func(tx *ledger.Transaction) {
		t.Helper()
		if err := tx.Sign(kp); err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CommitAll(); err != nil {
			t.Fatal(err)
		}
	}
	submit(persistTx(t, kp, 0, "host-ds"))
	code := vm.MustAssemble(`
		PUSHB "registry.datasets"
		PUSHB ""
		HOST
		PUSHB "reg"
		SWAP
		SSTORE
		HALT
	`)
	deploy, err := json.Marshal(contract.DeployArgs{Name: "lister", Code: base64.StdEncoding.EncodeToString(code)})
	if err != nil {
		t.Fatal(err)
	}
	submit(&ledger.Transaction{Type: ledger.TxDeploy, Nonce: 1, Method: "deploy", Args: deploy, Timestamp: 1})
	addr := contract.DeployedAddress(kp.Address(), 1)
	invoke := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 2, Contract: addr, Method: "list", Timestamp: 1}
	submit(invoke)

	live := c.Node(0)
	if r, ok := live.Receipt(invoke.ID()); !ok || !r.OK() {
		t.Fatalf("invoke receipt %+v (found %v)", r, ok)
	}
	if v, _ := live.State().StorageValue(addr, []byte("reg")); string(v) != `["host-ds"]` {
		t.Fatalf("stored registry %q", v)
	}
	head, root := live.Chain().Head().Hash(), live.State().Root()

	victim := 1
	c.StopNode(victim)
	if err := c.RestartNode(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	n := c.Node(victim)
	if n.Chain().Head().Hash() != head || n.State().Root() != root {
		t.Fatalf("restarted node at head %s root %s, live %s %s", n.Chain().Head().Hash().Short(), n.State().Root().Short(), head.Short(), root.Short())
	}

	c.StopNode(victim)
	fresh, rec, err := NewNode(NodeConfig{
		ID: "fresh", Key: c.keys[victim], ChainID: "medchain", Validators: c.Validators(),
		Network: p2p.NewNetwork(p2p.Config{}),
		Store:   &store.Options{FS: disks[victim], Dir: n.DataDir()},
	})
	if err != nil {
		t.Fatalf("fresh node over the restarted node's data: %v", err)
	}
	defer fresh.Close()
	if rec.Chain.Head().Hash() != head || rec.State.Root() != root {
		t.Fatalf("fresh node recovered head %s root %s, live %s %s", rec.Chain.Head().Hash().Short(), rec.State.Root().Short(), head.Short(), root.Short())
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

// receiptWalk is the receipt log read the long way: every committed
// block's receipts, in chain order.
func receiptWalk(n *Node) []*contract.Receipt {
	var out []*contract.Receipt
	n.Committed(0, func(_ *ledger.Block, receipts []*contract.Receipt) {
		out = append(out, receipts...)
	})
	return out
}

// checkReceiptLog fails t unless node i's receipt log holds exactly the
// receipts the chain walk finds, pointer for pointer. The node must be
// idle.
func checkReceiptLog(t *testing.T, c *Cluster, i int, when string) {
	t.Helper()
	n := c.Node(i)
	walk := receiptWalk(n)
	var log []*contract.Receipt
	n.do(func(r *replica) { log = r.receiptLog })
	if len(walk) == 0 || !slices.Equal(log, walk) {
		t.Fatalf("%s: node %d receipt log holds %d receipts, the chain walk %d, or they differ", when, i, len(log), len(walk))
	}
}

// The receipt log a node snapshots equals the chain walk it replaced:
// after commits, after a restart from disk, and after the sync catch-up
// that follows.
func TestReceiptLogFollowsTheChain(t *testing.T) {
	c, disks := persistentCluster(t, 4, "receipt-log", 1, 3)
	kp, err := cryptoutil.DeriveKeyPair("persist-user")
	if err != nil {
		t.Fatal(err)
	}
	commitRounds(t, c, kp, 0, 5, "pre")
	waitConverged(t, c)
	for i := range c.Nodes() {
		checkReceiptLog(t, c, i, "after commits")
	}

	victim := 2
	c.StopNode(victim)
	disks[victim].Crash()
	commitRounds(t, c, kp, 5, 4, "down")
	if err := c.Node(victim).Restart(); err != nil { // no re-sync yet
		t.Fatalf("restart: %v", err)
	}
	if rec := c.Node(victim).LastRecovery(); rec.SnapshotHeight == 0 {
		t.Fatal("the restart recovered without a snapshot")
	}
	checkReceiptLog(t, c, victim, "after a restart from disk")
	c.SyncLagging()
	waitConverged(t, c)
	checkReceiptLog(t, c, victim, "after the sync catch-up")
}

// waitConverged waits until every node holds the best node's head.
func waitConverged(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.VerifyConsistency() != nil || !allAt(c, c.Best().Height()) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge: %v", c.VerifyConsistency())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func allAt(c *Cluster, h uint64) bool {
	for _, n := range c.Nodes() {
		if n.Height() != h {
			return false
		}
	}
	return true
}

// A snapshot forced on a node while it commits is of one height: chain,
// state and receipt log together. A snapshot taken beside the commits
// could record height h with h+1's state, and the node's next Open
// refused the directory ("snapshot state root … != committed header
// root"); Snapshot now runs on the node's loop, between two commits.
func TestForcedSnapshotDuringCommitsRecovers(t *testing.T) {
	disks := make([]*store.MemFS, 4)
	for i := range disks {
		disks[i] = store.NewMemFS()
	}
	mk := func() (*Cluster, error) {
		return NewCluster(ClusterConfig{
			Nodes: len(disks), KeySeed: "forced-snapshot",
			CommitTimeout: 5 * time.Second,
			Persist: &PersistConfig{
				Dir:   "data",
				FSFor: func(i int) store.FS { return disks[i] },
			},
		})
	}
	c, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	kp, err := cryptoutil.DeriveKeyPair("persist-user")
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1-3 snapshot in a loop; each snapshot must record the state
	// root its height committed.
	stop, done := make(chan struct{}), make(chan struct{})
	snapshots := 0
	go func(nodes []*Node) {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, node := range nodes {
				if err := node.Snapshot(); err != nil {
					t.Errorf("snapshot %s: %v", node.ID(), err)
				}
				h, body, err := store.LoadLatestSnapshot(disks[i+1], node.DataDir())
				var snap struct {
					StateRoot cryptoutil.Digest `json:"state_root"`
				}
				if err != nil || body == nil || json.Unmarshal(body, &snap) != nil {
					continue
				}
				if blk, err := node.Chain().BlockAt(h); err == nil && blk.Header.StateRoot != snap.StateRoot {
					t.Errorf("%s wrote a torn snapshot at height %d", node.ID(), h)
				}
				snapshots++
			}
		}
	}(c.Nodes()[1:])
	halt := sync.OnceFunc(func() { close(stop); <-done })
	t.Cleanup(halt)
	commitRounds(t, c, kp, 0, 400, "race")
	halt()
	if snapshots == 0 {
		t.Fatal("no snapshot was forced")
	}
	waitConverged(t, c)
	height, root := c.Node(0).Height(), c.Node(0).State().Root()
	c.Close()

	c, err = mk()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(c.Close)
	for i, n := range c.Nodes() {
		rec := n.LastRecovery()
		if rec.Height != height || n.State().Root() != root {
			t.Fatalf("node %d reopened at %d with root %s, want %d and %s", i, rec.Height, n.State().Root().Short(), height, root.Short())
		}
		if i > 0 && rec.SnapshotHeight == 0 {
			t.Fatalf("node %d reopened without a snapshot", i)
		}
	}
}

// TestRestartRacesNoReader: one goroutine reads a disk-backed node's
// Chain, State, PendingNonce, Receipt and Height while the node goes
// through Stop and Restart five times, and the race detector watches.
// Each read loads one published view; a recovery publishes a new view
// instead of swapping the fields those readers use.
func TestRestartRacesNoReader(t *testing.T) {
	c, _ := persistentCluster(t, 4, "restart-race", 1, 2)
	kp, err := cryptoutil.DeriveKeyPair("persist-user")
	if err != nil {
		t.Fatal(err)
	}
	commitRounds(t, c, kp, 0, 3, "pre")
	const victim = 1
	n := c.Node(victim)
	committed := persistTx(t, kp, 0, "pre-0").ID()
	if _, ok := n.Receipt(committed); !ok {
		t.Fatal("test setup: no receipt for the first transaction")
	}
	stop, done := make(chan struct{}), make(chan struct{})
	reads := 0
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = n.Chain().Height()
			_ = n.State().Root()
			_ = n.PendingNonce(kp.Address())
			_, _ = n.Receipt(committed)
			_ = n.Height()
			reads++
		}
	}()
	for i := 0; i < 5; i++ {
		c.StopNode(victim)
		if err := c.RestartNode(victim); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
	}
	close(stop)
	<-done
	if reads == 0 {
		t.Fatal("the reader never ran")
	}
	waitConverged(t, c)
	if _, ok := n.Receipt(committed); !ok {
		t.Fatal("the restarted node lost a committed receipt")
	}
}
