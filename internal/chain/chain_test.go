package chain

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

func newCluster(t testing.TB, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes:   n,
		KeySeed: fmt.Sprintf("test-quorum-%d", n),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func userKey(t testing.TB, seed string) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair(seed)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func datasetTx(t testing.TB, kp *cryptoutil.KeyPair, nonce uint64, id string) *ledger.Transaction {
	t.Helper()
	args, err := json.Marshal(contract.RegisterDatasetArgs{
		ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1", Records: 10, SiteID: "site",
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := &ledger.Transaction{
		Type: ledger.TxData, Nonce: nonce, Method: "register_dataset",
		Args: args, Timestamp: time.Now().UnixNano(),
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func submitAndCommit(t testing.TB, c *Cluster, txs ...*ledger.Transaction) *ledger.Block {
	t.Helper()
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	waitMempools(t, c, len(txs))
	blk, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// waitMempools waits until every node has at least want pending txs.
func waitMempools(t testing.TB, c *Cluster, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, n := range c.Nodes() {
			if n.MempoolSize() < want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("transactions did not gossip to all mempools")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClusterCommitQuorum(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "alice")
	tx := datasetTx(t, user, 0, "hospA/emr")
	blk := submitAndCommit(t, c, tx)
	if blk.Header.Height != 1 || len(blk.Txs) != 1 {
		t.Fatalf("block: h=%d txs=%d", blk.Header.Height, len(blk.Txs))
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// Every node executed the contract: dataset visible everywhere.
	for i, n := range c.Nodes() {
		if _, ok := n.State().Dataset("hospA/emr"); !ok {
			t.Fatalf("node %d missing dataset", i)
		}
		r, ok := n.Receipt(tx.ID())
		if !ok || !r.OK() {
			t.Fatalf("node %d missing/failed receipt", i)
		}
	}
}

func TestDuplicatedExecutionMultipliesGas(t *testing.T) {
	// The E2 claim in miniature: total cluster gas = N × useful gas.
	for _, n := range []int{1, 2, 4} {
		c := newCluster(t, n)
		user := userKey(t, "bob")
		submitAndCommit(t, c, datasetTx(t, user, 0, "d"))
		useful := c.UsefulGasUsed()
		total := c.TotalGasUsed()
		if useful == 0 {
			t.Fatal("no gas recorded")
		}
		if total != useful*int64(n) {
			t.Fatalf("n=%d: total gas %d != %d × useful %d", n, total, n, useful)
		}
	}
}

func TestSingleNodeCluster(t *testing.T) {
	c := newCluster(t, 1)
	user := userKey(t, "solo")
	submitAndCommit(t, c, datasetTx(t, user, 0, "d"))
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleTxsOneBlockDeterministicOrder(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "carol")
	var txs []*ledger.Transaction
	for i := 0; i < 5; i++ {
		txs = append(txs, datasetTx(t, user, uint64(i), fmt.Sprintf("d-%d", i)))
	}
	blk := submitAndCommit(t, c, txs...)
	if len(blk.Txs) != 5 {
		t.Fatalf("block has %d txs, want 5", len(blk.Txs))
	}
	for i, tx := range blk.Txs {
		if tx.Nonce != uint64(i) {
			t.Fatalf("tx %d has nonce %d: not in deterministic order", i, tx.Nonce)
		}
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitAllDrainsMempool(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 3, MaxBlockTxs: 2, KeySeed: "drain",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "dave")
	for i := 0; i < 5; i++ {
		if err := c.Submit(datasetTx(t, user, uint64(i), fmt.Sprintf("d-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitMempools(t, c, 5)
	blocks, err := c.CommitAll()
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 3 { // ceil(5/2)
		t.Fatalf("CommitAll produced %d blocks, want 3", blocks)
	}
	for i, n := range c.Nodes() {
		if n.MempoolSize() != 0 {
			t.Fatalf("node %d mempool not drained", i)
		}
	}
}

// CommitAll starts a round once the scheduled proposer holds the work:
// a batch that entered through another node, with nobody waiting for
// its gossip, still commits as one block, proposed on schedule.
func TestCommitAllWaitsForTheProposer(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "erin")
	proposer := c.Proposer()
	entry := 0
	if c.Node(entry) == proposer {
		entry = 1
	}
	const batch = 6
	for i := 0; i < batch; i++ {
		if err := c.SubmitVia(entry, datasetTx(t, user, uint64(i), fmt.Sprintf("w-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	blocks, err := c.CommitAll()
	if err != nil {
		t.Fatal(err)
	}
	head := c.Node(entry).Chain().Head()
	if blocks != 1 || head.Header.Height != 1 || len(head.Txs) != batch {
		t.Fatalf("CommitAll made %d blocks, head %d holds %d txs; want 1 block of %d", blocks, head.Header.Height, len(head.Txs), batch)
	}
	if head.Header.Proposer != proposer.Address() {
		t.Fatal("block proposed out of schedule")
	}
}

func TestInvalidTxRejectedByMempool(t *testing.T) {
	c := newCluster(t, 2)
	tx := &ledger.Transaction{Type: ledger.TxData, Method: "register_dataset", Timestamp: 1}
	// Unsigned.
	if err := c.Submit(tx); err == nil {
		t.Fatal("unsigned tx accepted")
	}
}

func TestDuplicateGossipIdempotent(t *testing.T) {
	c := newCluster(t, 2)
	user := userKey(t, "eve")
	tx := datasetTx(t, user, 0, "d")
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	if size := c.Node(0).MempoolSize(); size != 1 {
		t.Fatalf("mempool has %d txs after duplicate submit, want 1", size)
	}
}

func TestEventsPublishedToSubscribers(t *testing.T) {
	c := newCluster(t, 2)
	events := make(chan EventRecord, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // a tailer: wait for the chain to pass the cursor, read above it
		if c.Node(1).WaitHeight(ctx, 1) == nil {
			for _, rec := range c.Node(1).EventsSince(0) {
				events <- rec
			}
		}
	}()
	user := userKey(t, "frank")
	submitAndCommit(t, c, datasetTx(t, user, 0, "d"))
	select {
	case rec := <-events:
		if rec.Event.Topic != "DatasetRegistered" || rec.Height != 1 {
			t.Fatalf("unexpected event %+v", rec)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event delivered")
	}
}

func TestFailedTxStillCommitsWithFailureReceipt(t *testing.T) {
	c := newCluster(t, 2)
	user := userKey(t, "grace")
	// request_access on unknown resource fails at execution, but the tx
	// is still committed (the denial is on the audit trail).
	args, err := json.Marshal(contract.RequestAccessArgs{Resource: "data:ghost", Action: contract.ActionRead})
	if err != nil {
		t.Fatal(err)
	}
	tx := &ledger.Transaction{Type: ledger.TxData, Method: "request_access", Args: args, Timestamp: 1}
	if err := tx.Sign(user); err != nil {
		t.Fatal(err)
	}
	submitAndCommit(t, c, tx)
	r, ok := c.Node(1).Receipt(tx.ID())
	if !ok {
		t.Fatal("receipt missing")
	}
	if r.OK() {
		t.Fatal("failed tx reported success")
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterWithNetworkLatency(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 3,
		Network: p2p.Config{
			BaseLatency: 2 * time.Millisecond,
			Jitter:      time.Millisecond,
			Seed:        1,
		},
		KeySeed: "latency",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "henry")
	if err := c.Submit(datasetTx(t, user, 0, "d")); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 0}); err == nil {
		t.Fatal("0-node cluster accepted")
	}
}

func TestCommitEmptyBlock(t *testing.T) {
	c := newCluster(t, 3)
	blk, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 0 || blk.Header.Height != 1 {
		t.Fatalf("empty commit: %+v", blk.Header)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	c := newCluster(t, 2)
	c.Node(0).Close()
	c.Node(0).Close() // must not panic
}

func TestThroughputDegradesWithClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement")
	}
	// The paper's E1 claim: a single node outperforms a multi-node
	// chain because consensus broadcasts everything to everyone. With
	// per-message latency, commit time grows with the cluster.
	elapsed := func(n int) time.Duration {
		c, err := NewCluster(ClusterConfig{
			Nodes: n,
			Network: p2p.Config{
				BaseLatency: 3 * time.Millisecond,
				Seed:        7,
			},
			KeySeed: fmt.Sprintf("scale-%d", n),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		user := userKey(t, "scaler")
		for i := 0; i < 3; i++ {
			if err := c.Submit(datasetTx(t, user, uint64(i), fmt.Sprintf("d-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		waitMempools(t, c, 3)
		start := time.Now()
		if _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	single := elapsed(1)
	wide := elapsed(7)
	if wide <= single {
		t.Fatalf("7-node commit (%v) not slower than single-node (%v)", wide, single)
	}
}

func BenchmarkClusterCommit4Nodes(b *testing.B) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, KeySeed: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	user := userKey(b, "bench-user")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := datasetTx(b, user, uint64(i), fmt.Sprintf("d-%d", i))
		if err := c.Submit(tx); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPartitionedNodeCatchesUpAfterHeal(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes:         4,
		KeySeed:       "partition",
		CommitTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "part-user")

	// Cut node 3 off. Quorum is 3-of-4, so the rest keep committing.
	c.Network().SetPartitions(map[p2p.NodeID]int{"node-3": 1})

	for i := 0; i < 2; i++ {
		tx := datasetTx(t, user, uint64(i), fmt.Sprintf("part-d-%d", i))
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		// Gossip reaches only the majority side (each round's tx is
		// pruned by its commit, so wait for exactly this one) — every
		// node of it, since each height has its own proposer.
		deadline := time.Now().Add(3 * time.Second)
		for c.Node(0).MempoolSize() == 0 || c.Node(1).MempoolSize() == 0 || c.Node(2).MempoolSize() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("gossip timeout on majority side")
			}
			time.Sleep(time.Millisecond)
		}
		// Commit succeeds on the quorum side; full replication times
		// out because node-3 is unreachable.
		if blk, err := c.Commit(); err == nil {
			t.Fatal("commit reported full replication during partition")
		} else if blk == nil {
			t.Fatalf("block not committed on quorum side: %v", err)
		}
	}
	if h := c.Node(0).Height(); h != 2 {
		t.Fatalf("quorum side height %d, want 2", h)
	}
	if h := c.Node(3).Height(); h != 0 {
		t.Fatalf("partitioned node advanced to %d", h)
	}

	// Heal and commit one more block: node 3 sees a too-new block,
	// requests sync, and catches up fully.
	c.Network().SetPartitions(nil)
	tx := datasetTx(t, user, 2, "part-d-2")
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.Node(0).MempoolSize() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("post-heal gossip timeout")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatalf("post-heal commit: %v", err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for c.Node(3).Height() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("node-3 stuck at height %d after heal", c.Node(3).Height())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// The healed node executed everything it missed.
	for i := 0; i < 3; i++ {
		if _, ok := c.Node(3).State().Dataset(fmt.Sprintf("part-d-%d", i)); !ok {
			t.Fatalf("healed node missing dataset %d", i)
		}
	}
}

func TestLaggingProposerSyncsBeforeProposing(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes:         4,
		KeySeed:       "lagprop",
		CommitTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "lag-user")

	// Partition the node that will propose height 3 (round robin:
	// height h -> validator h%4, so height 3 -> node-3).
	c.Network().SetPartitions(map[p2p.NodeID]int{"node-3": 1})
	for i := 0; i < 2; i++ {
		if err := c.Submit(datasetTx(t, user, uint64(i), fmt.Sprintf("lag-d-%d", i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		if blk, _ := c.Commit(); blk == nil {
			t.Fatal("commit failed on quorum side")
		}
	}
	c.Network().SetPartitions(nil)

	// Height 3's proposer is the stale node-3: Commit must sync it
	// first, then produce a valid block.
	if err := c.Submit(datasetTx(t, user, 2, "lag-d-2")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.Node(3).MempoolSize() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("post-heal gossip timeout")
		}
		time.Sleep(time.Millisecond)
	}
	blk, err := c.Commit()
	if err != nil {
		t.Fatalf("post-heal commit with lagging proposer: %v", err)
	}
	if blk.Header.Height != 3 {
		t.Fatalf("height %d, want 3", blk.Header.Height)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestByzantineProposerForgedStateRootRejected plays a malicious
// proposer holding one validator's key: it signs a structurally valid
// proposal whose state root is forged. Every honest node executes the
// proposal before signing for it, so the proposal draws no vote, is
// scored against its sender and leaves no vote lock behind; a
// conflicting second proposal is evidenced as equivocation. Even with a
// certificate no honest quorum would issue (every validator key
// colluding), the block changes no node: each executes it, fails to
// reproduce the root and refuses it with its state as it was. The honest
// proposer's block for the same height then commits everywhere.
func TestByzantineProposerForgedStateRootRejected(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "byz-user")

	// The byzantine actor controls a validator key (an insider) — not
	// the scheduled proposer's, whose honest block at this height would
	// otherwise read as the insider equivocating — but speaks through
	// its own network endpoint.
	insider := (c.proposerIndex() + 1) % 4
	insiderKey := c.keys[insider]
	ep := joinEvil(t, c, "byzantine")

	tx := datasetTx(t, user, 0, "byz-d")
	root, err := ledger.ComputeTxRoot([]*ledger.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	head := c.Node(0).Chain().Head()
	forge := func(lie string) *ledger.Block {
		return &ledger.Block{
			Header: ledger.Header{
				Height:    head.Header.Height + 1,
				Parent:    head.Hash(),
				TxRoot:    root,
				StateRoot: cryptoutil.Sum([]byte(lie)),
				Timestamp: head.Header.Timestamp + 1,
				Proposer:  insiderKey.Address(),
			},
			Txs: []*ledger.Transaction{tx},
		}
	}
	propose := func(blk *ledger.Block) {
		t.Helper()
		sp, err := consensus.SignProposal(blk, insiderKey)
		if err != nil {
			t.Fatal(err)
		}
		body, err := sp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.BroadcastMsg(topicProposal, body); err != nil {
			t.Fatal(err)
		}
	}
	forged := forge("i promise this is fine")
	propose(forged)

	// The proposal is authentically signed by a validator and valid in
	// every ledger rule; only executing it shows the root is a lie. The
	// offense is the last thing a node records for it, so once all four
	// have, no vote can still be on its way.
	for i, n := range c.Nodes() {
		waitGuard(t, n, "bad-proposal offense", func(s guard.Stats) bool {
			return offensesOf(s, "byzantine")[guard.OffenseBadProposal] >= 1
		})
		var locked int
		n.do(func(r *replica) { locked = len(r.votedAt[forged.Header.Height]) })
		if locked != 0 || hasPending(n) {
			t.Fatalf("node %d: a refused proposal left a vote lock (%d) or its execution behind", i, locked)
		}
	}
	for drained := false; !drained; {
		select {
		case msg := <-ep.Inbox():
			if msg.Topic == topicVote {
				t.Fatalf("%s voted for a proposal whose root it cannot reproduce", msg.From)
			}
		default:
			drained = true
		}
	}

	// Equivocate: sign and broadcast a second, conflicting proposal at
	// the same height with the stolen key. Honest nodes must detect the
	// double-proposal, refuse to vote for it, and report on-chain
	// evidence against the compromised validator.
	propose(forge("a different lie"))

	certifyWithEveryKey(t, c, forged)
	body, err := forged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	genesisRoot := contract.NewState().Root()
	if err := ep.BroadcastMsg(topicBlock, body); err != nil {
		t.Fatal(err)
	}

	// No honest node accepts it, and none is changed by refusing it.
	time.Sleep(50 * time.Millisecond)
	for i, n := range c.Nodes() {
		if n.Height() != 0 {
			t.Fatalf("node %d accepted the forged block (height %d)", i, n.Height())
		}
		if _, ok := n.Receipt(tx.ID()); ok || n.GasUsed() != 0 || n.ExecStats().Blocks != 0 || n.State().Root() != genesisRoot {
			t.Fatalf("node %d: the refused block left a receipt, %d gas, %d executed blocks or a changed root",
				i, n.GasUsed(), n.ExecStats().Blocks)
		}
	}

	// The cluster still works: the scheduled proposer's block with the
	// same tx gets every honest vote it needs at that height.
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	blk, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if blk.Header.Height != forged.Header.Height || blk.Header.Proposer == insiderKey.Address() {
		t.Fatalf("honest block %d by %s", blk.Header.Height, blk.Header.Proposer.Short())
	}
	checkExecutedOnce(t, c, "after the honest block")
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}

	// The stolen key's double-proposal was detected, scored against the
	// byzantine peer, and reported on chain, where every replica's
	// audit contract now holds the self-verifying evidence record.
	evidenced := false
	for _, n := range c.Nodes() {
		if offensesOf(n.GuardStats(), "byzantine")[guard.OffenseEquivocation] > 0 {
			evidenced = true
		}
	}
	if !evidenced {
		t.Fatal("no honest node scored the double-proposal equivocation")
	}
	if _, err := c.CommitAll(); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		if !n.State().HasEvidence("double-proposal", 1, insiderKey.Address()) {
			t.Fatalf("node %d: double-proposal evidence not recorded on chain", i)
		}
	}
}

// TestChainOverRealTCP runs the full node stack over actual TCP
// sockets (p2p.TCPNetwork) instead of the simulated network: gossip,
// the proposal and vote round, replication, and replicated execution
// all work across real connections.
func TestChainOverRealTCP(t *testing.T) {
	hub, err := p2p.NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	const n = 3
	keys := make([]*cryptoutil.KeyPair, n)
	for i := range keys {
		keys[i] = userKey(t, fmt.Sprintf("tcp-val-%d", i))
	}
	vals, err := consensus.NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		ep, err := p2p.DialTCP(hub.Addr(), p2p.NodeID(fmt.Sprintf("tcp-node-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], _, err = NewNode(NodeConfig{
			ID: ep.ID(), Key: keys[i], ChainID: "tcp-chain", Validators: vals, Endpoint: ep,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	// Gossip a transaction from node 0; wait until every node has it
	// (TCP hello registration races the first sends, so retry).
	user := userKey(t, "tcp-user")
	tx := datasetTx(t, user, 0, "tcp-d")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := nodes[0].Gossip(tx); err != nil {
			t.Fatal(err)
		}
		ready := true
		for _, nd := range nodes {
			if nd.MempoolSize() == 0 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gossip over TCP timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Height 1's scheduled proposer is validator 1.
	blk, err := nodes[1].produceBlock(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Header.Height != 1 {
		t.Fatalf("height %d", blk.Header.Height)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, nd := range nodes {
			if nd.Height() < 1 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("block did not replicate over TCP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, nd := range nodes {
		if _, ok := nd.State().Dataset("tcp-d"); !ok {
			t.Fatalf("node %d missing executed state over TCP", i)
		}
	}
	// All state roots agree across real sockets.
	root := nodes[0].State().Root()
	for i := 1; i < n; i++ {
		if nodes[i].State().Root() != root {
			t.Fatalf("node %d root diverged", i)
		}
	}
}

// A node whose transport closed its inbox under it — the TCP hub died —
// still answers requests and closes: the loop stops taking messages,
// not requests.
func TestNodeClosesAfterTheHubDies(t *testing.T) {
	hub, err := p2p.NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	key := userKey(t, "tcp-lone-val")
	vals, err := consensus.NewValidatorSet([]*cryptoutil.KeyPair{key})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := p2p.DialTCP(hub.Addr(), "tcp-lone")
	if err != nil {
		t.Fatal(err)
	}
	nd, _, err := NewNode(NodeConfig{ID: ep.ID(), Key: key, ChainID: "tcp-lone", Validators: vals, Endpoint: ep})
	if err != nil {
		t.Fatal(err)
	}
	hub.Close()
	for range ep.Inbox() { // drain until the endpoint closes its inbox
	}
	time.Sleep(20 * time.Millisecond) // and the loop has seen it closed
	done := make(chan struct{})
	go func() {
		nd.ExecStats()
		nd.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after the hub closed the node's inbox")
	}
}
