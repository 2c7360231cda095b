package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/store"
)

// Every node verifies every transaction itself, and does so exactly
// once: gossip ingress, the proposal, the committed block and the
// append all reach the same chain-level check.
func TestEachNodeVerifiesEachTxOnce(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "verify-once")
	const perBlock, blocks = 5, 3
	nonce := uint64(0)
	for b := 0; b < blocks; b++ {
		var txs []*ledger.Transaction
		for i := 0; i < perBlock; i++ {
			txs = append(txs, datasetTx(t, user, nonce, fmt.Sprintf("once-%d", nonce)))
			nonce++
		}
		if blk := submitAndCommit(t, c, txs...); len(blk.Txs) != perBlock {
			t.Fatalf("block %d holds %d txs, want %d", b, len(blk.Txs), perBlock)
		}
	}
	const n = perBlock * blocks
	total := uint64(0)
	for i := range c.Nodes() {
		v, h := c.Node(i).Chain().VerifyCounts()
		if v != n {
			t.Errorf("node %d ran %d verifications for %d transactions", i, v, n)
		}
		// One validation in acceptBlock (Append no longer repeats it),
		// plus the proposal on followers that saw it in time: between
		// one and two lookups per transaction.
		if h < n || h > 2*n {
			t.Errorf("node %d: %d set hits, want %d..%d", i, h, n, 2*n)
		}
		total += v
	}
	if total != 4*n {
		t.Fatalf("cluster ran %d verifications, want 4·%d", total, n)
	}

	// A transaction the followers never saw gossiped — it reaches them
	// first inside the proposal — is still verified by each of them.
	p := c.proposerIndex()
	if err := c.Node(p).SubmitLocal(datasetTx(t, user, nonce, "ungossiped")); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Commit()
	if err != nil || len(blk.Txs) != 1 {
		t.Fatalf("commit of the ungossiped tx: %v, block %+v", err, blk)
	}
	for i := range c.Nodes() {
		if v, _ := c.Node(i).Chain().VerifyCounts(); v != n+1 {
			t.Errorf("node %d ran %d verifications after the ungossiped tx, want %d", i, v, n+1)
		}
	}
}

// A crashed node's marks die with it: recovery builds a new chain that
// verifies every replayed transaction itself — once, in its pre-pass,
// whose marks are the only ones Append then finds — and a transaction
// the old incarnation had already verified is verified again.
func TestRestartedNodeStartsWithColdVerifiedSet(t *testing.T) {
	c, _ := persistentCluster(t, 4, "verify-restart", 1, 3)
	user := userKey(t, "verify-restart-user")
	const committed = 5
	commitRounds(t, c, user, 0, committed, "pre")
	pending := persistTx(t, user, committed, "pending")
	if err := c.Submit(pending); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)

	const victim = 2
	old := c.Node(victim).Chain()
	if v, _ := old.VerifyCounts(); v != committed+1 {
		t.Fatalf("before the crash: %d verifications, want %d", v, committed+1)
	}
	c.StopNode(victim)
	if err := c.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	fresh := c.Node(victim).Chain()
	if fresh == old {
		t.Fatal("restart kept the old chain instance")
	}
	if got, want := fresh.Height(), old.Height(); got != want {
		t.Fatalf("recovered height %d, want %d", got, want)
	}
	if v, h := fresh.VerifyCounts(); v != committed || h != committed {
		t.Fatalf("recovery: verifies=%d hits=%d, want each of %d replayed txs verified once and looked up once", v, h, committed)
	}
	if err := c.Node(victim).SubmitLocal(pending); err != nil {
		t.Fatal(err)
	}
	if v, h := fresh.VerifyCounts(); v != committed+1 || h != committed {
		t.Fatalf("tx verified before the crash: verifies=%d hits=%d after resubmission, want a fresh verification", v, h)
	}
}

// With the genuine transaction in every node's set, the same signed
// fields under any other signature are refused by mempool admission,
// scored against the relay that gossips them, and earn a proposal that
// carries them no vote.
func TestVerifiedSetDoesNotLaunderForgedSignature(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "launder-user")
	genuine := datasetTx(t, user, 0, "launder-d")
	if err := c.Submit(genuine); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)

	flipped := *genuine
	flipped.Sig[40] ^= 0x01
	transplanted := *genuine
	transplanted.Sig = datasetTx(t, user, 1, "launder-other").Sig
	forged := []*ledger.Transaction{&flipped, &transplanted}

	evil := joinEvil(t, c, "evil")
	for i, f := range forged {
		if f.ID() != genuine.ID() {
			t.Fatal("test setup: forgery must keep the genuine ID")
		}
		for j, n := range c.Nodes() {
			err := n.SubmitLocal(f)
			if !errors.Is(err, ErrMempool) || !errors.Is(err, ledger.ErrBadSignature) {
				t.Fatalf("forgery %d at node %d: SubmitLocal = %v, want ErrMempool wrapping ErrBadSignature", i, j, err)
			}
		}
		body, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := evil.BroadcastMsg(topicTx, body); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.Nodes() {
		waitGuard(t, n, "forged gossip scored", func(s guard.Stats) bool {
			return offensesOf(s, "evil")[guard.OffenseMalformed] == len(forged)
		})
		if n.MempoolSize() != 1 {
			t.Fatalf("mempool holds %d txs, want only the genuine one", n.MempoolSize())
		}
	}
	// Load rejections are not the relay's offense: re-gossiping the
	// genuine transaction (a duplicate) must not add to the score.
	body, err := genuine.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := evil.BroadcastMsg(topicTx, body); err != nil {
		t.Fatal(err)
	}

	// A Byzantine validator proposes the forged bytes (re-signing
	// nothing); an honest one then proposes the genuine transaction.
	// Each node handles the evil endpoint's messages in order, so once
	// the second proposal has its votes the first has been judged.
	propose := func(validator int, tx *ledger.Transaction) *ledger.Block {
		t.Helper()
		root, err := ledger.ComputeTxRoot([]*ledger.Transaction{tx})
		if err != nil {
			t.Fatal(err)
		}
		head := c.Node(0).Chain().Head()
		blk := &ledger.Block{
			Header: ledger.Header{
				Height: head.Header.Height + 1, Parent: head.Hash(), TxRoot: root,
				Timestamp: head.Header.Timestamp + 1, Proposer: c.keys[validator].Address(),
			},
			Txs: []*ledger.Transaction{tx},
		}
		// Voters execute a proposal: it needs the root its execution leaves.
		post := c.Node(0).State().Clone()
		if _, err := post.Apply(tx, blk.Header.Height, blk.Header.Timestamp); err != nil {
			t.Fatal(err)
		}
		blk.Header.StateRoot = post.Root()
		sp, err := consensus.SignProposal(blk, c.keys[validator])
		if err != nil {
			t.Fatal(err)
		}
		body, err := sp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := evil.BroadcastMsg(topicProposal, body); err != nil {
			t.Fatal(err)
		}
		return blk
	}
	bad := propose(0, &transplanted)
	good := propose(1, genuine)
	votes := 0
	deadline := time.After(3 * time.Second)
	for votes < len(c.Nodes()) {
		select {
		case msg := <-evil.Inbox():
			if msg.Topic != topicVote {
				continue
			}
			var v consensus.Vote
			if err := json.Unmarshal(msg.Payload, &v); err != nil {
				t.Fatal(err)
			}
			switch v.Block {
			case bad.Hash():
				t.Fatalf("node %s voted for a block carrying a forged signature", msg.From)
			case good.Hash():
				votes++
			}
		case <-deadline:
			t.Fatalf("only %d/%d votes for the genuine proposal", votes, len(c.Nodes()))
		}
	}
	for _, n := range c.Nodes() {
		if got := offensesOf(n.GuardStats(), "evil")[guard.OffenseMalformed]; got != len(forged) {
			t.Fatalf("malformed offenses %d, want %d (duplicate gossip is not an offense)", got, len(forged))
		}
	}
}

// A block that does not snapshot must not pay for the receipt log: the
// work persistBlock does past the WAL append is independent of chain
// length.
func TestPersistBlockCostIndependentOfHeight(t *testing.T) {
	disk := store.NewMemFS()
	c, err := NewCluster(ClusterConfig{
		Nodes: 1, KeySeed: "persist-cost",
		Persist: &PersistConfig{Dir: "data", FSFor: func(int) store.FS { return disk }, SnapshotEvery: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	user := userKey(t, "persist-cost-user")
	n := c.Node(0)
	nonce := uint64(0)
	allocsAt := func(height uint64) float64 {
		for n.Height() < height {
			submitAndCommit(t, c, persistTx(t, user, nonce, fmt.Sprintf("cost-%d", nonce)))
			nonce++
		}
		// The head is already in the WAL, so this measures everything
		// persistBlock does besides the append itself.
		head := n.Chain().Head()
		var allocs float64
		n.do(func(r *replica) { allocs = testing.AllocsPerRun(20, func() { r.persistBlock(head) }) })
		return allocs
	}
	short, long := allocsAt(10), allocsAt(500)
	if long > short {
		t.Fatalf("non-snapshot persistBlock allocates %.0f times at height 500, %.0f at height 10", long, short)
	}
	if n.PersistErrors() != 0 {
		t.Fatalf("%d persist errors", n.PersistErrors())
	}
}
