package chain

import (
	"context"
	"errors"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// wrongRootBlock is the next block over the proposer's pool, valid in
// every ledger rule and certified by every validator key — which no
// honest quorum does, since voters execute — carrying a state root no
// execution produces.
func wrongRootBlock(t testing.TB, c *Cluster, proposer *Node) *ledger.Block {
	t.Helper()
	blk, err := buildOn(proposer)
	if err != nil {
		t.Fatal(err)
	}
	blk.Header.StateRoot = cryptoutil.Sum([]byte("not the post-state root"))
	certifyWithEveryKey(t, c, blk)
	return blk
}

// certifyWithEveryKey seals blk with a certificate of votes from all of
// the cluster's validator keys.
func certifyWithEveryKey(t testing.TB, c *Cluster, blk *ledger.Block) {
	t.Helper()
	qc := &consensus.QuorumCert{Block: blk.Hash()}
	for _, k := range c.keys {
		v, err := consensus.SignVote(blk.Header.Height, blk.Hash(), k)
		if err != nil {
			t.Fatal(err)
		}
		qc.Votes = append(qc.Votes, v)
	}
	var err error
	if blk.Seal, err = qc.Encode(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedBlockDeliversNoEvents: a certified block whose state root
// no honest execution reproduces is rejected with ErrRootDiverged, no
// reader of the committed chain sees its events, and it leaves nothing
// behind on the node that rejected it — state, receipts, gas and
// execution count are what they were, so the honest block for the same
// height still commits there.
func TestRejectedBlockDeliversNoEvents(t *testing.T) {
	t.Run("quorum", func(t *testing.T) {
		c := newCluster(t, 3)
		tx := datasetTx(t, userKey(t, "mallory"), 0, "d")
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		waitMempools(t, c, 1)
		p := c.proposerIndex()
		follower := c.Node((p + 1) % 3)
		blk := wrongRootBlock(t, c, c.Node(p))
		root, executed := follower.State().Root(), follower.ExecStats().Blocks

		var err error
		follower.do(func(r *replica) { err = r.acceptBlock(blk) })
		if !errors.Is(err, ErrRootDiverged) {
			t.Fatalf("acceptBlock = %v, want ErrRootDiverged", err)
		}
		if h := follower.Height(); h != 0 {
			t.Fatalf("rejected block advanced the chain to %d", h)
		}
		through := follower.Committed(0, func(blk *ledger.Block, _ []*contract.Receipt) {
			t.Errorf("Committed hands out block %d, which never committed", blk.Header.Height)
		})
		if through != 0 {
			t.Fatalf("Committed read through %d on an empty chain", through)
		}
		if recs := follower.EventsSince(0); len(recs) != 0 {
			t.Fatalf("EventsSince sees %d events of a block that never committed", len(recs))
		}
		if _, left := follower.Receipt(tx.ID()); left {
			t.Error("the rejected block left its receipt behind")
		}
		if gas := follower.GasUsed(); gas != 0 {
			t.Errorf("the rejected block left %d gas behind", gas)
		}
		if follower.State().Root() != root {
			t.Error("the rejected block changed the state root")
		}
		if got := follower.ExecStats().Blocks; got != executed {
			t.Errorf("the rejected block is counted as executed: %d blocks, was %d", got, executed)
		}

		honest, err := c.Commit()
		if err != nil {
			t.Fatalf("the honest block at the same height: %v", err)
		}
		if honest.Header.Height != 1 || len(honest.Txs) != 1 {
			t.Fatalf("honest block %d holds %d txs", honest.Header.Height, len(honest.Txs))
		}
		if r, ok := follower.Receipt(tx.ID()); !ok || !r.OK() {
			t.Fatalf("follower's receipt after the honest block: %+v", r)
		}
		if err := c.VerifyConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCommittedCursor: blocks come in height order with receipts
// aligned to their transactions, the returned height is what was read,
// and a read from that height costs nothing until the chain grows.
func TestCommittedCursor(t *testing.T) {
	c := newCluster(t, 2)
	user := userKey(t, "cursor")
	for i := uint64(0); i < 3; i++ {
		submitAndCommit(t, c, datasetTx(t, user, 2*i, "a"+string(rune('0'+i))), datasetTx(t, user, 2*i+1, "b"+string(rune('0'+i))))
	}
	n := c.Node(1)
	var heights []uint64
	through := n.Committed(1, func(blk *ledger.Block, receipts []*contract.Receipt) {
		heights = append(heights, blk.Header.Height)
		if len(receipts) != len(blk.Txs) {
			t.Fatalf("block %d: %d receipts for %d txs", blk.Header.Height, len(receipts), len(blk.Txs))
		}
		for i, tx := range blk.Txs {
			if receipts[i] == nil || receipts[i].TxID != tx.ID() || receipts[i].Height != blk.Header.Height {
				t.Fatalf("block %d tx %d: receipt %+v", blk.Header.Height, i, receipts[i])
			}
		}
	})
	if through != 3 || len(heights) != 2 || heights[0] != 2 || heights[1] != 3 {
		t.Fatalf("Committed(1) read %v through %d, want [2 3] through 3", heights, through)
	}
	for _, after := range []uint64{3, 7} {
		if got := n.Committed(after, func(*ledger.Block, []*contract.Receipt) { t.Fatal("block above the head") }); got != after {
			t.Fatalf("Committed(%d) on a chain of 3 returned %d", after, got)
		}
	}
	if evs := n.EventsSince(2); len(evs) != 2 || evs[0].Height != 3 || evs[1].Height != 3 {
		t.Fatalf("EventsSince(2) = %+v", evs)
	}
}

// TestWaitHeight: the wait returns at once when the chain is already
// there, wakes on the append that gets it there, and gives ctx's error
// when that comes first — also when the height would have sufficed.
func TestWaitHeight(t *testing.T) {
	c := newCluster(t, 2)
	n := c.Node(1)
	if err := n.WaitHeight(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	reached := make(chan error, 1)
	go func() { reached <- n.WaitHeight(context.Background(), 1) }()
	submitAndCommit(t, c, datasetTx(t, userKey(t, "waiter"), 0, "d"))
	select {
	case err := <-reached:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitHeight slept through the append")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { reached <- n.WaitHeight(ctx, 2) }()
	cancel()
	if err := <-reached; !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitHeight after cancel = %v", err)
	}
	if err := n.WaitHeight(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitHeight on a done context = %v", err)
	}
}
