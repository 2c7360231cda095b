package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// receiptJSON renders a node's receipt of a committed transaction, or
// fails the test.
func receiptJSON(t *testing.T, n *Node, tx *ledger.Transaction) string {
	t.Helper()
	r, ok := n.Receipt(tx.ID())
	if !ok {
		t.Fatalf("%s has no receipt for %s", n.ID(), tx.ID().Short())
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// freshRootOf is st's root rebuilt from its export, its own tree unused.
func freshRootOf(st *contract.State) cryptoutil.Digest {
	return contract.ImportState(st.Export()).Root()
}

func hasPending(n *Node) bool { return pendingOf(n) != nil }

// pendingOf reads n's pending execution on its loop.
func pendingOf(n *Node) (p *pendingBlock) {
	n.do(func(r *replica) { p = r.pending })
	return p
}

// ingest hands msg to n's ingress on its loop, as the network would.
func ingest(n *Node, msg p2p.Message) {
	ep := n.endpoint()
	n.do(func(*replica) { n.handle(ep, msg) })
}

// buildOn builds n's next block from its whole pool on its loop.
func buildOn(n *Node) (blk *ledger.Block, err error) {
	n.do(func(r *replica) { blk, err = r.buildBlock(0) })
	return blk, err
}

// checkExecutedOnce: every node has materialised exactly the blocks of
// its chain — one execution counted per block, whichever way the block
// reached it.
func checkExecutedOnce(t *testing.T, c *Cluster, when string) {
	t.Helper()
	for i, n := range c.Nodes() {
		if got, want := n.ExecStats().Blocks, int64(n.Height()); got != want {
			t.Fatalf("%s: node %d executed %d blocks, its chain holds %d", when, i, got, want)
		}
	}
}

// isolate cuts the named node off from the other three of a 4-node
// cluster; nil heals.
func isolate(c *Cluster, id p2p.NodeID) {
	if id == "" {
		c.Network().SetPartitions(nil)
		return
	}
	c.Network().SetPartitions(map[p2p.NodeID]int{id: 1})
}

// TestProposerExecutesEachBlockOnce: every node's executed-block and
// executed-transaction counts equal the chain's — proposer, voter and a
// node that missed the round alike — over gossiped blocks proposed by
// every node in turn, a round that failed and was retried from the
// cached proposal, and a block a partitioned node takes over sync.
func TestProposerExecutesEachBlockOnce(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "exec-once", CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user := userKey(t, "exec-once-user")
	nonce := uint64(0)
	batch := func(n int) []*ledger.Transaction {
		var txs []*ledger.Transaction
		for i := 0; i < n; i++ {
			txs = append(txs, datasetTx(t, user, nonce, fmt.Sprintf("once-%d", nonce)))
			nonce++
		}
		return txs
	}
	total, blocks := int64(0), int64(0)
	check := func(when string) {
		t.Helper()
		for i, n := range c.Nodes() {
			if st := n.ExecStats(); st.Txs != total || st.Blocks != blocks {
				t.Fatalf("%s: node %d executed %d txs in %d blocks, chain holds %d in %d", when, i, st.Txs, st.Blocks, total, blocks)
			}
		}
	}

	// Five gossiped blocks: every node proposes at least once.
	proposers := map[int]bool{}
	for b := 0; b < 5; b++ {
		proposers[c.proposerIndex()] = true
		blk := submitAndCommit(t, c, batch(1+b%3)...)
		total, blocks = total+int64(len(blk.Txs)), blocks+1
		check(fmt.Sprintf("block %d", blk.Header.Height))
		checkExecutedOnce(t, c, fmt.Sprintf("block %d", blk.Header.Height))
	}
	if len(proposers) != 4 {
		t.Fatalf("only %d of 4 nodes proposed", len(proposers))
	}

	// A round that fails for want of a quorum, then is retried from the
	// cached proposal: still one execution of that block on its proposer.
	p := c.proposerIndex()
	pn := c.Node(p)
	txs := batch(2)
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	waitMempools(t, c, len(txs))
	isolate(c, pn.ID())
	if _, err := pn.produceBlock(0, 50*time.Millisecond); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("isolated proposer: %v, want ErrNoQuorum", err)
	}
	check("after the failed round") // a preview that did not commit is not counted
	if !hasPending(pn) {
		t.Fatal("the failed round did not keep its preview")
	}
	isolate(c, "")
	blk, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if blk.Header.Proposer != pn.Address() || len(blk.Txs) != len(txs) {
		t.Fatalf("retry committed a block of %d txs by %s", len(blk.Txs), blk.Header.Proposer.Short())
	}
	total, blocks = total+int64(len(blk.Txs)), blocks+1
	check("after the retried round")
	checkExecutedOnce(t, c, "after the retried round")
	for i, n := range c.Nodes() {
		if hasPending(n) {
			t.Fatalf("node %d still holds a committed execution", i)
		}
	}

	// A follower that is cut off through a whole round neither sees the
	// proposal nor the block; it executes the block when sync delivers it.
	p = c.proposerIndex()
	missed := c.Node((p + 1) % 4)
	txs = batch(2)
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	waitMempools(t, c, len(txs))
	isolate(c, missed.ID())
	if blk, err = c.Node(p).produceBlock(0, time.Second); err != nil {
		t.Fatal(err)
	}
	if missed.Height() != blk.Header.Height-1 || missed.ExecStats().Blocks != blocks {
		t.Fatalf("the isolated node is at height %d with %d blocks executed", missed.Height(), missed.ExecStats().Blocks)
	}
	isolate(c, "")
	missed.requestSync(c.Node(p).ID())
	if !waitNodes(c.nodes, 3*time.Second, nil, func(n *Node) bool { return n.Height() >= blk.Header.Height }) {
		t.Fatal("the isolated node never caught up")
	}
	total, blocks = total+int64(len(blk.Txs)), blocks+1
	check("after the sync catch-up")
	checkExecutedOnce(t, c, "after the sync catch-up")
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestUndecodableArgsBlockExecutesOnceEverywhere: a block holding a
// transaction whose arguments do not decode commits consistently, the
// undecodable transaction with a failure receipt, and every node —
// proposer and voters — has executed it once.
func TestUndecodableArgsBlockExecutesOnceEverywhere(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "fallback-user")
	submitAndCommit(t, c, datasetTx(t, user, 0, "fb-0"))

	bad := &ledger.Transaction{
		Type: ledger.TxData, Nonce: 1, Method: "grant", Args: []byte("{not json"), Timestamp: 1,
	}
	if err := bad.Sign(user); err != nil {
		t.Fatal(err)
	}
	p := c.Node(c.proposerIndex())
	blk := submitAndCommit(t, c, bad, datasetTx(t, user, 2, "fb-2"))
	if len(blk.Txs) != 2 || blk.Header.Proposer != p.Address() {
		t.Fatalf("block holds %d txs by %s, want 2 by %s", len(blk.Txs), blk.Header.Proposer.Short(), p.Address().Short())
	}
	submitAndCommit(t, c, datasetTx(t, user, 3, "fb-3"))

	for i, n := range c.Nodes() {
		if got := n.ExecStats().Txs; got != 4 {
			t.Fatalf("node %d executed %d txs, the chain holds 4", i, got)
		}
		if r, ok := n.Receipt(bad.ID()); !ok || r.OK() {
			t.Fatalf("node %d: undecodable tx should commit with a failure receipt: %+v", i, r)
		}
		if st := n.State(); st.Root() != freshRootOf(st) {
			t.Fatalf("node %d: root differs from one rebuilt from its export", i)
		}
	}
	checkExecutedOnce(t, c, "after three blocks")
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCompetingBlockSupersedesFailedRoundsPreview: node 1's round at
// height 1 fails (isolated), leaving it a preview of its own block;
// node 2 then commits a different block at that height. When node 1
// catches up it must drop the preview and execute node 2's block as
// every node executes a block it holds no execution of: its root,
// receipts, mempool and execution count end equal to the followers'.
func TestCompetingBlockSupersedesFailedRoundsPreview(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "superseded", CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user, other := userKey(t, "superseded-user"), userKey(t, "superseded-other")
	first := datasetTx(t, user, 0, "sup-a")
	if err := c.Submit(first); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)

	loser, winner := c.Node(1), c.Node(2)
	isolate(c, loser.ID())
	if _, err := loser.produceBlock(0, 50*time.Millisecond); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("isolated proposer: %v, want ErrNoQuorum", err)
	}
	if !hasPending(loser) {
		t.Fatal("the failed round did not keep its preview")
	}
	// The majority's block holds one transaction more than the preview.
	second := datasetTx(t, other, 0, "sup-b")
	if err := c.SubmitVia(2, second); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 3} {
		for deadline := time.Now().Add(3 * time.Second); c.Node(i).MempoolSize() < 2; {
			if time.Now().After(deadline) {
				t.Fatal("gossip timeout on the majority side")
			}
			time.Sleep(time.Millisecond)
		}
	}
	blk, err := winner.produceBlock(0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 2 {
		t.Fatalf("competing block holds %d txs, want 2", len(blk.Txs))
	}

	isolate(c, "")
	loser.requestSync(winner.ID())
	caughtUp := waitNodes(c.nodes, 3*time.Second, nil, func(n *Node) bool { return n.Height() >= 1 })
	if !caughtUp {
		t.Fatal("the failed proposer never caught up")
	}
	if hasPending(loser) {
		t.Fatal("a superseded preview is still held")
	}
	if got, want := loser.Chain().Head().Hash(), winner.Chain().Head().Hash(); got != want {
		t.Fatal("the failed proposer is on another block")
	}
	ref := c.Node(0)
	if loser.State().Root() != ref.State().Root() {
		t.Fatal("the failed proposer's root differs from a follower's")
	}
	if st := loser.State().Clone(); st.Root() != freshRootOf(st) {
		t.Fatal("the failed proposer's tree differs from a rebuild")
	}
	for _, tx := range blk.Txs {
		if got, want := receiptJSON(t, loser, tx), receiptJSON(t, ref, tx); got != want {
			t.Fatalf("receipt of %s differs:\n loser    %s\n follower %s", tx.ID().Short(), got, want)
		}
	}
	if got, want := loser.ExecStats().Txs, ref.ExecStats().Txs; got != want || got != 2 {
		t.Fatalf("the failed proposer executed %d txs, a follower %d, the chain holds 2", got, want)
	}
	if got, want := loser.MempoolSize(), ref.MempoolSize(); got != want || got != 0 {
		t.Fatalf("mempools: failed proposer %d, follower %d, want 0", got, want)
	}
	checkExecutedOnce(t, c, "after the competing block")
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCachedProposalRetryWithGrownMempool: the retried round must
// commit the cached block — not a fresh candidate that would also pack
// what arrived since — with the receipts every follower computes, and
// leave the newcomer pooled for the next block.
func TestCachedProposalRetryWithGrownMempool(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "cached-retry", CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	user, other := userKey(t, "cached-user"), userKey(t, "cached-other")
	p := c.Node(c.proposerIndex())
	first := datasetTx(t, user, 0, "cached-a")
	if err := c.Submit(first); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	isolate(c, p.ID())
	if _, err := p.produceBlock(0, 50*time.Millisecond); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("isolated proposer: %v, want ErrNoQuorum", err)
	}
	isolate(c, "")
	late := datasetTx(t, other, 0, "cached-b")
	if err := c.Submit(late); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 2)

	blk, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 1 || blk.Txs[0].ID() != first.ID() || blk.Header.Proposer != p.Address() {
		t.Fatalf("retry committed %d txs by %s, want the cached one-transaction block", len(blk.Txs), blk.Header.Proposer.Short())
	}
	for i, n := range c.Nodes() {
		if got, want := receiptJSON(t, n, first), receiptJSON(t, c.Node(0), first); got != want {
			t.Fatalf("node %d receipt differs: %s vs %s", i, got, want)
		}
		if r, _ := n.Receipt(first.ID()); !r.OK() || r.Height != blk.Header.Height {
			t.Fatalf("node %d: receipt %+v", i, r)
		}
		if _, ok := n.Receipt(late.ID()); ok || n.MempoolSize() != 1 {
			t.Fatalf("node %d: the late transaction should still be pooled (pool %d)", i, n.MempoolSize())
		}
		if got := n.ExecStats().Txs; got != 1 {
			t.Fatalf("node %d executed %d txs, want 1", i, got)
		}
	}
	checkExecutedOnce(t, c, "after the cached-proposal retry")
	next, err := c.Commit()
	if err != nil || len(next.Txs) != 1 || next.Txs[0].ID() != late.ID() {
		t.Fatalf("next block: %v %+v", err, next)
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestResentProposalIsNotExecutedAgain: a voter keeps its execution of
// the proposal it voted for, so the same proposal arriving again (the
// proposer's cached-proposal retry) is answered from it, and so is the
// certified block when it commits.
func TestResentProposalIsNotExecutedAgain(t *testing.T) {
	c := newCluster(t, 4)
	if err := c.Submit(datasetTx(t, userKey(t, "resent-user"), 0, "resent")); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, c, 1)
	p := c.proposerIndex()
	proposer, voter := c.Node(p), c.Node((p+1)%4)
	blk, err := buildOn(proposer)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := consensus.SignProposal(blk, proposer.key)
	if err != nil {
		t.Fatal(err)
	}
	body, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	msg := p2p.Message{From: proposer.ID(), To: voter.ID(), Topic: topicProposal, Payload: body}
	ingest(voter, msg)
	first := pendingOf(voter)
	if first == nil || first.hash != blk.Hash() {
		t.Fatalf("the voter holds %+v after voting for %s", first, blk.Hash().Short())
	}
	ingest(voter, msg)
	if pendingOf(voter) != first {
		t.Fatal("the re-sent proposal was executed again")
	}
	// The round proper proposes the same block (same head, same pool).
	committed, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if committed.Hash() != blk.Hash() {
		t.Fatal("test setup: the committed block is not the one proposed by hand")
	}
	checkExecutedOnce(t, c, "after the round")
	if hasPending(voter) {
		t.Fatal("a committed execution is still held")
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestProduceBlockCostIndependentOfStateSize: what one produceBlock
// (build, preview, accept) of a one-transaction block allocates must
// not grow with the number of datasets in state. Stated margin: at
// 12 000 datasets at most 1.25x the bytes and 1.25x the allocations of
// 1 000 (the previewed tree's fixed copy dominates both). At the parent
// commit the preview cloned the state: 12x the objects, ~8x the bytes.
func TestProduceBlockCostIndependentOfStateSize(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 12 000 datasets")
	}
	c, err := NewCluster(ClusterConfig{Nodes: 1, KeySeed: "cost-vs-state"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Node(0)
	filler, user := userKey(t, "cost-filler"), userKey(t, "cost-user")
	fill, nonce := uint64(0), uint64(0)
	costAt := func(datasets int) (bytes, allocs uint64) {
		for int(fill) < datasets {
			step := min(1000, datasets-int(fill))
			for i := 0; i < step; i++ {
				if err := n.SubmitLocal(datasetTx(t, filler, fill, fmt.Sprintf("fill-%d", fill))); err != nil {
					t.Fatal(err)
				}
				fill++
			}
			if _, err := c.CommitAll(); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(n.State().Datasets()); got < datasets {
			t.Fatalf("state holds %d datasets, want >= %d", got, datasets)
		}
		const runs = 15
		var bs, as []uint64
		for i := 0; i < runs; i++ {
			if err := n.SubmitLocal(datasetTx(t, user, nonce, fmt.Sprintf("cost-%d", nonce))); err != nil {
				t.Fatal(err)
			}
			nonce++
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			blk, err := n.produceBlock(0, time.Second)
			runtime.ReadMemStats(&after)
			if err != nil || len(blk.Txs) != 1 {
				t.Fatalf("produceBlock: %v", err)
			}
			bs = append(bs, after.TotalAlloc-before.TotalAlloc)
			as = append(as, after.Mallocs-before.Mallocs)
		}
		// Medians: a map that happens to grow inside one run is not the
		// per-block cost.
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		return bs[runs/2], as[runs/2]
	}
	smallB, smallA := costAt(1000)
	bigB, bigA := costAt(12000)
	t.Logf("one-tx produceBlock: %d B / %d allocs at 1k datasets, %d B / %d allocs at 12k", smallB, smallA, bigB, bigA)
	if float64(bigB) > 1.25*float64(smallB) || float64(bigA) > 1.25*float64(smallA) {
		t.Fatalf("per-block cost grew with state: %d B / %d allocs at 1k datasets, %d B / %d allocs at 12k",
			smallB, smallA, bigB, bigA)
	}
}

// TestProposerVerifiesEachVoteOnce: every node verifies each foreign
// vote at most once and its own never. Votes reach every node, and each
// commits on the certificate it assembles: per committed block a node
// runs at least 2f verifications (the foreign votes of a certificate)
// and at most one per other validator (a vote that arrives after the
// node committed is dropped unverified), and checking its own seal
// again — its own vote and the foreign ones it verified — runs none.
// At the parent commit votes reached only the proposer, which verified
// one per vote received, while a follower verified every vote of the
// certificate the block arrived with.
func TestProposerVerifiesEachVoteOnce(t *testing.T) {
	c := newCluster(t, 4)
	user := userKey(t, "vote-once")
	counts := func(n *Node) uint64 {
		v, _ := n.quorum.VoteVerifyCounts()
		return v
	}
	least, most := uint64(c.vals.QuorumThreshold()-1), uint64(c.Size()-1)
	for b := 0; b < 4; b++ {
		var before [4]uint64
		for i, n := range c.Nodes() {
			before[i] = counts(n)
		}
		blk := submitAndCommit(t, c, datasetTx(t, user, uint64(b), fmt.Sprintf("vote-%d", b)))
		for i, n := range c.Nodes() {
			got := counts(n) - before[i]
			if got < least || got > most {
				t.Fatalf("block %d: node %d ran %d vote verifications, want %d..%d",
					blk.Header.Height, i, got, least, most)
			}
			head := n.Chain().Head()
			if head.Hash() != blk.Hash() {
				t.Fatalf("node %d is on another head", i)
			}
			if err := n.quorum.VerifySeal(head); err != nil {
				t.Fatalf("node %d: its own seal: %v", i, err)
			}
			if again := counts(n) - before[i]; again != got {
				t.Fatalf("block %d: node %d verified %d votes again checking its own seal", blk.Header.Height, i, again-got)
			}
		}
	}

	// A certificate carrying a vote with one signature bit flipped is
	// refused on every node, the proposer that memoised the genuine vote
	// included. Trimmed to exactly the threshold so the forged vote is
	// the deciding one.
	head := c.Node(0).Chain().Head()
	qc, err := consensus.DecodeQuorumCert(head.Seal)
	if err != nil {
		t.Fatal(err)
	}
	qc.Votes = qc.Votes[:3]
	trimmed, forged := *head, *head
	if trimmed.Seal, err = qc.Encode(); err != nil {
		t.Fatal(err)
	}
	qc.Votes[1].Sig[17] ^= 0x04
	if forged.Seal, err = qc.Encode(); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		if err := n.quorum.VerifySeal(&trimmed); err != nil {
			t.Fatalf("node %d refuses the genuine trimmed certificate: %v", i, err)
		}
		if err := n.quorum.VerifySeal(&forged); !errors.Is(err, consensus.ErrQuorumTooSmall) {
			t.Fatalf("node %d on a certificate with a flipped signature bit: %v", i, err)
		}
	}
}

// TestSkippedVoteVerifyIsNeverMemoised: a vote admitted under the
// mutation seam is buffered but not marked, so the certificate check
// still verifies — and refuses — it.
func TestSkippedVoteVerifyIsNeverMemoised(t *testing.T) {
	t.Cleanup(SetSkipVoteVerify()) // registered first: restored after the cluster has closed
	c := newCluster(t, 4)
	n := c.Node(0)
	eng := n.quorum
	forged, err := consensus.SignVote(1, c.Node(0).Chain().Head().Hash(), c.keys[1])
	if err != nil {
		t.Fatal(err)
	}
	forged.Sig[3] ^= 0x10
	body, err := json.Marshal(forged)
	if err != nil {
		t.Fatal(err)
	}
	ingest(n, p2p.Message{From: c.Node(1).ID(), To: n.ID(), Topic: topicVote, Payload: body})
	if n.VoteBufferSize() == 0 {
		t.Fatal("test setup: the unverified vote was not buffered")
	}
	if v, h := eng.VoteVerifyCounts(); v != 0 || h != 0 {
		t.Fatalf("admission under the knob touched the memo: %d verifications, %d hits", v, h)
	}
	if err := eng.VerifyVote(forged); err == nil {
		t.Fatal("a forged vote admitted under the knob verifies afterwards")
	}
}
