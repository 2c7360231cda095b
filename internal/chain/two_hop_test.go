package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// blockDropper is an endpoint that loses every block it sends, by
// broadcast or by sync.
type blockDropper struct{ p2p.Endpoint }

func (d blockDropper) BroadcastMsg(topic string, body []byte) error {
	if topic == topicBlock {
		return nil
	}
	return d.Endpoint.BroadcastMsg(topic, body)
}

func (d blockDropper) Send(to p2p.NodeID, topic string, body []byte) error {
	if topic == topicBlock {
		return nil
	}
	return d.Endpoint.Send(to, topic, body)
}

// TestFollowersCommitOnTheirOwnCertificate: with no block ever sent —
// not the proposer's broadcast, not a sync response — every follower
// still reaches each height, on the certificate it assembles from the
// broadcast votes, with the proposer's block and root and a seal every
// node's certificate check accepts.
func TestFollowersCommitOnTheirOwnCertificate(t *testing.T) {
	c := newCluster(t, 4)
	for _, n := range c.Nodes() {
		n.Stop()
		ep, err := c.Network().Join(n.ID())
		if err != nil {
			t.Fatal(err)
		}
		n.lifeMu.Lock()
		n.start(blockDropper{ep})
		n.lifeMu.Unlock()
	}
	user := userKey(t, "own-cert")
	for b := 0; b < 4; b++ {
		p := c.Proposer()
		blk := submitAndCommit(t, c, datasetTx(t, user, uint64(b), fmt.Sprintf("own-cert-%d", b)))
		for i, n := range c.Nodes() {
			head := n.Chain().Head()
			if head.Hash() != blk.Hash() {
				t.Fatalf("block %d: node %d is on another head", blk.Header.Height, i)
			}
			if n.State().Root() != p.State().Root() {
				t.Fatalf("block %d: node %d root differs from the proposer's", blk.Header.Height, i)
			}
			for j, judge := range c.Nodes() {
				if err := judge.quorum.VerifySeal(head); err != nil {
					t.Fatalf("block %d: node %d refuses node %d's seal: %v", blk.Header.Height, j, i, err)
				}
			}
		}
	}
	if sent := c.Network().Stats().BytesByTopic[topicBlock]; sent != 0 {
		t.Fatalf("%d block bytes reached the network", sent)
	}
	checkExecutedOnce(t, c, "after four blocks")
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// wrongRootProposal signs, with validator i's key, an empty block on
// the head whose state root no execution reaches: a node holds its
// signed header but votes for it never, so the votes the test sends are
// judged against it while nothing commits.
func wrongRootProposal(t *testing.T, c *Cluster, i int, salt string) *consensus.SignedProposal {
	t.Helper()
	txRoot, err := ledger.ComputeTxRoot(nil)
	if err != nil {
		t.Fatal(err)
	}
	head := c.Node(0).Chain().Head()
	blk := &ledger.Block{Header: ledger.Header{
		Height: head.Header.Height + 1, Parent: head.Hash(), TxRoot: txRoot,
		StateRoot: cryptoutil.Sum([]byte(salt)), Timestamp: head.Header.Timestamp + 1,
		Proposer: c.keys[i].Address(),
	}}
	sp, err := consensus.SignProposal(blk, c.keys[i])
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// reportedEvidence returns the evidence of the given kind a node holds
// in its pool as an audit transaction, or nil.
func reportedEvidence(t *testing.T, n *Node, kind consensus.EvidenceKind) *consensus.Evidence {
	t.Helper()
	for _, tx := range n.takeMempool(0) {
		var args contract.ReportEvidenceArgs
		if tx.Method != "report_evidence" || json.Unmarshal(tx.Args, &args) != nil || args.Kind != string(kind) {
			continue
		}
		ev, err := consensus.DecodeEvidence(args.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	return nil
}

// TestFailoverVotesAreNotEquivocation: a validator's vote for node-1's
// block and then for node-2's failover block at the same height is what
// the per-(height, proposer) vote lock allows — no node scores or
// reports it, and the pair does not verify as evidence. Two votes for
// two blocks of one proposer are still a double vote: every node
// reports it, and the evidence verifies.
func TestFailoverVotesAreNotEquivocation(t *testing.T) {
	c := newCluster(t, 4)
	relay := joinEvil(t, c, "relay")
	const voter = 3
	judges := []int{0, 1, 2}
	voterID := string(c.Node(voter).ID())

	propose := func(i int, salt string) *consensus.SignedProposal {
		t.Helper()
		sp := wrongRootProposal(t, c, i, salt)
		body, err := sp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := relay.BroadcastMsg(topicProposal, body); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	vote := func(sp *consensus.SignedProposal) consensus.Vote {
		t.Helper()
		v, err := consensus.SignVote(sp.Block.Header.Height, sp.Block.Hash(), c.keys[voter])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Node(voter).endpoint().BroadcastMsg(topicVote, v.Encode()); err != nil {
			t.Fatal(err)
		}
		return v
	}
	buffered := func(n *Node, v consensus.Vote) (ok bool) {
		n.do(func(r *replica) {
			vs := r.votes[v.Block]
			ok = vs != nil && vs.byVoter[v.Voter]
		})
		return ok
	}
	waitJudges := func(what string, cond func(*Node) bool) {
		t.Helper()
		for _, i := range judges {
			for deadline := time.Now().Add(3 * time.Second); !cond(c.Node(i)); {
				if time.Now().After(deadline) {
					t.Fatalf("node %d: %s", i, what)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	a, b := propose(1, "failover-a"), propose(2, "failover-b")
	va, vb := vote(a), vote(b)
	waitJudges("both failover votes buffered", func(n *Node) bool { return buffered(n, va) && buffered(n, vb) })
	for _, i := range judges {
		n := c.Node(i)
		if got := offensesOf(n.GuardStats(), voterID)[guard.OffenseEquivocation]; got != 0 {
			t.Fatalf("node %d scored the failover voter for equivocation", i)
		}
		if n.MempoolSize() != 0 {
			t.Fatalf("node %d reported evidence for failover votes", i)
		}
	}
	ha, hb := a.Header(), b.Header()
	failover := &consensus.Evidence{Kind: consensus.EvidenceDoubleVote, Height: va.Height, Offender: va.Voter,
		FirstVote: &va, SecondVote: &vb, FirstHeader: &ha, SecondHeader: &hb}
	if err := failover.Verify(c.vals); !errors.Is(err, consensus.ErrBadEvidence) {
		t.Fatalf("the failover pair verifies as evidence: %v", err)
	}

	// Node-1 signs a second block at the height (the relay carries the
	// double proposal and is quarantined for it); the voter's vote for
	// it conflicts with its vote for node-1's first block.
	a2 := propose(1, "failover-a2")
	vote(a2)
	waitJudges("double vote reported", func(n *Node) bool {
		return reportedEvidence(t, n, consensus.EvidenceDoubleVote) != nil
	})
	for _, i := range judges {
		n := c.Node(i)
		ev := reportedEvidence(t, n, consensus.EvidenceDoubleVote)
		if ev.Offender != c.keys[voter].Address() {
			t.Fatalf("node %d reported %s, not the voter", i, ev.Offender.Short())
		}
		if err := ev.Verify(c.vals); err != nil {
			t.Fatalf("node %d reported evidence that does not verify: %v", i, err)
		}
		if got := offensesOf(n.GuardStats(), voterID)[guard.OffenseEquivocation]; got != 1 {
			t.Fatalf("node %d scored the double voter %d times, want once", i, got)
		}
	}
}

// TestStaleVotesCostNoVerification: a vote for a height this node has
// committed is dropped before its signature is checked — the votes a
// node receives after it committed on its own certificate cost no
// ECDSA — validly signed or forged alike, and it is neither buffered
// nor scored.
func TestStaleVotesCostNoVerification(t *testing.T) {
	c := newCluster(t, 4)
	blk := submitAndCommit(t, c, datasetTx(t, userKey(t, "stale-user"), 0, "stale"))
	n := c.Node(0)
	valid, err := consensus.SignVote(blk.Header.Height, blk.Hash(), c.keys[1])
	if err != nil {
		t.Fatal(err)
	}
	forged := valid
	forged.Sig[7] ^= 0x20
	verifies, _ := n.quorum.VoteVerifyCounts()
	held := n.VoteBufferSize()
	for _, v := range []consensus.Vote{valid, forged} {
		ingest(n, p2p.Message{From: "relay", To: n.ID(), Topic: topicVote, Payload: v.Encode()})
	}
	if got, _ := n.quorum.VoteVerifyCounts(); got != verifies {
		t.Fatalf("stale votes cost %d verifications", got-verifies)
	}
	if got := n.VoteBufferSize(); got != held {
		t.Fatalf("stale votes grew the buffers from %d to %d", held, got)
	}
	if offs := offensesOf(n.GuardStats(), "relay"); len(offs) != 0 {
		t.Fatalf("stale votes scored: %v", offs)
	}
}

// voteCountOf reads the number of votes n holds for a block on its loop.
func voteCountOf(n *Node, hash cryptoutil.Digest) (count int) {
	n.do(func(r *replica) { count = r.voteCount(hash) })
	return count
}

// BenchmarkCommitOneTx times Commit of a one-transaction block on four
// memory-only nodes over 1 ms hops — the consensus round a platform
// query's on-chain authorisation pays. Gossip of the transaction is
// outside the timer.
func BenchmarkCommitOneTx(b *testing.B) {
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, KeySeed: "bench-one-tx", Network: p2p.Config{BaseLatency: time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	user := userKey(b, "bench-one-tx-user")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.Submit(datasetTx(b, user, uint64(i), fmt.Sprintf("one-%d", i))); err != nil {
			b.Fatal(err)
		}
		if !c.WaitPooled(1, 5*time.Second) {
			b.Fatal("gossip did not reach every pool")
		}
		b.StartTimer()
		if _, err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// gate stands between a cluster's nodes: every message a node sends
// passes through rule, which delivers it, drops it, or holds it until
// release. A broadcast is judged once per recipient.
type gate struct {
	mu   sync.Mutex
	ids  []p2p.NodeID
	rule func(from, to p2p.NodeID, topic string, body []byte) gateVerdict
	held []gatedMsg
}

type gateVerdict int

const (
	deliver gateVerdict = iota
	drop
	hold
)

type gatedMsg struct {
	ep    p2p.Endpoint
	to    p2p.NodeID
	topic string
	body  []byte
}

type gatedEndpoint struct {
	p2p.Endpoint
	g *gate
}

func (e gatedEndpoint) Send(to p2p.NodeID, topic string, body []byte) error {
	g := e.g
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.rule(e.ID(), to, topic, body) {
	case drop:
		return nil
	case hold:
		g.held = append(g.held, gatedMsg{ep: e.Endpoint, to: to, topic: topic, body: body})
		return nil
	}
	return e.Endpoint.Send(to, topic, body)
}

func (e gatedEndpoint) BroadcastMsg(topic string, body []byte) error {
	for _, to := range e.g.ids {
		if to != e.ID() {
			if err := e.Send(to, topic, body); err != nil && !errors.Is(err, p2p.ErrUnknownPeer) {
				return err
			}
		}
	}
	return nil
}

// gateCluster restarts every memory-only node of c on an endpoint
// behind one gate, which delivers everything until its rule is set.
func gateCluster(t *testing.T, c *Cluster) *gate {
	t.Helper()
	g := &gate{rule: func(p2p.NodeID, p2p.NodeID, string, []byte) gateVerdict { return deliver }}
	for _, n := range c.Nodes() {
		g.ids = append(g.ids, n.ID())
		n.Stop()
		ep, err := c.Network().Join(n.ID())
		if err != nil {
			t.Fatal(err)
		}
		n.start(gatedEndpoint{ep, g})
	}
	return g
}

// open delivers everything from now on and sends what was held.
func (g *gate) open() {
	g.mu.Lock()
	g.rule = func(p2p.NodeID, p2p.NodeID, string, []byte) gateVerdict { return deliver }
	held := g.held
	g.held = nil
	g.mu.Unlock()
	for _, m := range held {
		_ = m.ep.Send(m.to, m.topic, m.body)
	}
}

// TestLateProposalAfterFailoverCommitsNowhere: the scheduled proposer's
// proposal and vote are held past its round budget, so Commit fails
// over and the next candidate's block commits. Two followers vote for
// that block but are kept one vote short of its certificate and never
// sent it; then the held proposal and vote arrive, and both followers
// vote for the failed round's block too — the per-(height, proposer)
// lock allows it — until each holds 2f+1 votes for it. Neither commits
// it: its round was closed when the driver failed over. Once the
// network heals every node holds the failover block.
func TestLateProposalAfterFailoverCommitsNowhere(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, KeySeed: "late-proposal", CommitTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	submitAndWait := func(id string, nonce uint64) {
		t.Helper()
		if err := c.Submit(datasetTx(t, userKey(t, "late-user"), nonce, id)); err != nil {
			t.Fatal(err)
		}
		waitMempools(t, c, 1)
	}
	submitAndWait("late-0", 0)
	cands := c.proposerCandidates()
	p, x := c.Node(cands[0]), c.Node(cands[1])
	y, z := c.Node(cands[2]), c.Node(cands[3])
	follower := func(id p2p.NodeID) bool { return id == y.ID() || id == z.ID() }

	g := gateCluster(t, c)
	var late, failover cryptoutil.Digest
	g.rule = func(from, to p2p.NodeID, topic string, body []byte) gateVerdict {
		switch topic {
		case topicProposal:
			sp, err := consensus.DecodeSignedProposal(body)
			if err != nil {
				return deliver
			}
			if from == p.ID() {
				late = sp.Block.Hash()
				return hold
			}
			failover = sp.Block.Hash()
		case topicVote:
			v, err := consensus.DecodeVote(body)
			if err != nil {
				return deliver
			}
			if from == p.ID() && v.Block == late {
				return hold
			}
			if follower(to) && v.Block == failover && from != x.ID() {
				return drop // each follower holds two votes for the failover block: its own and x's
			}
		case topicBlock:
			if follower(to) {
				return drop
			}
		}
		return deliver
	}

	blk, err := c.Commit()
	if blk == nil {
		t.Fatalf("no block committed after the failover: %v", err)
	}
	if blk.Header.Proposer != x.Address() {
		t.Fatalf("block %d proposed by %s, want the failover candidate", blk.Header.Height, blk.Header.Proposer.Short())
	}
	height := blk.Header.Height

	g.open()
	for _, n := range []*Node{y, z} {
		for deadline := time.Now().Add(3 * time.Second); n.Height() < height && voteCountOf(n, late) < c.vals.QuorumThreshold(); {
			if time.Now().After(deadline) {
				t.Fatalf("%s never held a certificate's votes for the late block", n.ID())
			}
			time.Sleep(time.Millisecond)
		}
	}
	c.SyncLagging()
	if !waitNodes(c.nodes, 5*time.Second, func(n *Node) { n.requestSync(x.ID()) },
		func(n *Node) bool { return n.Height() >= height }) {
		t.Fatal("the cluster did not converge on the failover block")
	}
	for _, n := range c.Nodes() {
		got, err := n.Chain().BlockAt(height)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != blk.Hash() {
			t.Fatalf("%s committed %s at height %d, the failover block is %s",
				n.ID(), got.Hash().Short(), height, blk.Hash().Short())
		}
	}
	if err := c.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	submitAndWait("late-1", 1)
	if _, err := c.Commit(); err != nil {
		t.Fatalf("commit after the late round: %v", err)
	}
}
