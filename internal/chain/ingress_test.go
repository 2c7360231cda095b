package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"medchain/internal/canonjson/canontest"
	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// joinEvil attaches a raw endpoint (no node behind it) to the
// cluster's network — the vantage point of an external attacker or a
// compromised process speaking the wire protocol directly.
func joinEvil(t *testing.T, c *Cluster, id string) p2p.Endpoint {
	t.Helper()
	ep, err := c.Network().Join(p2p.NodeID(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// waitGuard polls node n's guard until cond is satisfied.
func waitGuard(t *testing.T, n *Node, what string, cond func(guard.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if cond(n.GuardStats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("guard condition %q not reached; stats: %+v", what, n.GuardStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func offensesOf(s guard.Stats, peer string) map[guard.Offense]int {
	for _, p := range s.Peers {
		if p.Peer == peer {
			return p.Offenses
		}
	}
	return nil
}

func quarantinedIn(s guard.Stats, peer string) bool {
	for _, p := range s.Peers {
		if p.Peer == peer {
			return p.Quarantined
		}
	}
	return false
}

// TestMalformedPayloadsScoredPerTopic drives garbage through every
// wire topic and asserts the table-driven contract of ingress
// validation: no panic, no chain or mempool state change, and one
// malformed-offense score increment per message — followed by
// quarantine once the score crosses the threshold.
func TestMalformedPayloadsScoredPerTopic(t *testing.T) {
	c := newCluster(t, 4)
	evil := joinEvil(t, c, "evil")
	unsigned, _ := (&ledger.Transaction{Type: ledger.TxData, Method: "m"}).Encode()

	topics := []struct {
		topic   string
		payload []byte
	}{
		{topicTx, []byte("{not json")},
		{topicTx, unsigned}, // decodes, fails Verify
		{topicProposal, []byte("\x00\x01garbage")},
		{topicVote, []byte("[]")},
		{topicBlock, []byte("}{")},
		{topicSyncReq, []byte(`"not-a-height"`)},
		{topicSyncCont, []byte("nope")},
	}
	for _, tc := range topics {
		if err := evil.BroadcastMsg(tc.topic, tc.payload); err != nil {
			t.Fatalf("broadcast %s: %v", tc.topic, err)
		}
	}

	// Every node scored every malformed message against the sender and
	// nothing else changed.
	for i, n := range c.Nodes() {
		n := n
		waitGuard(t, n, "malformed offenses", func(s guard.Stats) bool {
			return offensesOf(s, "evil")[guard.OffenseMalformed] >= len(topics)
		})
		if h := n.Height(); h != 0 {
			t.Fatalf("node %d: height %d after garbage, want 0", i, h)
		}
		if m := n.MempoolSize(); m != 0 {
			t.Fatalf("node %d: mempool %d after garbage, want 0", i, m)
		}
		if v := n.VoteBufferSize(); v != 0 {
			t.Fatalf("node %d: vote buffer %d after garbage, want 0", i, v)
		}
	}

	// Push the score over the quarantine threshold; subsequent gossip
	// from the peer is dropped at ingress and counted by the network.
	for i := 0; i < 5; i++ {
		if err := evil.BroadcastMsg(topicTx, []byte("junk")); err != nil {
			t.Fatal(err)
		}
	}
	waitGuard(t, c.Node(0), "quarantine", func(s guard.Stats) bool {
		return quarantinedIn(s, "evil")
	})
	before := offensesOf(c.Node(0).GuardStats(), "evil")[guard.OffenseMalformed]
	if err := evil.BroadcastMsg(topicTx, []byte("junk-post-quarantine")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Network().Stats().MessagesQuarantined == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no quarantined-drop recorded in network stats")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if after := offensesOf(c.Node(0).GuardStats(), "evil")[guard.OffenseMalformed]; after != before {
		t.Fatalf("quarantined peer still being scored: %d -> %d", before, after)
	}
}

// TestVoteBufferBoundedUnderSpam floods a node with authentically
// signed votes across many heights and asserts the ingress window plus
// per-voter dedupe keep the buffered artifacts bounded — the
// regression test for the formerly unbounded votes map.
func TestVoteBufferBoundedUnderSpam(t *testing.T) {
	c := newCluster(t, 4)
	evil := joinEvil(t, c, "evil")

	keys := make([]*cryptoutil.KeyPair, 4)
	for i := range keys {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("test-quorum-4/node-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
	}

	// 2 passes x 12 heights x 4 voters = 96 spam votes, all with valid
	// signatures. Only heights 1..voteWindow are buffered, one vote per
	// voter per height; the duplicate pass must be free.
	for pass := 0; pass < 2; pass++ {
		for h := uint64(1); h <= 12; h++ {
			for _, kp := range keys {
				hash := cryptoutil.Sum([]byte(fmt.Sprintf("spam-%d", h)))
				v, err := consensus.SignVote(h, hash, kp)
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				if err := evil.Send(c.Node(0).ID(), topicVote, body); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	bound := voteWindow * len(keys) * 2 // votes + first-vote records
	deadline := time.Now().Add(2 * time.Second)
	for c.Node(0).VoteBufferSize() < voteWindow*len(keys) {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := c.Node(0).VoteBufferSize(); got == 0 || got > bound {
		t.Fatalf("vote buffer %d after spam, want in (0, %d]", got, bound)
	}

	// Unsigned / forged votes are never buffered and are scored.
	forged := consensus.Vote{Height: 2, Block: cryptoutil.Sum([]byte("x")), Voter: keys[1].Address()}
	body, err := json.Marshal(forged)
	if err != nil {
		t.Fatal(err)
	}
	if err := evil.Send(c.Node(0).ID(), topicVote, body); err != nil {
		t.Fatal(err)
	}
	waitGuard(t, c.Node(0), "invalid-vote offense", func(s guard.Stats) bool {
		return offensesOf(s, "evil")[guard.OffenseInvalidVote] >= 1
	})
	if got := c.Node(0).VoteBufferSize(); got > bound {
		t.Fatalf("forged votes grew the buffer to %d (bound %d)", got, bound)
	}
}

// TestSyncFloodRateLimited floods sync requests and asserts the token
// bucket cuts the flooder off, scores it, and quarantines it.
func TestSyncFloodRateLimited(t *testing.T) {
	c := newCluster(t, 4)
	evil := joinEvil(t, c, "evil")

	for i := 0; i < 40; i++ {
		if err := evil.Send(c.Node(0).ID(), topicSyncReq, []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	waitGuard(t, c.Node(0), "sync-flood quarantine", func(s guard.Stats) bool {
		return offensesOf(s, "evil")[guard.OffenseSyncFlood] > 0 && quarantinedIn(s, "evil")
	})
	// Honest peers are untouched.
	for _, p := range c.Node(0).GuardStats().Peers {
		if p.Peer != "evil" && p.Quarantined {
			t.Fatalf("honest peer %s quarantined", p.Peer)
		}
	}
}

// TestForgedCertificateBlockIsScored: a block naming a validator as its
// proposer but certified by keys outside the validator set carries no
// valid vote, so every node refuses it with ErrQuorumTooSmall — and,
// the certificate being the sender's own forgery, scores an invalid-seal
// offense against that sender.
func TestForgedCertificateBlockIsScored(t *testing.T) {
	c := newCluster(t, 4)
	evil := joinEvil(t, c, "forger")

	head := c.Node(0).Chain().Head()
	txRoot, err := ledger.ComputeTxRoot(nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := &ledger.Block{Header: ledger.Header{
		Height: 1, Parent: head.Hash(), TxRoot: txRoot,
		StateRoot: c.Node(0).State().Root(),
		Timestamp: head.Header.Timestamp + 1,
		Proposer:  c.keys[c.proposerIndex()].Address(),
	}}
	qc := &consensus.QuorumCert{Block: blk.Hash()}
	for i := 0; i < c.Size(); i++ {
		v, err := consensus.SignVote(1, blk.Hash(), userKey(t, fmt.Sprintf("outsider-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		qc.Votes = append(qc.Votes, v)
	}
	if blk.Seal, err = qc.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).quorum.VerifySeal(blk); !errors.Is(err, consensus.ErrQuorumTooSmall) {
		t.Fatalf("test setup: VerifySeal = %v, want ErrQuorumTooSmall", err)
	}
	body, err := blk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := evil.BroadcastMsg(topicBlock, body); err != nil {
		t.Fatal(err)
	}

	for i, n := range c.Nodes() {
		waitGuard(t, n, "invalid-seal offense", func(s guard.Stats) bool {
			return offensesOf(s, "forger")[guard.OffenseInvalidSeal] >= 1
		})
		if h := n.Height(); h != 0 {
			t.Fatalf("node %d accepted the forged-certificate block (height %d)", i, h)
		}
	}
}

// ingressOutcome is what two nodes did with heightOne's traffic.
type ingressOutcome struct {
	Pooled, Buffered int
	VotedFor         cryptoutil.Digest
	Height           uint64
	// Offenses are those the node sent the invalid traffic scored,
	// Scored those the node sent the valid traffic scored.
	Offenses, Scored map[guard.Offense]int
}

// ingestHeightOne sends h's traffic, each payload respelled by spell, to
// two nodes of a fresh cluster: to node 1 the transaction, the proposal
// (whose vote comes back to the sender), a vote and the certified
// block; to node 2 the transaction with a broken signature, the vote
// with a forged signature and the wrong-root proposal.
func ingestHeightOne(t *testing.T, h heightOne, spell func([]byte) []byte) ingressOutcome {
	c := newCluster(t, 3)
	peer := joinEvil(t, c, "peer")
	good, bad := c.Node(1), c.Node(2)
	send := func(n *Node, topic string, payload []byte) {
		ingest(n, p2p.Message{From: "peer", To: n.ID(), Topic: topic, Payload: spell(payload)})
	}
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var out ingressOutcome

	send(good, topicTx, must(h.tx.Encode()))
	out.Pooled = good.MempoolSize()
	send(good, topicProposal, must(h.sp.Encode()))
	select {
	case msg := <-peer.Inbox():
		if v, err := consensus.DecodeVote(msg.Payload); msg.Topic == topicVote && err == nil {
			out.VotedFor = v.Block
		}
	case <-time.After(2 * time.Second):
	}
	buffered := good.VoteBufferSize()
	send(good, topicVote, h.vote.Encode())
	out.Buffered = good.VoteBufferSize() - buffered
	send(good, topicBlock, must(h.blk.Encode()))
	out.Height = good.Height()

	forged := *h.tx
	forged.Sig[0] ^= 1
	send(bad, topicTx, must(forged.Encode()))
	badVote := h.vote
	badVote.Sig[0] ^= 1
	send(bad, topicVote, badVote.Encode())
	send(bad, topicProposal, must(h.wrongSp.Encode()))
	out.Offenses = offensesOf(bad.GuardStats(), "peer")
	if scored := offensesOf(good.GuardStats(), "peer"); len(scored) > 0 {
		out.Scored = scored
	}
	return out
}

// TestNonCanonicalTwinsIngressAlike sends heightOne's traffic to live
// nodes three times — canonical, indented and reordered. The canonical
// spelling is pooled, voted on, buffered and applied, and its invalid
// messages are scored by what is wrong with them; a twin of any message
// is pooled, buffered, voted for and applied nowhere, and scored as
// malformed, once per message, whether or not the value it spells is
// valid.
func TestNonCanonicalTwinsIngressAlike(t *testing.T) {
	h := newHeightOne(t)
	canonical := ingressOutcome{
		Pooled: 1, Buffered: 2, VotedFor: h.blk.Hash(), Height: 1, // Buffered: the vote and its first-vote record
		Offenses: map[guard.Offense]int{guard.OffenseMalformed: 1, guard.OffenseInvalidVote: 1, guard.OffenseBadProposal: 1},
	}
	twin := ingressOutcome{
		Offenses: map[guard.Offense]int{guard.OffenseMalformed: 3},
		Scored:   map[guard.Offense]int{guard.OffenseMalformed: 4},
	}
	for _, spelling := range []struct {
		name  string
		spell func([]byte) []byte
		want  ingressOutcome
	}{
		{"canonical", func(b []byte) []byte { return b }, canonical},
		{"indented", canontest.Indented, twin},
		{"reordered", canontest.Reordered, twin},
	} {
		if got := ingestHeightOne(t, h, spelling.spell); !reflect.DeepEqual(got, spelling.want) {
			t.Errorf("%s: %+v, want %+v", spelling.name, got, spelling.want)
		}
	}
}

// TestNullScoredOnEveryTopic sends null, which encoding/json reads as a
// zero value of any type, on each chain topic: each message is one
// malformed offense and changes nothing. The zero vote and the zero
// block used to fall outside the height window unscored, and a zero
// sync height was served.
func TestNullScoredOnEveryTopic(t *testing.T) {
	c := newCluster(t, 3)
	n := c.Node(1)
	for i, in := range ingressTopics {
		ingest(n, p2p.Message{From: "null", To: n.ID(), Topic: in.topic, Payload: []byte("null")})
		if got := offensesOf(n.GuardStats(), "null"); !reflect.DeepEqual(got, map[guard.Offense]int{guard.OffenseMalformed: i + 1}) {
			t.Fatalf("after null on %s: offenses %v, want %d malformed", in.topic, got, i+1)
		}
	}
	if n.Height() != 0 || n.MempoolSize() != 0 || n.VoteBufferSize() != 0 {
		t.Fatalf("null moved the node: height %d, pool %d, votes %d", n.Height(), n.MempoolSize(), n.VoteBufferSize())
	}
}

// TestEscapedStringsCommit: a transaction whose method holds the bytes
// encoding/json escapes and non-ASCII runes is pooled by every node and
// committed — its peers read the escapes its encoder writes. (A type
// other than a TxType constant is refused at admission.)
func TestEscapedStringsCommit(t *testing.T) {
	c := newCluster(t, 3)
	tx := datasetTx(t, userKey(t, "escaped"), 0, "escaped")
	tx.Method = `register<&">µ-é`
	if err := tx.Sign(userKey(t, "escaped")); err != nil {
		t.Fatal(err)
	}
	blk := submitAndCommit(t, c, tx)
	if len(blk.Txs) != 1 || blk.Txs[0].ID() != tx.ID() {
		t.Fatalf("committed %d transactions, want the escaped one", len(blk.Txs))
	}
	waitConverged(t, c)
	for i, n := range c.Nodes() {
		if _, _, err := n.Chain().FindTx(tx.ID()); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		for _, p := range n.GuardStats().Peers {
			if len(p.Offenses) > 0 {
				t.Fatalf("node %d scored %s: %v", i, p.Peer, p.Offenses)
			}
		}
	}
}
