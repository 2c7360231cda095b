package chain

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"medchain/internal/canonjson/canontest"
	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// ingressTopics pairs every wire topic with the decoder handle puts its
// payload through first.
var ingressTopics = []struct {
	topic   string
	decodes func([]byte) bool
}{
	{topicTx, func(b []byte) bool { _, err := ledger.DecodeTransaction(b); return err == nil }},
	{topicProposal, func(b []byte) bool { _, err := consensus.DecodeSignedProposal(b); return err == nil }},
	{topicVote, func(b []byte) bool { _, err := consensus.DecodeVote(b); return err == nil }},
	{topicBlock, func(b []byte) bool { _, err := ledger.DecodeBlock(b); return err == nil }},
	{topicSyncReq, func(b []byte) bool { _, err := decodeHeight(b); return err == nil }},
	{topicSyncCont, func(b []byte) bool { _, err := decodeHeight(b); return err == nil }},
}

// heightOne is the traffic of a twin cluster (same keys, same genesis)
// committing one transaction at height 1: the transaction, the signed
// proposal, a vote and the certified block — and, first, a signed
// proposal for that height whose state root no execution reproduces.
// Around it: the same block proposed by another validator (failover), a
// third validator's votes for both blocks, a vote for the committed
// genesis and one for a block nobody proposed.
type heightOne struct {
	tx      *ledger.Transaction
	sp      *consensus.SignedProposal
	vote    consensus.Vote
	blk     *ledger.Block
	wrongSp *consensus.SignedProposal

	failoverSp  *consensus.SignedProposal
	failover    [2]consensus.Vote
	staleVote   consensus.Vote
	unknownVote consensus.Vote
}

func newHeightOne(t testing.TB) heightOne {
	twin := newCluster(t, 3)
	tx := datasetTx(t, userKey(t, "fuzz"), 0, "seed")
	if err := twin.Submit(tx); err != nil {
		t.Fatal(err)
	}
	waitMempools(t, twin, 1)
	wrong := wrongRootBlock(t, twin, twin.Node(0))
	wrongSp, err := consensus.SignProposal(wrong, twin.keys[0])
	if err != nil {
		t.Fatal(err)
	}
	blk := submitAndCommit(t, twin, tx)
	var proposer int
	for i, k := range twin.keys {
		if k.Address() == blk.Header.Proposer {
			proposer = i
		}
	}
	sp, err := consensus.SignProposal(blk, twin.keys[proposer])
	if err != nil {
		t.Fatal(err)
	}
	sign := func(height uint64, hash cryptoutil.Digest, key *cryptoutil.KeyPair) consensus.Vote {
		v, err := consensus.SignVote(height, hash, key)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	other, voter := twin.keys[(proposer+1)%3], twin.keys[(proposer+2)%3]
	failBlk := &ledger.Block{Header: blk.Header, Txs: blk.Txs}
	failBlk.Header.Proposer = other.Address()
	failoverSp, err := consensus.SignProposal(failBlk, other)
	if err != nil {
		t.Fatal(err)
	}
	return heightOne{
		tx: tx, sp: sp, vote: sign(blk.Header.Height, blk.Hash(), other), blk: blk, wrongSp: wrongSp,
		failoverSp:  failoverSp,
		failover:    [2]consensus.Vote{sign(1, blk.Hash(), voter), sign(1, failBlk.Hash(), voter)},
		staleVote:   sign(0, twin.Node(0).Chain().Genesis().Hash(), voter),
		unknownVote: sign(1, cryptoutil.Sum([]byte("no such proposal")), voter),
	}
}

// FuzzHandle feeds arbitrary payloads under every topic through a
// running node's ingress. Nothing may panic, and a payload its topic's
// decoder refuses — any spelling but the canonical one — is scored
// against the sender as malformed, once, and changes neither the node's
// height nor its pool. The seeds are one valid encoding per topic —
// heightOne's traffic — plus its indented and reordered twins, which
// encoding/json reads as the same values; first, while height 1 is
// open, both proposals of the failover and the votes around them.
func FuzzHandle(f *testing.F) {
	h := newHeightOne(f)
	encode := func(b []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(uint8(1), encode(h.wrongSp.Encode()))
	f.Add(uint8(3), encode(h.wrongSp.Block.Encode()))
	f.Add(uint8(1), encode(h.failoverSp.Encode()))
	f.Add(uint8(1), encode(h.sp.Encode()))
	for _, v := range []consensus.Vote{h.staleVote, h.unknownVote, h.failover[0], h.failover[1]} {
		f.Add(uint8(2), v.Encode())
	}
	for i, seed := range [][]byte{
		encode(h.tx.Encode()), encode(h.sp.Encode()), h.vote.Encode(),
		encode(h.blk.Encode()), encode(json.Marshal(uint64(0))), encode(json.Marshal(h.blk.Header.Height + 3)),
	} {
		if !ingressTopics[i].decodes(seed) {
			f.Fatalf("seed for %s does not decode", ingressTopics[i].topic)
		}
		f.Add(uint8(i), seed)
		f.Add(uint8(i), canontest.Indented(seed))
		f.Add(uint8(i), canontest.Reordered(seed))
	}

	// An hour passes between two messages, so the sender's score has
	// decayed and it is never quarantined when the next one arrives.
	var clockMu sync.Mutex
	now := time.Unix(0, 0)
	c, err := NewCluster(ClusterConfig{Nodes: 3, KeySeed: "test-quorum-3", Guard: &guard.Config{Clock: func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	n := c.Node(1)
	const sender = "fuzzer"
	malformed := func() int { return offensesOf(n.GuardStats(), sender)[guard.OffenseMalformed] }

	f.Fuzz(func(t *testing.T, topic uint8, payload []byte) {
		in := ingressTopics[int(topic)%len(ingressTopics)]
		clockMu.Lock()
		now = now.Add(time.Hour)
		clockMu.Unlock()
		height, pooled, scored := n.Height(), n.MempoolSize(), malformed()
		ingest(n, p2p.Message{From: sender, To: n.ID(), Topic: in.topic, Payload: payload})
		if in.decodes(payload) {
			return
		}
		if got := malformed(); got != scored+1 {
			t.Fatalf("%s: undecodable payload %q scored %d malformed offenses against its sender", in.topic, payload, got-scored)
		}
		if n.Height() != height || n.MempoolSize() != pooled {
			t.Fatalf("%s: undecodable payload %q moved the node: height %d -> %d, pool %d -> %d",
				in.topic, payload, height, n.Height(), pooled, n.MempoolSize())
		}
	})
}
