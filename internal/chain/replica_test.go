package chain

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// replicaNet is four replicas joined by one message queue: no node, no
// loop, no goroutine, no network and no host clock.
type replicaNet struct {
	t     *testing.T
	ids   []p2p.NodeID
	reps  map[p2p.NodeID]*replica
	queue []p2p.Message
	now   time.Time
}

func newReplicaNet(t *testing.T, size int) *replicaNet {
	t.Helper()
	keys := make([]*cryptoutil.KeyPair, size)
	for i := range keys {
		keys[i] = userKey(t, fmt.Sprintf("replica-net/node-%d", i))
	}
	vals, err := consensus.NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	rn := &replicaNet{t: t, reps: make(map[p2p.NodeID]*replica), now: time.Unix(1000, 0)}
	round := &liveRound{}
	for i, key := range keys {
		id := p2p.NodeID(fmt.Sprintf("node-%d", i))
		rn.ids = append(rn.ids, id)
		clock := func() time.Time { return rn.now }
		r := newReplica(key, "replica-net", consensus.NewQuorum(vals), NewMempool(MempoolConfig{}), guard.New(guard.Config{Clock: clock}), round)
		r.send = func(to p2p.NodeID, topic string, body []byte) {
			for _, dst := range rn.ids {
				if dst != id && (to == "" || to == dst) {
					rn.queue = append(rn.queue, p2p.Message{From: id, To: dst, Topic: topic, Payload: body})
				}
			}
		}
		r.submit = func(tx *ledger.Transaction) error {
			return r.pool.Add(tx, ClassOf(tx.Type), r.chain.NextNonce(tx.From), r.chain.Height())
		}
		r.publish = func(*view) {}
		rn.reps[id] = r
	}
	return rn
}

// at returns the replica k places after height's scheduled proposer.
func (rn *replicaNet) at(height uint64, k int) *replica {
	addr := rn.reps[rn.ids[0]].quorum.Validators().ProposerFor(height).Addr
	for i, id := range rn.ids {
		if rn.reps[id].key.Address() == addr {
			return rn.reps[rn.ids[(i+k)%len(rn.ids)]]
		}
	}
	rn.t.Fatal("no replica holds the scheduled proposer's key")
	return nil
}

// pool gossips tx into every replica's pool.
func (rn *replicaNet) pool(tx *ledger.Transaction) {
	for _, id := range rn.ids {
		if err := rn.reps[id].submit(tx); err != nil {
			rn.t.Fatal(err)
		}
	}
}

// take removes and returns everything queued.
func (rn *replicaNet) take() []p2p.Message {
	msgs := rn.queue
	rn.queue = nil
	return msgs
}

// drain delivers msgs and everything they cause, in order, until the
// queue is empty.
func (rn *replicaNet) drain(msgs []p2p.Message) {
	rn.queue = append(msgs, rn.queue...)
	for len(rn.queue) > 0 {
		msg := rn.queue[0]
		rn.queue = rn.queue[1:]
		rn.reps[msg.To].step(msg, rn.now)
	}
}

type roundEnd struct {
	blk *ledger.Block
	err error
}

// propose has r propose the next block; the returned end fills in when
// its round ends.
func (rn *replicaNet) propose(r *replica) *roundEnd {
	end := &roundEnd{err: errors.New("the round has not ended")}
	r.propose(0, func(blk *ledger.Block, err error) { end.blk, end.err = blk, err })
	return end
}

// agree fails the test unless every replica is at height on one head
// and one state root.
func (rn *replicaNet) agree(height uint64) {
	rn.t.Helper()
	first := rn.reps[rn.ids[0]]
	for _, id := range rn.ids {
		r := rn.reps[id]
		if r.chain.Height() != height || r.chain.Head().Hash() != first.chain.Head().Hash() || r.state.Root() != first.state.Root() {
			rn.t.Fatalf("%s at height %d on %s, %s at height %d on %s", id, r.chain.Height(), r.chain.Head().Hash().Short(),
				rn.ids[0], first.chain.Height(), first.chain.Head().Hash().Short())
		}
	}
}

// TestReplicasCommitAndFailOverFromOneQueue drives four replicas from
// one queue. A commit: the scheduled proposer's block commits on every
// replica's own certificate. A failover: the next height's scheduled
// proposer proposes, its messages are held, and the next candidate
// opens its own round and proposes; the held proposal then arrives and
// every replica votes for it too — the per-(height, proposer) lock
// allows it — until the followers hold a certificate's votes for it,
// yet it commits nowhere, because its round closed. The failover block
// commits everywhere, and the first proposer's round ends in
// ErrNoQuorum.
func TestReplicasCommitAndFailOverFromOneQueue(t *testing.T) {
	rn := newReplicaNet(t, 4)
	user := userKey(t, "replica-net-user")

	rn.pool(datasetTx(t, user, 0, "rn-0"))
	p := rn.at(1, 0)
	first := rn.propose(p)
	rn.drain(rn.take())
	if first.err != nil || first.blk == nil || first.blk.Header.Height != 1 || len(first.blk.Txs) != 1 {
		t.Fatalf("first round: block %v, err %v", first.blk, first.err)
	}
	rn.agree(1)

	rn.pool(datasetTx(t, user, 1, "rn-1"))
	late, failover := rn.at(2, 0), rn.at(2, 1)
	lateEnd := rn.propose(late)
	held := rn.take()
	failoverEnd := rn.propose(failover)
	failoverMsgs := rn.take()
	lateHash := late.lastProposal.Block.Hash()

	rn.drain(held)
	threshold := p.quorum.Validators().QuorumThreshold()
	for _, id := range rn.ids {
		r := rn.reps[id]
		if r.chain.Height() != 1 {
			t.Fatalf("%s committed the late proposal", id)
		}
		if r != late && r.voteCount(lateHash) < threshold {
			t.Fatalf("%s holds %d votes for the late block, want a certificate's %d", id, r.voteCount(lateHash), threshold)
		}
	}
	rn.drain(failoverMsgs)
	rn.agree(2)
	if failoverEnd.err != nil || failoverEnd.blk.Header.Proposer != failover.key.Address() {
		t.Fatalf("failover round: block %v, err %v", failoverEnd.blk, failoverEnd.err)
	}
	if head := p.chain.Head(); head.Hash() != failoverEnd.blk.Hash() {
		t.Fatalf("height 2 holds %s, the failover block is %s", head.Hash().Short(), failoverEnd.blk.Hash().Short())
	}
	if !errors.Is(lateEnd.err, ErrNoQuorum) || lateEnd.blk != nil {
		t.Fatalf("late round: block %v, err %v; want ErrNoQuorum", lateEnd.blk, lateEnd.err)
	}
	for _, id := range rn.ids {
		if r := rn.reps[id]; r.pending != nil || len(r.proposing) != 0 || r.exec.Stats().Blocks != 2 {
			t.Fatalf("%s: pending %v, %d rounds waiting, %d blocks executed", id, r.pending, len(r.proposing), r.exec.Stats().Blocks)
		}
	}
}
