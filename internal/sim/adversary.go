package sim

import (
	"fmt"
	"math/rand"
	"time"

	"medchain/internal/chain"
	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
)

// Behavior names one seeded Byzantine strategy the adversary can run.
type Behavior string

// Adversary behaviors. Each is individually detectable by the peer
// guard, so a run with any non-empty behavior set must end with the
// adversary quarantined by every honest node.
const (
	// BehaviorEquivocate double-signs with the stolen validator key:
	// two conflicting proposals or two conflicting votes at one height.
	// Honest nodes must package each conflict as on-chain evidence.
	BehaviorEquivocate Behavior = "equivocate"
	// BehaviorForgeVotes sends votes with forged signatures claiming to
	// come from honest validators, plus validly signed window spam from
	// the stolen key (the buffer-pressure half of the attack).
	BehaviorForgeVotes Behavior = "forge-votes"
	// BehaviorGarbage gossips undecodable payloads on every topic.
	BehaviorGarbage Behavior = "garbage"
	// BehaviorSyncFlood hammers honest nodes with sync requests far
	// beyond the token-bucket rate.
	BehaviorSyncFlood Behavior = "sync-flood"
	// BehaviorWrongRoot proposes, validly signed with the stolen key, the
	// next block on the canonical head with a state root no execution
	// reproduces. Honest nodes execute a proposal before signing for it,
	// so none may vote.
	BehaviorWrongRoot Behavior = "wrong-root"
)

// AllBehaviors returns every adversary behavior.
func AllBehaviors() []Behavior {
	return []Behavior{BehaviorEquivocate, BehaviorForgeVotes, BehaviorGarbage, BehaviorSyncFlood, BehaviorWrongRoot}
}

// AdversaryConfig arms one Byzantine node in the simulation: the last
// cluster node is stopped and its validator key handed to an
// adversarial endpoint that speaks the wire protocol directly — the
// compromised-hospital-site insider of the paper's threat model.
type AdversaryConfig struct {
	// Behaviors is the enabled strategy set (default: all).
	Behaviors []Behavior
	// Minimize shrinks the adversary schedule (behavior set, then
	// rounds) on a violation by re-running the simulation; see
	// MinimizeAdversary. Off by default — each probe is a full run.
	Minimize bool
}

func (a *AdversaryConfig) withDefaults() *AdversaryConfig {
	out := *a
	if len(out.Behaviors) == 0 {
		out.Behaviors = AllBehaviors()
	}
	return &out
}

// AdversaryQuarantineBound is the invariant's latency budget: on a
// loss-free run, every honest node must have the adversary quarantined
// within this many committed blocks of its first offense.
const AdversaryQuarantineBound = 12

// adversaryVoteWindow mirrors the chain layer's ingress vote window
// (heights committed+1..committed+window are buffered); the spam
// behavior targets exactly this range and the buffer-bound invariant
// is derived from it.
const adversaryVoteWindow = 4

// advSink is the minimal checker surface the adversary (and the other
// pluggable drivers) reports through — both the flat harness's checker
// and the sharded harness's per-shard checker implement it.
type advSink interface {
	violationf(format string, args ...any)
	failed() bool
	blockCount() int
}

// adversaryParams aim an adversary at one cluster — the flat harness
// targets its only cluster, the sharded harness one member shard.
type adversaryParams struct {
	// KeySeed is the target cluster's key seed (node keys are derived as
	// KeySeed+"/node-<i>"); Index is the victim node.
	KeySeed string
	Index   int
	// Nodes is the cluster size; Rounds the run length (reporting only).
	Nodes  int
	Rounds int
	// Seed feeds the behavior schedule; Strict marks a loss-free run.
	Seed   int64
	Strict bool
	Config *AdversaryConfig
}

// adversary drives the Byzantine node: it owns the stolen key, a raw
// network endpoint under the victim's peer ID, and the seeded behavior
// schedule. It is omniscient by construction — it reads honest chain
// state directly instead of maintaining a replica, which is the
// strongest (worst-case) adversary the harness can model.
type adversary struct {
	p    adversaryParams
	acfg *AdversaryConfig
	idx  int
	id   p2p.NodeID
	key  *cryptoutil.KeyPair
	ep   p2p.Endpoint
	rng  *rand.Rand

	// strict marks a loss-free run, where every delivered equivocation
	// must surface as on-chain evidence and the quarantine latency
	// bound holds exactly.
	strict bool

	honest []int // honest node indices

	turns              int // behaviors played so far (offense emitted or not)
	actions            int
	offensesByBehavior map[Behavior]int
	expected           map[string]expectedEvidence // strict-mode evidence ledger
	wrongRoots         map[cryptoutil.Digest]bool  // hashes of the wrong-root blocks proposed
	firstOffenseBlock  int                         // ck.blocks at first offense (-1: none yet)
	quarantineBlocks   int                         // blocks to all-honest quarantine (-1: never)
	laidLow            int                         // rounds spent muted by quarantine
	retired            bool
}

type expectedEvidence struct {
	kind   consensus.EvidenceKind
	height uint64
}

// newAdversary arms the flat harness's adversary: the last cluster
// node is the victim.
func newAdversary(cfg Config, c *chain.Cluster) (*adversary, error) {
	return newAdversaryAt(c, adversaryParams{
		KeySeed: fmt.Sprintf("sim-%d", cfg.Seed),
		Index:   cfg.Nodes - 1,
		Nodes:   cfg.Nodes,
		Rounds:  cfg.Rounds,
		Seed:    subSeed(cfg.Seed, "adversary"),
		Strict:  cfg.NoFaults,
		Config:  cfg.Adversary,
	})
}

// newAdversaryAt stops the victim node of the target cluster and takes
// over its network identity and validator key.
func newAdversaryAt(c *chain.Cluster, p adversaryParams) (*adversary, error) {
	idx := p.Index
	key, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("%s/node-%d", p.KeySeed, idx))
	if err != nil {
		return nil, err
	}
	if key.Address() != c.Node(idx).Address() {
		return nil, fmt.Errorf("sim: adversary key does not match node-%d", idx)
	}
	c.StopNode(idx)
	ep, err := c.Network().Join(p2p.NodeID(fmt.Sprintf("node-%d", idx)))
	if err != nil {
		return nil, fmt.Errorf("sim: adversary join: %w", err)
	}
	a := &adversary{
		p:                  p,
		acfg:               p.Config.withDefaults(),
		idx:                idx,
		id:                 ep.ID(),
		key:                key,
		ep:                 ep,
		rng:                rand.New(rand.NewSource(p.Seed)),
		strict:             p.Strict,
		offensesByBehavior: make(map[Behavior]int),
		expected:           make(map[string]expectedEvidence),
		wrongRoots:         make(map[cryptoutil.Digest]bool),
		firstOffenseBlock:  -1,
		quarantineBlocks:   -1,
	}
	for i := 0; i < idx; i++ {
		a.honest = append(a.honest, i)
	}
	return a, nil
}

// guardConfig is the tuning adversarial runs apply to every honest
// node: a short decay half-life so quarantine release — and renewed
// offending — happens within one bounded run instead of only in
// multi-minute soaks.
func adversaryGuardConfig() *guard.Config {
	return &guard.Config{DecayHalfLife: 500 * time.Millisecond}
}

// runningHonest returns the honest node indices whose loops are alive.
func (a *adversary) runningHonest(c *chain.Cluster) []int {
	var out []int
	for _, i := range a.honest {
		if c.Node(i).Running() {
			out = append(out, i)
		}
	}
	return out
}

// refNode returns the most advanced running honest node — the
// adversary's (omniscient) view of the canonical chain.
func (a *adversary) refNode(c *chain.Cluster) *chain.Node {
	var ref *chain.Node
	for _, i := range a.runningHonest(c) {
		if n := c.Node(i); ref == nil || n.Height() > ref.Height() {
			ref = n
		}
	}
	return ref
}

// advance runs one adversary round: police the honest-vs-honest
// invariants, track quarantine latency, and — unless currently
// quarantined — fire one seeded behavior.
func (a *adversary) advance(ck advSink, c *chain.Cluster, round int) {
	a.checkHonest(ck, c)
	a.checkInbox(ck)
	if ck.failed() {
		return
	}

	running := a.runningHonest(c)
	if len(running) == 0 {
		return
	}
	quarantinedBy := 0
	for _, i := range running {
		if c.Node(i).Guard().Quarantined(string(a.id)) {
			quarantinedBy++
		}
	}
	if a.firstOffenseBlock >= 0 && a.quarantineBlocks < 0 && quarantinedBy == len(running) {
		a.quarantineBlocks = ck.blockCount() - a.firstOffenseBlock
	}
	if quarantinedBy > 0 {
		// Muted somewhere: lay low until decay releases the quarantine
		// everywhere. This keeps the strict evidence ledger sound (an
		// equivocation is only expected on-chain when every honest node
		// could ingest it) and models an adversary probing the release
		// threshold.
		a.laidLow++
		return
	}

	ref := a.refNode(c)
	if ref == nil {
		return
	}
	// Each configured behavior plays once, in order, before the seeded
	// draw takes over: quarantine decays on the wall clock, so a faster
	// chain leaves a bounded run fewer turns, and draws alone can then
	// leave a behavior unexercised.
	pick := a.rng.Intn(len(a.acfg.Behaviors))
	if a.turns < len(a.acfg.Behaviors) {
		pick = a.turns
	}
	a.turns++
	switch b := a.acfg.Behaviors[pick]; b {
	case BehaviorEquivocate:
		a.equivocate(ck, ref)
	case BehaviorForgeVotes:
		a.forgeVotes(ck, ref)
	case BehaviorGarbage:
		a.garbage(ck)
	case BehaviorSyncFlood:
		a.syncFlood(ck, c, running)
	case BehaviorWrongRoot:
		a.wrongRoot(ck, ref)
	}
}

// noteOffense records that a scoreable offense was just emitted.
func (a *adversary) noteOffense(ck advSink, b Behavior) {
	a.actions++
	a.offensesByBehavior[b]++
	if a.firstOffenseBlock < 0 {
		a.firstOffenseBlock = ck.blockCount()
	}
}

// equivocate double-signs at the next height with the stolen key —
// alternating between conflicting proposals and conflicting votes —
// and, on strict runs, records the evidence every honest node now owes
// the audit contract. A vote lock is per (height, proposer), so a
// double vote is provable only for two blocks of one proposer whose
// signed proposals the judging node holds when the second vote
// arrives, and the second proposal quarantines its sender at once: the
// vote branch votes for both of its own fork proposals, the second vote
// before the second proposal, and owes the audit contract the double
// proposal only — a vote for a block a node holds no proposal of is
// buffered, never judged. Payload hashes derive from the height alone
// so a repeat at an uncommitted height is idempotent.
func (a *adversary) equivocate(ck advSink, ref *chain.Node) {
	head := ref.Chain().Head()
	height := head.Header.Height + 1
	var forks [2][]byte
	var hashes [2]cryptoutil.Digest
	for i, salt := range []string{"a", "b"} {
		body, hash, ok := a.proposal(head, fmt.Sprintf("fork-%s-%d", salt, height))
		if !ok {
			return
		}
		forks[i], hashes[i] = body, hash
	}
	if a.rng.Intn(2) == 0 {
		for _, body := range forks {
			if a.ep.BroadcastMsg("chain/proposal", body) != nil {
				return
			}
		}
		a.noteOffense(ck, BehaviorEquivocate)
		if a.strict {
			a.expectEvidence(consensus.EvidenceDoubleProposal, height)
		}
		return
	}
	var votes [2][]byte
	for i, hash := range hashes {
		v, err := consensus.SignVote(height, hash, a.key)
		if err != nil {
			return
		}
		votes[i] = v.Encode()
	}
	for _, m := range []struct {
		topic string
		body  []byte
	}{{"chain/proposal", forks[0]}, {"chain/vote", votes[0]}, {"chain/vote", votes[1]}, {"chain/proposal", forks[1]}} {
		if a.ep.BroadcastMsg(m.topic, m.body) != nil {
			return
		}
	}
	a.noteOffense(ck, BehaviorEquivocate)
	if a.strict {
		a.expectEvidence(consensus.EvidenceDoubleProposal, height)
	}
}

// proposal signs, with the stolen key, an empty block on head whose
// state root is the digest of rootSeed — nobody's post-state — and
// returns its wire encoding and hash.
func (a *adversary) proposal(head *ledger.Block, rootSeed string) ([]byte, cryptoutil.Digest, bool) {
	txRoot, err := ledger.ComputeTxRoot(nil)
	if err != nil {
		return nil, cryptoutil.Digest{}, false
	}
	blk := &ledger.Block{Header: ledger.Header{
		Height: head.Header.Height + 1, Parent: head.Hash(), TxRoot: txRoot,
		StateRoot: cryptoutil.Sum([]byte(rootSeed)),
		Timestamp: head.Header.Timestamp + 1,
		Proposer:  a.key.Address(),
	}}
	sp, err := consensus.SignProposal(blk, a.key)
	if err != nil {
		return nil, cryptoutil.Digest{}, false
	}
	body, err := sp.Encode()
	return body, blk.Hash(), err == nil
}

func (a *adversary) expectEvidence(kind consensus.EvidenceKind, height uint64) {
	key := fmt.Sprintf("%s/%d", kind, height)
	a.expected[key] = expectedEvidence{kind: kind, height: height}
}

// forgeVotes sends signature-forged votes claiming to come from honest
// validators (scored invalid-vote at ingest) plus validly signed spam
// from the stolen key across the whole ingress window (buffer
// pressure; legal, so unscored). Forged hashes derive from (height,
// voter) so re-sends never self-equivocate.
func (a *adversary) forgeVotes(ck advSink, ref *chain.Node) {
	committed := ref.Height()
	var sig cryptoutil.Signature
	a.rng.Read(sig[:])
	for i := range a.honest {
		v := consensus.Vote{
			Height: committed + 1,
			Block:  cryptoutil.Sum([]byte(fmt.Sprintf("forged-%d-%d", committed+1, i))),
			Voter:  a.honestAddr(i),
			Sig:    sig,
		}
		_ = a.ep.BroadcastMsg("chain/vote", v.Encode())
	}
	for h := committed + 1; h <= committed+adversaryVoteWindow; h++ {
		v, err := consensus.SignVote(h, cryptoutil.Sum([]byte(fmt.Sprintf("spam-%d", h))), a.key)
		if err != nil {
			continue
		}
		_ = a.ep.BroadcastMsg("chain/vote", v.Encode())
	}
	a.noteOffense(ck, BehaviorForgeVotes)
}

// honestAddr re-derives honest validator i's address from the cluster
// key schedule (the adversary knows the membership roster, as any
// validator does).
func (a *adversary) honestAddr(i int) cryptoutil.Address {
	kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("%s/node-%d", a.p.KeySeed, a.honest[i]))
	if err != nil {
		return cryptoutil.Address{}
	}
	return kp.Address()
}

// garbage broadcasts undecodable payloads on every wire topic.
func (a *adversary) garbage(ck advSink) {
	junk := make([]byte, 16)
	a.rng.Read(junk)
	for _, topic := range []string{
		"chain/tx", "chain/proposal", "chain/vote", "chain/block", "chain/sync_req", "chain/sync_cont",
	} {
		_ = a.ep.BroadcastMsg(topic, junk)
	}
	a.noteOffense(ck, BehaviorGarbage)
}

// syncFlood fires a request burst past the token bucket at every
// running honest node — each one must score and eventually quarantine
// the flooder on its own, so the burst cannot skip anyone.
func (a *adversary) syncFlood(ck advSink, c *chain.Cluster, running []int) {
	for _, i := range running {
		target := c.Node(i).ID()
		for j := 0; j < 12; j++ {
			_ = a.ep.Send(target, "chain/sync_req", []byte("0"))
		}
	}
	a.noteOffense(ck, BehaviorSyncFlood)
}

// wrongRoot proposes, three times over, an empty block at the next
// height whose state root derives from the height alone (so a repeat is
// the same block, not an equivocation). A burst, because every copy
// costs each honest node an execution and is scored, so quarantine does
// not hinge on rounds outrunning the guard's wall-clock decay.
func (a *adversary) wrongRoot(ck advSink, ref *chain.Node) {
	head := ref.Chain().Head()
	body, hash, ok := a.proposal(head, fmt.Sprintf("wrong-root-%d", head.Header.Height+1))
	if !ok {
		return
	}
	a.wrongRoots[hash] = true
	for i := 0; i < 3; i++ {
		if a.ep.BroadcastMsg("chain/proposal", body) != nil {
			return
		}
	}
	a.noteOffense(ck, BehaviorWrongRoot)
}

// checkInbox empties the adversary's inbox — it sits on the broadcast
// path of every honest message — and fails the run on a vote for one of
// its wrong-root proposals: whoever signed it did not execute the block.
func (a *adversary) checkInbox(ck advSink) {
	for {
		select {
		case msg, ok := <-a.ep.Inbox():
			if !ok {
				return
			}
			if msg.Topic != "chain/vote" {
				continue
			}
			if v, err := consensus.DecodeVote(msg.Payload); err == nil && a.wrongRoots[v.Block] {
				ck.violationf("wrong-root: %s voted for block %s at height %d, whose state root no execution reproduces",
					msg.From, v.Block.Short(), v.Height)
			}
		default:
			return
		}
	}
}

// checkHonest polices the honest-side invariants every round: no
// honest node may quarantine another honest node, and every honest
// node's consensus buffers stay bounded regardless of spam volume.
func (a *adversary) checkHonest(ck advSink, c *chain.Cluster) {
	// votes + first-vote records + first-proposal records, per window
	// height, per validator.
	bound := adversaryVoteWindow * a.p.Nodes * 3
	for _, i := range a.runningHonest(c) {
		n := c.Node(i)
		for _, j := range a.honest {
			if i == j {
				continue
			}
			if n.Guard().Quarantined(fmt.Sprintf("node-%d", j)) {
				ck.violationf("guard: honest %s quarantined honest node-%d", n.ID(), j)
				return
			}
		}
		if got := n.VoteBufferSize(); got > bound {
			ck.violationf("guard: %s vote buffers grew to %d entries under spam (bound %d)", n.ID(), got, bound)
			return
		}
	}
}

// offenseOf is the guard offense an honest node scores each behavior
// under.
var offenseOf = map[Behavior]guard.Offense{
	BehaviorEquivocate: guard.OffenseEquivocation,
	BehaviorForgeVotes: guard.OffenseInvalidVote,
	BehaviorGarbage:    guard.OffenseMalformed,
	BehaviorSyncFlood:  guard.OffenseSyncFlood,
	BehaviorWrongRoot:  guard.OffenseBadProposal,
}

// checkScored holds a loss-free run to the guard's per-behavior
// accounting: a behavior plays only while no honest node quarantines
// the adversary, so every honest node ingested it and must have scored
// its offense — quarantine by one behavior must not hide another that
// went unscored.
func (a *adversary) checkScored(ck advSink, c *chain.Cluster) {
	for _, b := range a.acfg.Behaviors {
		if a.offensesByBehavior[b] == 0 {
			continue
		}
		for _, i := range a.runningHonest(c) {
			scored := 0
			for _, p := range c.Node(i).GuardStats().Peers {
				if p.Peer == string(a.id) {
					scored = p.Offenses[offenseOf[b]]
				}
			}
			if scored == 0 {
				ck.violationf("guard: node-%d never scored a %s offense for the adversary's %d %s actions",
					i, offenseOf[b], a.offensesByBehavior[b], b)
				return
			}
		}
	}
}

// retire ends the adversarial phase before the drain: the Byzantine
// endpoint leaves the network and the honest node is restarted under
// its old identity — it must re-sync and converge even though peers
// still hold its ID in (decaying) quarantine.
func (a *adversary) retire(ck advSink, c *chain.Cluster) {
	if a.retired {
		return
	}
	a.retired = true
	a.checkInbox(ck)
	_ = a.ep.Close()
	if err := c.RestartNode(a.idx); err != nil {
		ck.violationf("adversary: honest node-%d failed to rejoin after the Byzantine phase: %v", a.idx, err)
	}
}

// finish evaluates the whole-run adversarial invariants against the
// drained chain: the adversary must have acted and been quarantined
// (within the latency bound on strict runs), every strict-mode
// equivocation must be on chain as verified evidence, and no evidence
// record may frame an honest validator.
func (a *adversary) finish(ck *checker, c *chain.Cluster) {
	a.checkHonest(ck, c)
	if a.actions == 0 {
		ck.violationf("adversary: no Byzantine action fired in %d rounds", a.p.Rounds)
		return
	}
	if a.strict {
		if a.quarantineBlocks < 0 {
			ck.violationf("adversary: node-%d committed %d offenses but was never quarantined by every honest node",
				a.idx, a.actions)
			return
		}
		if a.quarantineBlocks > AdversaryQuarantineBound {
			ck.violationf("adversary: quarantine took %d blocks from first offense, bound is %d",
				a.quarantineBlocks, AdversaryQuarantineBound)
		}
		a.checkScored(ck, c)
	} else if a.quarantineBlocks < 0 && a.laidLow == 0 {
		// Under injected faults a node can be crashed through an offense
		// burst, so simultaneous all-honest quarantine is timing-dependent
		// — but the adversary must at least have been caught and muted by
		// someone.
		ck.violationf("adversary: node-%d committed %d offenses and was never quarantined by any honest node",
			a.idx, a.actions)
		return
	}
	for _, exp := range a.expected {
		if !ck.shadow.HasEvidence(string(exp.kind), exp.height, a.key.Address()) {
			ck.violationf("evidence: %s at height %d by node-%d never reached the audit contract",
				exp.kind, exp.height, a.idx)
		}
	}
	for _, rec := range ck.shadow.EvidenceRecords() {
		if rec.Offender != a.key.Address() {
			ck.violationf("evidence: record %s/%d frames %s, who is not the adversary",
				rec.Kind, rec.Height, rec.Offender.Short())
		}
	}
}
