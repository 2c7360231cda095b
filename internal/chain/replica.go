package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/guard"
	"medchain/internal/ledger"
	"medchain/internal/p2p"
	"medchain/internal/parexec"
	"medchain/internal/store"
)

// replica is a node's replicated state machine: the ledger, the contract
// state and everything the commit round keeps. It has one owner at a
// time — the node's loop while the node runs, the caller of NewNode,
// Stop or Restart while it does not — so it holds no lock. It starts no
// goroutine, reads no clock (time arrives as an argument) and does no
// network I/O: messages leave through send, and each commit reaches
// readers through publish.
type replica struct {
	key    *cryptoutil.KeyPair
	quorum *consensus.Quorum
	pool   *Mempool
	guard  *guard.Guard
	round  *liveRound

	// send hands a message to one peer, or to every peer when to is "";
	// nil while the node is stopped. submit pools a transaction this node
	// signed (evidence reports). publish makes a view current.
	send    func(to p2p.NodeID, topic string, body []byte)
	submit  func(*ledger.Transaction) error
	publish func(*view)

	chain      *ledger.Chain
	state      *contract.State
	receipts   *receiptIndex
	receiptLog []*contract.Receipt // every committed receipt in chain order, the snapshot's receipt log
	gasUsed    int64               // cumulative gas this node burned executing contracts
	exec       *parexec.Engine     // block executor; replaced whole by SetExec

	// Consensus buffers: verified votes per block, this node's vote lock
	// per (height, proposer), first votes per height (equivocation
	// detection), reported evidence, and the cached signed proposal (an
	// honest proposer never signs two blocks at one height).
	votes   map[cryptoutil.Digest]*voteSet
	votedAt map[uint64]map[cryptoutil.Address]*ledger.Block
	// proposalSeen holds, per height and block hash, the signed headers
	// of verified proposals: each proposer's first, and the conflicting
	// second of a double proposal. A vote is judged against the proposer
	// its block's header names.
	proposalSeen map[uint64]map[cryptoutil.Digest]consensus.SignedHeader
	voteSeen     map[uint64]map[voteSlot]consensus.Vote
	evidenceSeen map[string]bool
	lastProposal *consensus.SignedProposal
	pending      *pendingBlock  // this node's execution of the block it last built or was proposed
	proposing    []*proposeWait // this node's proposals waiting for their round

	auditNonceNext uint64 // next nonce of a self-submitted audit transaction

	// The sync client: the height we had at each peer's last sync
	// continuation (re-request only on progress, which bounds
	// amplification), and the request pacing (so a lagging honest node
	// does not look like a sync-flooder to its peers).
	syncProg       map[p2p.NodeID]uint64
	lastSyncHeight uint64
	lastSyncTime   time.Time

	// st is the durable storage engine: nil for memory-only nodes and
	// while a disk-backed node is crashed.
	st          *store.Store
	recovery    *store.Recovered
	persistErrs int64
}

// proposeWait is a block this node proposed, waiting for its round to
// end: done hears once, with the block as committed here, or with
// ErrNoQuorum when another block commits at its height, the round times
// out or the node stops.
type proposeWait struct {
	height uint64
	hash   cryptoutil.Digest
	done   func(*ledger.Block, error)
}

func newReplica(key *cryptoutil.KeyPair, chainID string, quorum *consensus.Quorum, pool *Mempool, g *guard.Guard, round *liveRound) *replica {
	return &replica{
		key: key, quorum: quorum, pool: pool, guard: g, round: round,
		chain:        ledger.NewChain(chainID),
		state:        contract.NewState(),
		receipts:     newReceiptIndex(nil),
		exec:         parexec.NewEngine(parexec.Config{}),
		votes:        make(map[cryptoutil.Digest]*voteSet),
		votedAt:      make(map[uint64]map[cryptoutil.Address]*ledger.Block),
		proposalSeen: make(map[uint64]map[cryptoutil.Digest]consensus.SignedHeader),
		voteSeen:     make(map[uint64]map[voteSlot]consensus.Vote),
		evidenceSeen: make(map[string]bool),
		syncProg:     make(map[p2p.NodeID]uint64),
	}
}

// publishView hands readers the committed state as it is now.
func (r *replica) publishView() {
	r.publish(&view{
		height: r.chain.Height(), chain: r.chain, state: r.state, receipts: r.receipts,
		gasUsed: r.gasUsed, persistErrs: r.persistErrs, recovery: r.recovery,
	})
}

// step is the consensus side of ingress, for a message that passed the
// node's quarantine check: proposals, votes, blocks and sync
// continuations. now paces gap-triggered sync requests.
func (r *replica) step(msg p2p.Message, now time.Time) {
	switch msg.Topic {
	case topicProposal:
		r.onProposal(msg)
	case topicVote:
		r.onVote(msg)
	case topicBlock:
		blk, err := ledger.DecodeBlock(msg.Payload)
		if err != nil {
			r.guard.Record(string(msg.From), guard.OffenseMalformed)
			return
		}
		if blk.Header.Height > r.chain.Height()+1 {
			// We fell behind (partition, restart): ask the sender for
			// the gap. The fresh block will be re-delivered by the
			// sync response.
			r.requestSyncPaced(msg.From, now)
			return
		}
		// A certificate failure (an undecodable or mismatched
		// certificate, a non-validator proposer, fewer than 2f+1 valid
		// votes) is attributable misbehavior. Ledger validation failures
		// (wrong parent, stale height) can be honest divergence during
		// catch-up and are not scored.
		if err := r.acceptBlock(blk); errors.Is(err, consensus.ErrBadSeal) ||
			errors.Is(err, consensus.ErrNotValidator) || errors.Is(err, consensus.ErrQuorumTooSmall) {
			r.guard.Record(string(msg.From), guard.OffenseInvalidSeal)
		}
	case topicSyncCont:
		r.onSyncCont(msg)
	}
}

// onProposal ingests a signed block proposal: the proposer must be a
// current validator and the proposal signature must verify before the
// block body is even validated. Conflicting proposals at one height are
// packaged as on-chain equivocation evidence instead of a vote; a valid
// proposal is executed, and answered with a height-locked vote only if
// this node reproduced its state root. The vote goes to every
// validator, and counts towards the certificate this node assembles for
// the block itself.
func (r *replica) onProposal(msg p2p.Message) {
	vals := r.quorum.Validators()
	from := string(msg.From)
	sp, err := consensus.DecodeSignedProposal(msg.Payload)
	if err != nil {
		r.guard.Record(from, guard.OffenseMalformed)
		return
	}
	blk := sp.Block
	height := blk.Header.Height
	if !vals.Contains(blk.Header.Proposer) || sp.Verify(vals) != nil {
		r.guard.Record(from, guard.OffenseBadProposal)
		return
	}
	// From here the proposal is authentic: it is signed by the
	// validator it names, so misbehavior recorded below is the
	// proposer's own, not a relay artifact.
	committed := r.chain.Height()
	if height <= committed || height > committed+voteWindow {
		return // outside the live window: not votable, not an offense
	}
	if ev := r.noteProposal(height, sp.Header()); ev != nil {
		r.guard.Record(from, guard.OffenseEquivocation)
		r.reportEvidence(ev)
		return // never vote for an equivocating proposer's block
	}
	if _, _, err := r.speculate(blk); err != nil {
		// No vote, and the one-vote-per-height lock stays free. A root
		// this node cannot reproduce is the proposer's offense; anything
		// else is likely honest head divergence the sync path reconciles.
		if errors.Is(err, ErrRootDiverged) {
			r.guard.Record(from, guard.OffenseBadProposal)
		}
		return
	}
	vote, ok := r.lockAndSignVote(blk)
	if !ok {
		return
	}
	r.send("", topicVote, vote.Encode())
	r.addVote(vote)
	r.commitOnCert()
}

// onVote ingests a vote: it must decode, fall in the live height
// window, and verify against the validator set (signature over the
// height-bound digest) before it is buffered; per-voter dedupe and
// double-vote evidence come from the first-vote record. A buffered vote
// may complete the certificate of the block this node executed.
func (r *replica) onVote(msg p2p.Message) {
	from := string(msg.From)
	v, err := consensus.DecodeVote(msg.Payload)
	if err != nil {
		r.guard.Record(from, guard.OffenseMalformed)
		return
	}
	// The window comes before the signature: once a node commits on its
	// own certificate, the votes it did not need still arrive, and a
	// vote for a committed height costs nothing to drop — forged or not.
	committed := r.chain.Height()
	if v.Height <= committed || v.Height > committed+voteWindow {
		return // stale or far-future vote: bounded buffers over accuracy
	}
	if !skipVoteVerify {
		if err := r.quorum.VerifyVote(v); err != nil {
			r.guard.Record(from, guard.OffenseInvalidVote)
			return
		}
	}
	ev, fresh := r.noteVote(v)
	if ev != nil {
		r.guard.Record(from, guard.OffenseEquivocation)
		r.reportEvidence(ev)
		return
	}
	if !fresh {
		return // duplicate from this voter at this height
	}
	r.addVote(v)
	r.commitOnCert()
}

// noteProposal records the signed header of a verified proposal —
// each proposer's first at a height, and the conflicting second of a
// double proposal, so that votes for either block can be judged — and
// returns double-proposal evidence on a conflict. Re-sends of the same
// block are idempotent.
func (r *replica) noteProposal(height uint64, sh consensus.SignedHeader) *consensus.Evidence {
	hash := sh.Header.Hash()
	headers := r.proposalSeen[height]
	if headers == nil {
		headers = make(map[cryptoutil.Digest]consensus.SignedHeader)
		r.proposalSeen[height] = headers
	}
	if _, ok := headers[hash]; ok {
		return nil
	}
	var prior *consensus.SignedHeader
	held := 0
	for _, other := range headers {
		if other.Header.Proposer == sh.Header.Proposer {
			prior = &other
			held++
		}
	}
	if held < 2 {
		// A third header is not kept: two already prove the proposer's
		// equivocation, and the record per proposer stays bounded.
		headers[hash] = sh
	}
	if prior == nil {
		return nil
	}
	ev, err := consensus.NewDoubleProposalEvidence(*prior, sh)
	if err != nil {
		return nil
	}
	return ev
}

// noteVote records the first vote seen from each voter at each height
// for each proposer, the proposer read from the signed header of the
// voted block this node holds. It returns double-vote evidence on a
// vote for a second block of the same proposer, and fresh=false for
// exact duplicates. A vote for a block whose proposal this node does
// not hold fills the voter's one unjudged slot at the height: a second
// such vote is dropped, and none is ever judged — no evidence is built
// without the headers.
func (r *replica) noteVote(v consensus.Vote) (*consensus.Evidence, bool) {
	slot := voteSlot{voter: v.Voter}
	sh, known := r.proposalSeen[v.Height][v.Block]
	if known {
		slot.proposer = sh.Header.Proposer
	}
	slots := r.voteSeen[v.Height]
	if slots == nil {
		slots = make(map[voteSlot]consensus.Vote)
		r.voteSeen[v.Height] = slots
	}
	first, ok := slots[slot]
	if !ok {
		slots[slot] = v
		return nil, true
	}
	if first.Block == v.Block || !known {
		return nil, false
	}
	ev, err := consensus.NewDoubleVoteEvidence(first, v, r.proposalSeen[v.Height][first.Block], sh)
	if err != nil {
		return nil, false
	}
	return ev, false
}

// addVote buffers a verified, windowed, first-per-voter vote.
func (r *replica) addVote(v consensus.Vote) {
	vs := r.votes[v.Block]
	if vs == nil {
		vs = &voteSet{height: v.Height, byVoter: make(map[cryptoutil.Address]bool)}
		r.votes[v.Block] = vs
	}
	if !vs.byVoter[v.Voter] {
		vs.byVoter[v.Voter] = true
		vs.votes = append(vs.votes, v)
	}
}

// lockAndSignVote enforces one vote per (height, proposer): the first
// vote for a proposer's block at a height locks this node to that
// hash; re-voting the same block is idempotent (proposal retries
// depend on it) while a conflicting second block from the same
// proposer gets no vote. A single equivocating proposer therefore
// cannot harvest conflicting honest votes and fork the chain, yet
// proposer failover — a different validator re-proposing the height —
// stays live. (Locking across proposers would need a full view-change
// protocol to stay live under faults; see DESIGN.md.) The vote is
// signed through the node's Quorum, which memoises it: it comes back in
// the certificate this node assembles. The lock keeps the block, the
// one commitOnCert may commit when its proposer's round is live.
func (r *replica) lockAndSignVote(blk *ledger.Block) (consensus.Vote, bool) {
	height, hash, proposer := blk.Header.Height, blk.Hash(), blk.Header.Proposer
	byProposer := r.votedAt[height]
	if byProposer == nil {
		byProposer = make(map[cryptoutil.Address]*ledger.Block)
		r.votedAt[height] = byProposer
	}
	if prev, ok := byProposer[proposer]; ok && prev.Hash() != hash {
		return consensus.Vote{}, false
	}
	byProposer[proposer] = blk
	vote, err := r.quorum.SignVote(height, hash, r.key)
	if err != nil {
		return consensus.Vote{}, false
	}
	return vote, true
}

func evidenceRef(kind consensus.EvidenceKind, height uint64, offender cryptoutil.Address) string {
	return fmt.Sprintf("%s/%d/%s", kind, height, offender)
}

// reportEvidence submits verified equivocation evidence as an on-chain
// audit transaction and gossips it to the cluster, deduping locally so
// each offense is reported once per detecting node (the audit contract
// dedupes across reporters). The transaction is signed with the node's
// validator key; its timestamp derives from the offense height so
// replicas that detect the same equivocation produce byte-identical
// reports.
func (r *replica) reportEvidence(ev *consensus.Evidence) {
	if err := ev.Verify(r.quorum.Validators()); err != nil {
		return // never forward evidence we cannot verify ourselves
	}
	ref := evidenceRef(ev.Kind, ev.Height, ev.Offender)
	if r.evidenceSeen[ref] {
		return
	}
	r.evidenceSeen[ref] = true
	raw, err := ev.Encode()
	if err != nil {
		return
	}
	args, err := json.Marshal(contract.ReportEvidenceArgs{
		Kind: string(ev.Kind), Height: ev.Height, Offender: ev.Offender, Evidence: raw,
	})
	if err != nil {
		return
	}
	tx := &ledger.Transaction{
		Type:      ledger.TxAudit,
		Contract:  contract.AuditContractAddr,
		Method:    "report_evidence",
		Args:      args,
		Nonce:     r.nextAuditNonce(),
		Timestamp: int64(ev.Height),
	}
	if err := tx.Sign(r.key); err != nil {
		return
	}
	if r.submit(tx) != nil {
		return
	}
	if body, err := tx.Encode(); err == nil {
		r.send("", topicTx, body)
	}
}

// nextAuditNonce returns the next nonce for a self-submitted audit
// transaction. The validator key only ever signs audit transactions,
// so the sequence is the max of the chain's committed expectation and
// what this node already has in flight.
func (r *replica) nextAuditNonce() uint64 {
	next := max(r.chain.NextNonce(r.key.Address()), r.auditNonceNext)
	r.auditNonceNext = next + 1
	return next
}

// onSyncCont continues a paginated catch-up: re-request only if the
// serving peer is still ahead AND we made progress since its last
// continuation, so a malicious stream of continuations cannot make us
// amplify sync traffic.
func (r *replica) onSyncCont(msg p2p.Message) {
	peerHead, err := decodeHeight(msg.Payload)
	if err != nil {
		r.guard.Record(string(msg.From), guard.OffenseMalformed)
		return
	}
	height := r.chain.Height()
	if peerHead <= height {
		return
	}
	if last, seen := r.syncProg[msg.From]; seen && height <= last {
		return
	}
	r.syncProg[msg.From] = height
	r.requestSync(msg.From)
}

// requestSync asks a peer for all blocks after our head. A stopped
// node silently skips the request.
func (r *replica) requestSync(peer p2p.NodeID) {
	if r.send == nil {
		return
	}
	r.send(peer, topicSyncReq, strconv.AppendUint(nil, r.chain.Height(), 10))
}

// requestSyncPaced is the gap-triggered variant used by block ingress:
// while a catch-up is pending, every further broadcast block still
// shows a height gap, and re-requesting for each would trip the
// server's sync-rate limiter — so at most one request goes out per
// head height per pacing interval. Deliberate recovery nudges
// (cluster restart/heal paths) use requestSync directly.
func (r *replica) requestSyncPaced(peer p2p.NodeID, now time.Time) {
	height := r.chain.Height()
	if height == r.lastSyncHeight && now.Sub(r.lastSyncTime) < 500*time.Millisecond {
		return
	}
	r.lastSyncHeight, r.lastSyncTime = height, now
	r.requestSync(peer)
}

// acceptBlock is the one way a block changes this node, whoever built
// it and however it arrived (own proposal, broadcast, sync): verify the
// seal and the ledger rules, execute the block on write snapshots over
// the untouched live state — or take the execution this node already
// made of it when it built or voted on it — compare the root that
// leaves with the header's, and only on a match materialise it, append
// it and publish the commit to readers in one view. A block that fails
// any check has touched nothing. It is idempotent for already-known
// heights.
func (r *replica) acceptBlock(blk *ledger.Block) error {
	if blk.Header.Height <= r.chain.Height() {
		return nil // already have it
	}
	if err := r.quorum.VerifySeal(blk); err != nil && !skipCertQuorum {
		return err
	}
	valid, spec, err := r.speculate(blk)
	if err != nil {
		return err
	}
	receipts := r.exec.Commit(spec)
	r.receipts.add(receipts)
	for _, rc := range receipts {
		r.gasUsed += rc.GasUsed
	}
	if err := r.chain.AppendValidated(valid); err != nil {
		return err
	}
	r.receiptLog = append(r.receiptLog, receipts...)
	r.pool.RemoveCommitted(blk, r.chain.NextNonce)
	r.pruneConsensusBuffers(blk.Header.Height)
	r.publishView()
	r.settle(blk)
	// Persistence is best-effort relative to consensus: a failing disk
	// (fault injection, full volume) must not halt the replica — the
	// block is already committed in memory by quorum. The failure is
	// counted and the WAL regains consistency on the next recovery.
	r.persistBlock(blk)
	return nil
}

// speculate validates blk against the head and returns this node's
// execution of it. Validation ties the body to the header and the
// header to the head, and a pending execution is dropped whenever the
// head or the state object changes, so one kept under blk's hash was
// made of exactly this block over exactly this state; otherwise the
// block is executed now and that kept. Every honest node must reproduce
// the proposer's state root — the consistency check of replicated
// execution, and the one place it is made: before a vote and before a
// commit alike.
func (r *replica) speculate(blk *ledger.Block) (*ledger.Validated, *parexec.Speculation, error) {
	valid, err := r.chain.ValidateForAppend(blk)
	if err != nil {
		return nil, nil, err
	}
	hash := blk.Hash()
	if p := r.pending; p != nil && p.hash == hash {
		return valid, p.spec, nil
	}
	spec, err := r.exec.Speculate(r.state, blk.Txs, blk.Header.Height, blk.Header.Timestamp)
	if err != nil {
		return nil, nil, err
	}
	if root := spec.Root(); root != blk.Header.StateRoot && !skipRootCheck {
		return nil, nil, fmt.Errorf("%w: computed %s, header %s", ErrRootDiverged, root.Short(), blk.Header.StateRoot.Short())
	}
	r.pending = &pendingBlock{hash: hash, height: blk.Header.Height, spec: spec}
	return valid, spec, nil
}

// commitOnCert commits the block this node voted for in the live
// round once it holds 2f+1 verified votes for it: the proposer's own
// block, or the proposal a follower executed. The certificate it
// assembles from them is the block's seal on this node, checked by
// acceptBlock like the seal of a block that arrives: nodes may seal one
// header with different vote subsets. A follower so commits two hops
// after the proposal, without waiting for the proposer's block; the
// proposer commits here too. The read lock on the round is held
// through the commit, so the driver cannot open another round at this
// height while it runs.
func (r *replica) commitOnCert() {
	lr := r.round
	lr.mu.RLock()
	defer lr.mu.RUnlock()
	height := r.chain.Height() + 1
	if lr.height != height {
		return
	}
	need := r.quorum.Validators().QuorumThreshold()
	if skipCertQuorum {
		need--
	}
	blk := r.votedAt[height][lr.proposer]
	if blk == nil {
		return
	}
	qc := consensus.QuorumCert{Block: blk.Hash()}
	if vs := r.votes[qc.Block]; vs != nil {
		qc.Votes = append([]consensus.Vote(nil), vs.votes...)
	}
	if len(qc.Votes) < need {
		return
	}
	seal, err := qc.Encode()
	if err != nil {
		return
	}
	// A new block of the same header and body: the voted copy is shared
	// with the proposal it came from. If it is refused, the block still
	// arrives by broadcast or sync.
	if r.acceptBlock(&ledger.Block{Header: blk.Header, Txs: blk.Txs, Seal: seal}) == nil {
		lr.noteCertified(height)
	}
}

// voteCount returns the number of verified votes buffered for a block.
func (r *replica) voteCount(hash cryptoutil.Digest) int {
	if vs := r.votes[hash]; vs != nil {
		return len(vs.votes)
	}
	return 0
}

// pruneConsensusBuffers drops buffered votes, proposal records, vote
// locks, first-vote records, evidence dedupe marks, the cached proposal
// and the pending execution at or below the committed height. Together
// with the ingest window this is what keeps the consensus buffers
// bounded regardless of chain length or a spammer's appetite.
func (r *replica) pruneConsensusBuffers(committed uint64) {
	for hash, vs := range r.votes {
		if vs.height <= committed {
			delete(r.votes, hash)
		}
	}
	for h := range r.votedAt {
		if h <= committed {
			delete(r.votedAt, h)
		}
	}
	for h, headers := range r.proposalSeen {
		if h <= committed {
			for _, sh := range headers {
				delete(r.evidenceSeen, evidenceRef(consensus.EvidenceDoubleProposal, h, sh.Header.Proposer))
			}
			delete(r.proposalSeen, h)
		}
	}
	for h, slots := range r.voteSeen {
		if h <= committed {
			for slot := range slots {
				delete(r.evidenceSeen, evidenceRef(consensus.EvidenceDoubleVote, h, slot.voter))
			}
			delete(r.voteSeen, h)
		}
	}
	if r.lastProposal != nil && r.lastProposal.Block.Header.Height <= committed {
		r.lastProposal = nil
	}
	if r.pending != nil && r.pending.height <= committed {
		r.pending = nil
	}
}

// buildBlock assembles the next block on the current head, previews it
// and keeps the preview for acceptBlock. A block taken back from the
// cached proposal of an earlier round is not previewed again: its own
// preview, if still held, stays as it is.
func (r *replica) buildBlock(maxTxs int) (*ledger.Block, error) {
	head := r.chain.Head()
	height := head.Header.Height + 1

	// Retrying the same height against the same parent reuses the
	// cached signed proposal even if the mempool has since grown: an
	// honest proposer must never sign two different blocks at one
	// height — that is exactly the equivocation the ingress layer
	// evidences and quarantines.
	if lp := r.lastProposal; lp != nil && lp.Block.Header.Height == height && lp.Block.Header.Parent == head.Hash() {
		return lp.Block, nil
	}

	txs := r.pool.Take(maxTxs, head.Header.Height, r.chain.NextNonce)
	ts := head.Header.Timestamp + 1
	blk := &ledger.Block{
		Header: ledger.Header{
			Height:    height,
			Parent:    head.Hash(),
			Timestamp: ts,
			Proposer:  r.key.Address(),
		},
		Txs: txs,
	}
	root, err := ledger.ComputeTxRoot(txs)
	if err != nil {
		return nil, err
	}
	blk.Header.TxRoot = root

	spec, err := r.exec.Speculate(r.state, txs, height, ts)
	if err != nil {
		return nil, err
	}
	blk.Header.StateRoot = spec.Root()
	r.pending = &pendingBlock{hash: blk.Hash(), height: height, spec: spec}
	return blk, nil
}

// propose runs one round of the vote protocol from this node: build the
// next block from the mempool — executed once, on write snapshots over
// the live state, which yields the header's post-state root without
// touching that state, so a round that fails leaves state, mempool and
// chain untouched, the invariant retry and failover rely on — open its
// round live, which closes the previous one on every node sharing it,
// and broadcast the proposal with this node's own vote. The proposer
// then commits on its own certificate like every follower (commitOnCert).
// done hears how the round ended (proposeWait); the returned wait, nil
// when no round opened, is what timeOut ends. A height committed in a
// round that closed is not proposed again (errBehind: the proposer must
// catch up).
func (r *replica) propose(maxTxs int, done func(*ledger.Block, error)) *proposeWait {
	fail := func(err error) *proposeWait { done(nil, err); return nil }
	if r.send == nil {
		return fail(ErrStopped)
	}
	blk, err := r.buildBlock(maxTxs)
	if err != nil {
		return fail(err)
	}
	height := blk.Header.Height
	if !r.round.open(height, r.key.Address()) {
		return fail(fmt.Errorf("%w: height %d was committed in an earlier round", errBehind, height))
	}
	sp, err := consensus.SignProposal(blk, r.key)
	if err != nil {
		return fail(err)
	}
	body, err := sp.Encode()
	if err != nil {
		return fail(err)
	}
	w := &proposeWait{height: height, hash: blk.Hash(), done: done}
	r.lastProposal = sp
	r.proposing = append(r.proposing, w)
	// The proposer holds its own signed proposal like any other, so the
	// votes for its block are judged in their voters' slots for it, not
	// in the one slot a vote for an unknown block may take.
	r.noteProposal(height, sp.Header())
	r.send("", topicProposal, body)
	// The proposer's own vote obeys the same one-per-height lock as
	// everyone else's; a proposer locked to another block this height
	// gets none, and its round cannot commit this block.
	if own, ok := r.lockAndSignVote(blk); ok {
		r.addVote(own)
		r.send("", topicVote, own.Encode())
	}
	r.commitOnCert() // a set of one validator needs no peer's vote
	return w
}

// settle ends the rounds of the proposals waiting on blk's height: the
// one that proposed blk broadcasts it, with this node's seal, for any
// node that missed the proposal or the votes.
func (r *replica) settle(blk *ledger.Block) {
	kept := r.proposing[:0]
	for _, w := range r.proposing {
		switch {
		case w.height > blk.Header.Height:
			kept = append(kept, w)
		case w.hash == blk.Hash():
			if body, err := blk.Encode(); err == nil {
				r.send("", topicBlock, body)
			}
			w.done(blk, nil)
		default:
			w.done(nil, r.noQuorum(w.hash))
		}
	}
	r.proposing = kept
}

// timeOut ends, with ErrNoQuorum, the round of w if it still waits, or
// every waiting round when w is nil (the node stops). The partial vote
// set is kept, so an immediate re-proposal of the same block can reuse
// it.
func (r *replica) timeOut(w *proposeWait) {
	kept := r.proposing[:0]
	for _, p := range r.proposing {
		if w != nil && p != w {
			kept = append(kept, p)
			continue
		}
		p.done(nil, r.noQuorum(p.hash))
	}
	r.proposing = kept
}

func (r *replica) noQuorum(hash cryptoutil.Digest) error {
	return fmt.Errorf("%w: %d/%d votes", ErrNoQuorum, r.voteCount(hash), r.quorum.Validators().QuorumThreshold())
}
