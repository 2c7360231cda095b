// Package consensus provides the block-sealing engines of the medical
// blockchain:
//
//   - Quorum: 2f+1 vote certificates over a validator set — the one
//     engine package chain runs. It validates votes and certificates;
//     chain runs the vote-gathering protocol over p2p.
//   - PoW: a hash-puzzle proof-of-work engine, the public-chain baseline;
//     its hash-attempt counter quantifies the "wasted electricity"
//     argument of the paper's introduction (Digiconomist: duplicated
//     validation burns a country's worth of power).
//   - PoA: proof-of-authority round-robin over a validator set
//     (Hyperledger-style), and PoS (pos.go): a stake-weighted proposer
//     draw, the intro's "virtual mining".
//
// PoW, PoA and PoS are seal-level baselines: experiment A1 seals and
// verifies one block sequence through every Engine, and no chain node
// runs them. Engines seal and verify blocks; they do not move messages.
// All engines are deterministic given their inputs.
package consensus

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// Engine seals blocks and verifies seals.
type Engine interface {
	// Name identifies the engine ("pow", "poa", "quorum").
	Name() string
	// Seal completes the block so it satisfies the engine's rules:
	// PoW mines the nonce, PoA signs, Quorum is sealed externally via
	// certificates (Seal errors).
	Seal(b *ledger.Block, proposer *cryptoutil.KeyPair) error
	// VerifySeal checks the block against the engine's rules.
	VerifySeal(b *ledger.Block) error
	// ProposerAt returns the only address allowed to propose at the
	// given height; ok is false when any node may propose (PoW).
	ProposerAt(height uint64) (cryptoutil.Address, bool)
}

// Consensus errors.
var (
	ErrBadSeal        = errors.New("consensus: invalid seal")
	ErrWrongProposer  = errors.New("consensus: wrong proposer for height")
	ErrNotValidator   = errors.New("consensus: proposer is not a validator")
	ErrNoValidators   = errors.New("consensus: empty validator set")
	ErrQuorumTooSmall = errors.New("consensus: not enough votes for quorum")
)

// Validator is a consensus participant identified by its address and
// public key.
type Validator struct {
	// Addr is the validator's chain address.
	Addr cryptoutil.Address `json:"addr"`
	// PubKey is the validator's uncompressed public key.
	PubKey []byte `json:"pub_key"`
}

// ValidatorSet is an ordered list of validators.
type ValidatorSet struct {
	list  []Validator
	index map[cryptoutil.Address]int
}

// NewValidatorSet builds a set from key pairs (simulation convenience).
func NewValidatorSet(keys []*cryptoutil.KeyPair) (*ValidatorSet, error) {
	vals := make([]Validator, len(keys))
	for i, k := range keys {
		vals[i] = Validator{Addr: k.Address(), PubKey: k.PublicBytes()}
	}
	return NewValidatorSetFrom(vals)
}

// NewValidatorSetFrom builds a set from explicit validators.
func NewValidatorSetFrom(vals []Validator) (*ValidatorSet, error) {
	if len(vals) == 0 {
		return nil, ErrNoValidators
	}
	s := &ValidatorSet{
		list:  make([]Validator, len(vals)),
		index: make(map[cryptoutil.Address]int, len(vals)),
	}
	copy(s.list, vals)
	for i, v := range vals {
		if _, dup := s.index[v.Addr]; dup {
			return nil, fmt.Errorf("consensus: duplicate validator %s", v.Addr.Short())
		}
		if _, err := cryptoutil.DecodePublicKey(v.PubKey); err != nil {
			return nil, fmt.Errorf("consensus: validator %s: %w", v.Addr.Short(), err)
		}
		s.index[v.Addr] = i
	}
	return s, nil
}

// Len returns the number of validators.
func (s *ValidatorSet) Len() int { return len(s.list) }

// Contains reports whether addr is a validator.
func (s *ValidatorSet) Contains(addr cryptoutil.Address) bool {
	_, ok := s.index[addr]
	return ok
}

// At returns validator i in registration order.
func (s *ValidatorSet) At(i int) Validator { return s.list[i] }

// ProposerFor returns the round-robin proposer for a height.
func (s *ValidatorSet) ProposerFor(height uint64) Validator {
	return s.list[int(height%uint64(len(s.list)))]
}

// QuorumThreshold returns the number of votes needed: floor(2n/3)+1,
// tolerating f faults among n = 3f+1 validators.
func (s *ValidatorSet) QuorumThreshold() int {
	return 2*len(s.list)/3 + 1
}

// PublicKeyOf returns the encoded public key of a validator address.
// Auditors use it to re-verify evidence signatures against the set.
func (s *ValidatorSet) PublicKeyOf(addr cryptoutil.Address) ([]byte, bool) {
	i, ok := s.index[addr]
	if !ok {
		return nil, false
	}
	return s.list[i].PubKey, true
}

// --- Proof of Work ---

// PoW is the hash-puzzle engine. Difficulty is the number of leading
// zero bits required of the header hash. HashAttempts accumulates the
// total mining work across all Seal calls — the experiment-visible
// "electricity" counter.
type PoW struct {
	// Difficulty is the required number of leading zero bits.
	Difficulty uint8
	// hashAttempts counts every hash evaluated while mining.
	hashAttempts atomic.Int64
}

var _ Engine = (*PoW)(nil)

// Name implements Engine.
func (p *PoW) Name() string { return "pow" }

// HashAttempts returns the cumulative number of hashes evaluated by
// Seal.
func (p *PoW) HashAttempts() int64 { return p.hashAttempts.Load() }

// ResetWork zeroes the hash-attempt counter.
func (p *PoW) ResetWork() { p.hashAttempts.Store(0) }

// Seal mines the header nonce until the hash meets the difficulty.
func (p *PoW) Seal(b *ledger.Block, proposer *cryptoutil.KeyPair) error {
	if b == nil {
		return ledger.ErrNilBlock
	}
	b.Header.Proposer = proposer.Address()
	b.Header.Difficulty = p.Difficulty
	for nonce := uint64(0); ; nonce++ {
		b.Header.PowNonce = nonce
		p.hashAttempts.Add(1)
		if leadingZeroBits(b.Header.Hash()) >= int(p.Difficulty) {
			return nil
		}
	}
}

// VerifySeal checks the PoW condition.
func (p *PoW) VerifySeal(b *ledger.Block) error {
	if b == nil {
		return ledger.ErrNilBlock
	}
	if b.Header.Difficulty < p.Difficulty {
		return fmt.Errorf("%w: difficulty %d below target %d", ErrBadSeal, b.Header.Difficulty, p.Difficulty)
	}
	if leadingZeroBits(b.Header.Hash()) < int(b.Header.Difficulty) {
		return fmt.Errorf("%w: hash does not meet difficulty %d", ErrBadSeal, b.Header.Difficulty)
	}
	return nil
}

// ProposerAt implements Engine; PoW lets anyone propose.
func (p *PoW) ProposerAt(uint64) (cryptoutil.Address, bool) {
	return cryptoutil.ZeroAddress, false
}

func leadingZeroBits(d cryptoutil.Digest) int {
	n := 0
	for _, b := range d {
		if b == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(b)
		break
	}
	return n
}

// --- Proof of Authority ---

// PoA is round-robin proof of authority: the validator at
// height % len(validators) signs the header hash into the seal.
type PoA struct {
	vals *ValidatorSet
}

var _ Engine = (*PoA)(nil)

// NewPoA creates a PoA engine over the validator set.
func NewPoA(vals *ValidatorSet) *PoA { return &PoA{vals: vals} }

// Name implements Engine.
func (p *PoA) Name() string { return "poa" }

// Seal signs the header hash with the proposer key; the proposer must
// be the round-robin validator for the block height.
func (p *PoA) Seal(b *ledger.Block, proposer *cryptoutil.KeyPair) error {
	if b == nil {
		return ledger.ErrNilBlock
	}
	want := p.vals.ProposerFor(b.Header.Height)
	if proposer.Address() != want.Addr {
		return fmt.Errorf("%w: height %d expects %s", ErrWrongProposer, b.Header.Height, want.Addr.Short())
	}
	b.Header.Proposer = proposer.Address()
	sig, err := proposer.Sign(b.Header.Hash())
	if err != nil {
		return err
	}
	b.Seal = sig[:]
	return nil
}

// VerifySeal checks the round-robin schedule and the signature.
func (p *PoA) VerifySeal(b *ledger.Block) error {
	if b == nil {
		return ledger.ErrNilBlock
	}
	want := p.vals.ProposerFor(b.Header.Height)
	if b.Header.Proposer != want.Addr {
		return fmt.Errorf("%w: block proposer %s, schedule %s",
			ErrWrongProposer, b.Header.Proposer.Short(), want.Addr.Short())
	}
	if len(b.Seal) != 64 {
		return fmt.Errorf("%w: seal length %d", ErrBadSeal, len(b.Seal))
	}
	pub, err := cryptoutil.DecodePublicKey(want.PubKey)
	if err != nil {
		return err
	}
	var sig cryptoutil.Signature
	copy(sig[:], b.Seal)
	if !cryptoutil.Verify(pub, b.Header.Hash(), sig) {
		return fmt.Errorf("%w: proposer signature invalid", ErrBadSeal)
	}
	return nil
}

// ProposerAt implements Engine.
func (p *PoA) ProposerAt(height uint64) (cryptoutil.Address, bool) {
	return p.vals.ProposerFor(height).Addr, true
}

// --- Quorum (vote certificates) ---

// Vote is one validator's signature over a block hash at a height. The
// height is bound into the signed digest so a vote cannot be replayed
// at another height (which would let an adversary fabricate double-vote
// evidence framing an honest validator).
type Vote struct {
	// Height is the voted block's height.
	Height uint64 `json:"height"`
	// Block is the voted block's header hash.
	Block cryptoutil.Digest `json:"block"`
	// Voter is the validator address.
	Voter cryptoutil.Address `json:"voter"`
	// Sig signs the vote digest.
	Sig cryptoutil.Signature `json:"sig"`
}

func voteDigest(height uint64, block cryptoutil.Digest, voter cryptoutil.Address) cryptoutil.Digest {
	var hb [8]byte
	for i := 0; i < 8; i++ {
		hb[i] = byte(height >> (56 - 8*i))
	}
	return cryptoutil.SumAll([]byte("medchain/vote"), hb[:], block[:], voter[:])
}

// SignVote produces a validator's vote for a block hash at a height.
func SignVote(height uint64, block cryptoutil.Digest, key *cryptoutil.KeyPair) (Vote, error) {
	sig, err := key.Sign(voteDigest(height, block, key.Address()))
	if err != nil {
		return Vote{}, err
	}
	return Vote{Height: height, Block: block, Voter: key.Address(), Sig: sig}, nil
}

// VerifyVote checks one vote against the validator set: the voter must
// be a member and the signature must verify over the height-bound vote
// digest.
func VerifyVote(v Vote, vals *ValidatorSet) error {
	pubBytes, ok := vals.PublicKeyOf(v.Voter)
	if !ok {
		return fmt.Errorf("%w: voter %s", ErrNotValidator, v.Voter.Short())
	}
	pub, err := cryptoutil.DecodePublicKey(pubBytes)
	if err != nil {
		return err
	}
	if !cryptoutil.Verify(pub, voteDigest(v.Height, v.Block, v.Voter), v.Sig) {
		return fmt.Errorf("%w: vote signature invalid for %s", ErrBadSeal, v.Voter.Short())
	}
	return nil
}

// QuorumCert is a set of votes forming a 2f+1 certificate for a block.
type QuorumCert struct {
	// Block is the certified block hash.
	Block cryptoutil.Digest `json:"block"`
	// Votes are distinct validator votes over Block.
	Votes []Vote `json:"votes"`
}

// Quorum validates 2f+1 vote certificates carried in block seals. The
// vote-gathering protocol itself runs in package chain; a block is
// sealed by attaching an encoded QuorumCert.
type Quorum struct {
	vals *ValidatorSet
	// seen remembers the votes this instance verified, so the node that
	// collected a certificate does not verify its votes again when they
	// come back inside it.
	seen voteMemo
}

var _ Engine = (*Quorum)(nil)

// NewQuorum creates a quorum engine over the validator set.
func NewQuorum(vals *ValidatorSet) *Quorum { return &Quorum{vals: vals} }

// Name implements Engine.
func (q *Quorum) Name() string { return "quorum" }

// Validators exposes the validator set (used by the chain protocol).
func (q *Quorum) Validators() *ValidatorSet { return q.vals }

// voteMemoGen bounds one generation of a Quorum's verified-vote memo.
// A node buffers votes for a few heights of one validator set at a
// time, so a small constant covers every vote between its arrival and
// the certificate that carries it.
const voteMemoGen = 256

// voteKey binds a memo entry to the signature bytes as well as the
// signed digest (which covers height, block and voter): a vote with one
// signature bit flipped is a different key and is verified for itself.
type voteKey struct {
	digest cryptoutil.Digest
	voter  cryptoutil.Address
	sig    cryptoutil.Signature
}

// voteMemo is the verified set of package ledger, for votes: successes
// only, bounded by a two-generation swap, owned by one Quorum instance
// and never shared between nodes.
type voteMemo struct {
	mu       sync.Mutex
	cur, old map[voteKey]struct{}
	// verifies counts VerifyVote runs, hits the lookups that made one
	// unnecessary.
	verifies, hits uint64
}

func (m *voteMemo) has(k voteKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.cur[k]
	if !ok {
		_, ok = m.old[k]
	}
	if ok {
		m.hits++
	}
	return ok
}

// note records one VerifyVote run (a vote signed here counts as none)
// and, if it passed, the mark.
func (m *voteMemo) note(k voteKey, verified, passed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if verified {
		m.verifies++
	}
	if !passed {
		return
	}
	if len(m.cur) >= voteMemoGen {
		m.old, m.cur = m.cur, nil
	}
	if m.cur == nil {
		m.cur = make(map[voteKey]struct{})
	}
	m.cur[k] = struct{}{}
}

func keyOfVote(v Vote) voteKey {
	return voteKey{digest: voteDigest(v.Height, v.Block, v.Voter), voter: v.Voter, sig: v.Sig}
}

// VerifyVote is VerifyVote against the engine's validator set, run at
// most once per vote on this instance: a vote that verified before —
// the same height, block, voter and signature bytes — is not verified
// again. Vote ingress and certificate checks both come through here.
func (q *Quorum) VerifyVote(v Vote) error {
	k := keyOfVote(v)
	if q.seen.has(k) {
		return nil
	}
	err := VerifyVote(v, q.vals)
	q.seen.note(k, true, err == nil)
	return err
}

// SignVote signs this node's own vote and records it as verified: the
// signer needs no proof of its own signature when the vote comes back
// in the certificate it assembles.
func (q *Quorum) SignVote(height uint64, block cryptoutil.Digest, key *cryptoutil.KeyPair) (Vote, error) {
	v, err := SignVote(height, block, key)
	if err == nil {
		q.seen.note(keyOfVote(v), false, true)
	}
	return v, err
}

// VoteVerifyCounts reports how many votes this instance verified and
// how many lookups the memo answered instead.
func (q *Quorum) VoteVerifyCounts() (verifies, hits uint64) {
	q.seen.mu.Lock()
	defer q.seen.mu.Unlock()
	return q.seen.verifies, q.seen.hits
}

// Seal returns an error: quorum blocks are sealed by attaching a
// certificate gathered from the network, not locally.
func (q *Quorum) Seal(*ledger.Block, *cryptoutil.KeyPair) error {
	return errors.New("consensus: quorum blocks are sealed with AttachCert, not Seal")
}

// AttachCert verifies the certificate against the block and installs it
// as the seal.
func (q *Quorum) AttachCert(b *ledger.Block, qc *QuorumCert) error {
	if b == nil {
		return ledger.ErrNilBlock
	}
	if err := q.verifyCert(b.Header.Height, b.Hash(), qc); err != nil {
		return err
	}
	seal, err := qc.Encode()
	if err != nil {
		return err
	}
	b.Seal = seal
	return nil
}

// VerifySeal decodes and verifies the certificate in the seal.
func (q *Quorum) VerifySeal(b *ledger.Block) error {
	if b == nil {
		return ledger.ErrNilBlock
	}
	if !q.vals.Contains(b.Header.Proposer) {
		return fmt.Errorf("%w: %s", ErrNotValidator, b.Header.Proposer.Short())
	}
	qc, err := DecodeQuorumCert(b.Seal)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSeal, err)
	}
	return q.verifyCert(b.Header.Height, b.Hash(), qc)
}

func (q *Quorum) verifyCert(height uint64, block cryptoutil.Digest, qc *QuorumCert) error {
	if qc == nil {
		return fmt.Errorf("%w: nil certificate", ErrBadSeal)
	}
	if qc.Block != block {
		return fmt.Errorf("%w: certificate for %s, block %s", ErrBadSeal, qc.Block.Short(), block.Short())
	}
	seen := make(map[cryptoutil.Address]bool, len(qc.Votes))
	valid := 0
	for _, v := range qc.Votes {
		if v.Block != block || v.Height != height || seen[v.Voter] {
			continue
		}
		if q.VerifyVote(v) != nil {
			continue
		}
		seen[v.Voter] = true
		valid++
	}
	if valid < q.vals.QuorumThreshold() {
		return fmt.Errorf("%w: %d valid votes, need %d", ErrQuorumTooSmall, valid, q.vals.QuorumThreshold())
	}
	return nil
}

// ProposerAt implements Engine: round-robin like PoA so block
// production is deterministic in the simulated cluster.
func (q *Quorum) ProposerAt(height uint64) (cryptoutil.Address, bool) {
	return q.vals.ProposerFor(height).Addr, true
}
