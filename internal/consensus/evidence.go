package consensus

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// This file implements the accountability layer of the quorum protocol:
// proposals are signed so they are attributable to their proposer, and
// two conflicting signed artifacts at one height (two proposals by the
// same proposer, or two votes by the same validator for two blocks of
// the same proposer) form self-verifying Evidence a third party — the
// trusted FDA/audit node of the paper's Fig. 2 — can check against the
// validator set without trusting the reporter. Votes for two blocks of
// two proposers at one height are proposer failover, not equivocation:
// a validator's vote lock is per (height, proposer).

// Evidence errors.
var (
	ErrBadEvidence = errors.New("consensus: invalid evidence")
	ErrBadProposal = errors.New("consensus: invalid proposal")
)

func proposalDigest(block cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.SumAll([]byte("medchain/proposal"), block[:])
}

// SignedProposal is the gossip payload for a proposed block: the block
// plus the proposer's signature over the block hash. The signature
// makes equivocation (two distinct blocks signed at one height)
// provable from the two payloads alone.
type SignedProposal struct {
	// Block is the proposed block; Block.Header.Proposer names the
	// signer.
	Block *ledger.Block `json:"block"`
	// Sig is the proposer's signature over the proposal digest of the
	// block hash.
	Sig cryptoutil.Signature `json:"sig"`
}

// SignProposal signs a block proposal with the proposer's key. The
// block header's Proposer must already name the key's address.
func SignProposal(blk *ledger.Block, key *cryptoutil.KeyPair) (*SignedProposal, error) {
	if blk == nil {
		return nil, ledger.ErrNilBlock
	}
	if blk.Header.Proposer != key.Address() {
		return nil, fmt.Errorf("%w: header proposer %s, signing key %s",
			ErrBadProposal, blk.Header.Proposer.Short(), key.Address().Short())
	}
	sig, err := key.Sign(proposalDigest(blk.Hash()))
	if err != nil {
		return nil, err
	}
	return &SignedProposal{Block: blk, Sig: sig}, nil
}

// Verify checks the proposal signature against the validator set: the
// header's proposer must be a member and must have signed the block
// hash.
func (sp *SignedProposal) Verify(vals *ValidatorSet) error {
	if sp == nil || sp.Block == nil {
		return fmt.Errorf("%w: nil proposal", ErrBadProposal)
	}
	return verifyHeaderSig(&sp.Block.Header, sp.Sig, vals)
}

// Header returns the proposal's signed header (the portion evidence
// records keep).
func (sp *SignedProposal) Header() SignedHeader {
	return SignedHeader{Header: sp.Block.Header, Sig: sp.Sig}
}

// SignedHeader is a block header plus its proposal signature — the
// minimal artifact proving "this proposer signed this block". The block
// hash is the header hash, so the header alone reproduces the signed
// digest.
type SignedHeader struct {
	Header ledger.Header        `json:"header"`
	Sig    cryptoutil.Signature `json:"sig"`
}

func verifyHeaderSig(h *ledger.Header, sig cryptoutil.Signature, vals *ValidatorSet) error {
	pubBytes, ok := vals.PublicKeyOf(h.Proposer)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotValidator, h.Proposer.Short())
	}
	pub, err := cryptoutil.DecodePublicKey(pubBytes)
	if err != nil {
		return err
	}
	if !cryptoutil.Verify(pub, proposalDigest(h.Hash()), sig) {
		return fmt.Errorf("%w: proposal signature invalid for %s", ErrBadProposal, h.Proposer.Short())
	}
	return nil
}

// EvidenceKind labels the provable misbehavior.
type EvidenceKind string

// Evidence kinds.
const (
	// EvidenceDoubleProposal proves a proposer signed two distinct
	// blocks at the same height.
	EvidenceDoubleProposal EvidenceKind = "double-proposal"
	// EvidenceDoubleVote proves a validator voted for two distinct
	// blocks of the same proposer at the same height.
	EvidenceDoubleVote EvidenceKind = "double-vote"
)

// Evidence packages two conflicting signed artifacts from one validator
// at one height. It is self-verifying: Verify re-checks both signatures
// against the validator set and the conflict condition, so an auditor
// does not have to trust the reporting node.
type Evidence struct {
	// Kind is the misbehavior proved.
	Kind EvidenceKind `json:"kind"`
	// Height is the equivocation height.
	Height uint64 `json:"height"`
	// Offender is the misbehaving validator.
	Offender cryptoutil.Address `json:"offender"`
	// FirstHeader/SecondHeader carry a double-proposal's two signed
	// headers, ordered by block hash so the same pair always encodes
	// identically regardless of observation order. A double vote
	// carries the signed headers of its two voted blocks, in its votes'
	// order: they show both blocks name one proposer.
	FirstHeader  *SignedHeader `json:"first_header,omitempty"`
	SecondHeader *SignedHeader `json:"second_header,omitempty"`
	// FirstVote/SecondVote carry a double-vote's two votes, ordered by
	// block hash.
	FirstVote  *Vote `json:"first_vote,omitempty"`
	SecondVote *Vote `json:"second_vote,omitempty"`
}

// NewDoubleProposalEvidence builds evidence from two signed headers by
// the same proposer at the same height for distinct blocks.
func NewDoubleProposalEvidence(a, b SignedHeader) (*Evidence, error) {
	if a.Header.Height != b.Header.Height || a.Header.Proposer != b.Header.Proposer {
		return nil, fmt.Errorf("%w: headers disagree on height or proposer", ErrBadEvidence)
	}
	ha, hb := a.Header.Hash(), b.Header.Hash()
	if ha == hb {
		return nil, fmt.Errorf("%w: headers name the same block", ErrBadEvidence)
	}
	if bytes.Compare(ha[:], hb[:]) > 0 {
		a, b = b, a
	}
	return &Evidence{
		Kind: EvidenceDoubleProposal, Height: a.Header.Height, Offender: a.Header.Proposer,
		FirstHeader: &a, SecondHeader: &b,
	}, nil
}

// NewDoubleVoteEvidence builds evidence from two votes by the same
// validator at the same height for distinct blocks, and the signed
// headers of those blocks (ha of a's, hb of b's), which must name the
// same proposer.
func NewDoubleVoteEvidence(a, b Vote, ha, hb SignedHeader) (*Evidence, error) {
	if a.Height != b.Height || a.Voter != b.Voter {
		return nil, fmt.Errorf("%w: votes disagree on height or voter", ErrBadEvidence)
	}
	if a.Block == b.Block {
		return nil, fmt.Errorf("%w: votes name the same block", ErrBadEvidence)
	}
	if bytes.Compare(a.Block[:], b.Block[:]) > 0 {
		a, b, ha, hb = b, a, hb, ha
	}
	ev := &Evidence{
		Kind: EvidenceDoubleVote, Height: a.Height, Offender: a.Voter,
		FirstHeader: &ha, SecondHeader: &hb, FirstVote: &a, SecondVote: &b,
	}
	if err := ev.checkVotedHeaders(); err != nil {
		return nil, err
	}
	return ev, nil
}

// checkVotedHeaders ties a double vote's two headers to its two votes:
// each hashes to its vote's block at the evidence height, and both name
// one proposer. The vote signatures cover the header hashes, so the
// headers need no signature check of their own.
func (e *Evidence) checkVotedHeaders() error {
	ha, hb := e.FirstHeader, e.SecondHeader
	if ha == nil || hb == nil {
		return fmt.Errorf("%w: double-vote needs the two voted headers", ErrBadEvidence)
	}
	if ha.Header.Hash() != e.FirstVote.Block || hb.Header.Hash() != e.SecondVote.Block {
		return fmt.Errorf("%w: headers do not hash to the voted blocks", ErrBadEvidence)
	}
	if ha.Header.Height != e.Height || hb.Header.Height != e.Height {
		return fmt.Errorf("%w: header heights do not match evidence height %d", ErrBadEvidence, e.Height)
	}
	if ha.Header.Proposer != hb.Header.Proposer {
		return fmt.Errorf("%w: voted blocks of two proposers (failover, not equivocation)", ErrBadEvidence)
	}
	return nil
}

// Verify re-checks the evidence against a validator set: both artifacts
// must be signed by Offender (a member of the set), name Height, and
// name two distinct blocks — for a double vote, two blocks of one
// proposer.
func (e *Evidence) Verify(vals *ValidatorSet) error {
	if e == nil {
		return fmt.Errorf("%w: nil evidence", ErrBadEvidence)
	}
	switch e.Kind {
	case EvidenceDoubleProposal:
		a, b := e.FirstHeader, e.SecondHeader
		if a == nil || b == nil {
			return fmt.Errorf("%w: double-proposal needs two signed headers", ErrBadEvidence)
		}
		if a.Header.Height != e.Height || b.Header.Height != e.Height {
			return fmt.Errorf("%w: header heights do not match evidence height %d", ErrBadEvidence, e.Height)
		}
		if a.Header.Proposer != e.Offender || b.Header.Proposer != e.Offender {
			return fmt.Errorf("%w: header proposers do not match offender %s", ErrBadEvidence, e.Offender.Short())
		}
		if a.Header.Hash() == b.Header.Hash() {
			return fmt.Errorf("%w: headers name the same block", ErrBadEvidence)
		}
		if err := verifyHeaderSig(&a.Header, a.Sig, vals); err != nil {
			return err
		}
		return verifyHeaderSig(&b.Header, b.Sig, vals)
	case EvidenceDoubleVote:
		a, b := e.FirstVote, e.SecondVote
		if a == nil || b == nil {
			return fmt.Errorf("%w: double-vote needs two votes", ErrBadEvidence)
		}
		if a.Height != e.Height || b.Height != e.Height {
			return fmt.Errorf("%w: vote heights do not match evidence height %d", ErrBadEvidence, e.Height)
		}
		if a.Voter != e.Offender || b.Voter != e.Offender {
			return fmt.Errorf("%w: voters do not match offender %s", ErrBadEvidence, e.Offender.Short())
		}
		if a.Block == b.Block {
			return fmt.Errorf("%w: votes name the same block", ErrBadEvidence)
		}
		if err := e.checkVotedHeaders(); err != nil {
			return err
		}
		if err := VerifyVote(*a, vals); err != nil {
			return err
		}
		return VerifyVote(*b, vals)
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadEvidence, e.Kind)
	}
}

// Encode serializes the evidence for on-chain reporting.
func (e *Evidence) Encode() ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("consensus: encode evidence: %w", err)
	}
	return b, nil
}

// DecodeEvidence parses an encoded evidence record.
func DecodeEvidence(b []byte) (*Evidence, error) {
	var e Evidence
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("consensus: decode evidence: %w", err)
	}
	return &e, nil
}
