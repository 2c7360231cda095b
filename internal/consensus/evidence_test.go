package consensus

import (
	"errors"
	"testing"

	"medchain/internal/canonjson"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

func testHeader(height uint64, proposer cryptoutil.Address, salt string) ledger.Header {
	return ledger.Header{
		Height:    height,
		Parent:    cryptoutil.Sum([]byte("parent")),
		TxRoot:    cryptoutil.Sum([]byte("txroot")),
		StateRoot: cryptoutil.Sum([]byte("state-" + salt)),
		Timestamp: 42,
		Proposer:  proposer,
	}
}

func signHeader(t *testing.T, h ledger.Header, key *cryptoutil.KeyPair) SignedHeader {
	t.Helper()
	sp, err := SignProposal(&ledger.Block{Header: h}, key)
	if err != nil {
		t.Fatal(err)
	}
	return sp.Header()
}

func TestSignedProposalRoundTrip(t *testing.T) {
	keys := testKeys(t, 4)
	vals, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	blk := &ledger.Block{Header: testHeader(3, keys[1].Address(), "a")}
	sp, err := SignProposal(blk, keys[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Verify(vals); err != nil {
		t.Fatalf("fresh proposal failed verify: %v", err)
	}

	enc, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSignedProposal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Block.Hash() != blk.Hash() {
		t.Fatal("decoded proposal names a different block")
	}
	if err := dec.Verify(vals); err != nil {
		t.Fatalf("decoded proposal failed verify: %v", err)
	}
}

func TestSignedProposalRejections(t *testing.T) {
	keys := testKeys(t, 4)
	vals, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	blk := &ledger.Block{Header: testHeader(1, keys[0].Address(), "a")}

	// Signing key must match the header's proposer.
	if _, err := SignProposal(blk, keys[1]); !errors.Is(err, ErrBadProposal) {
		t.Fatalf("mismatched signer: got %v, want ErrBadProposal", err)
	}

	// A non-validator proposer is rejected even with a valid signature.
	outsider, err := cryptoutil.DeriveKeyPair("outsider")
	if err != nil {
		t.Fatal(err)
	}
	outBlk := &ledger.Block{Header: testHeader(1, outsider.Address(), "a")}
	sp, err := SignProposal(outBlk, outsider)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Verify(vals); !errors.Is(err, ErrNotValidator) {
		t.Fatalf("outsider proposal: got %v, want ErrNotValidator", err)
	}

	// Tampering with the block after signing breaks verification.
	sp, err = SignProposal(blk, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	sp.Block.Header.StateRoot = cryptoutil.Sum([]byte("tampered"))
	if err := sp.Verify(vals); !errors.Is(err, ErrBadProposal) {
		t.Fatalf("tampered proposal: got %v, want ErrBadProposal", err)
	}

	// Garbage and block-less payloads fail to decode.
	if _, err := DecodeSignedProposal([]byte("{")); err == nil {
		t.Fatal("garbage decoded as a proposal")
	}
	blockless, _ := (&SignedProposal{}).Encode()
	for _, b := range [][]byte{[]byte(`{}`), blockless} {
		if _, err := DecodeSignedProposal(b); !errors.Is(err, canonjson.ErrNonCanonical) {
			t.Fatalf("block-less proposal %s: got %v, want canonjson.ErrNonCanonical", b, err)
		}
	}
}

func TestDoubleProposalEvidence(t *testing.T) {
	keys := testKeys(t, 4)
	vals, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	offender := keys[2]
	a := signHeader(t, testHeader(5, offender.Address(), "branch-a"), offender)
	b := signHeader(t, testHeader(5, offender.Address(), "branch-b"), offender)

	ev, err := NewDoubleProposalEvidence(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EvidenceDoubleProposal || ev.Height != 5 || ev.Offender != offender.Address() {
		t.Fatalf("evidence mislabeled: %+v", ev)
	}
	if err := ev.Verify(vals); err != nil {
		t.Fatalf("valid evidence failed verify: %v", err)
	}

	// Construction is order-independent: the same pair observed in the
	// opposite order encodes identically.
	ev2, err := NewDoubleProposalEvidence(b, a)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := ev.Encode()
	e2, _ := ev2.Encode()
	if string(e1) != string(e2) {
		t.Fatal("evidence encoding depends on observation order")
	}

	// Same block twice is not equivocation.
	if _, err := NewDoubleProposalEvidence(a, a); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("same-block pair: got %v, want ErrBadEvidence", err)
	}
	// Different heights are not a single equivocation.
	c := signHeader(t, testHeader(6, offender.Address(), "branch-a"), offender)
	if _, err := NewDoubleProposalEvidence(a, c); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("cross-height pair: got %v, want ErrBadEvidence", err)
	}

	// Round trip through the on-chain encoding stays verifiable.
	dec, err := DecodeEvidence(e1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Verify(vals); err != nil {
		t.Fatalf("decoded evidence failed verify: %v", err)
	}

	// A forged signature on one artifact invalidates the evidence.
	dec.SecondHeader.Sig = dec.FirstHeader.Sig
	if err := dec.Verify(vals); err == nil {
		t.Fatal("evidence with a forged header signature verified")
	}
}

func TestDoubleVoteEvidence(t *testing.T) {
	keys := testKeys(t, 4)
	vals, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	voter, proposer := keys[3], keys[1]
	ha := signHeader(t, testHeader(7, proposer.Address(), "a"), proposer)
	hb := signHeader(t, testHeader(7, proposer.Address(), "b"), proposer)
	vote := func(h SignedHeader, key *cryptoutil.KeyPair) Vote {
		t.Helper()
		v, err := SignVote(h.Header.Height, h.Header.Hash(), key)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	va, vb := vote(ha, voter), vote(hb, voter)

	ev, err := NewDoubleVoteEvidence(va, vb, ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EvidenceDoubleVote || ev.Height != 7 || ev.Offender != voter.Address() {
		t.Fatalf("evidence mislabeled: %+v", ev)
	}
	if err := ev.Verify(vals); err != nil {
		t.Fatalf("valid evidence failed verify: %v", err)
	}
	if ev.FirstHeader.Header.Hash() != ev.FirstVote.Block || ev.SecondHeader.Header.Hash() != ev.SecondVote.Block {
		t.Fatal("the headers are not ordered with their votes")
	}

	// Same block or different heights: not equivocation.
	if _, err := NewDoubleVoteEvidence(va, va, ha, ha); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("same-block votes: got %v, want ErrBadEvidence", err)
	}
	hc := signHeader(t, testHeader(8, proposer.Address(), "a"), proposer)
	if _, err := NewDoubleVoteEvidence(va, vote(hc, voter), ha, hc); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("cross-height votes: got %v, want ErrBadEvidence", err)
	}

	// Two different honest voters at one height are not an equivocation
	// pair either.
	if _, err := NewDoubleVoteEvidence(va, vote(hb, keys[0]), ha, hb); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("cross-voter votes: got %v, want ErrBadEvidence", err)
	}

	// Failover: one vote for each of two proposers' blocks at one height
	// is what an honest validator casts when the round moves on.
	hq := signHeader(t, testHeader(7, keys[2].Address(), "b"), keys[2])
	vq := vote(hq, voter)
	if _, err := NewDoubleVoteEvidence(va, vq, ha, hq); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("failover votes: got %v, want ErrBadEvidence", err)
	}
	failover := &Evidence{Kind: EvidenceDoubleVote, Height: 7, Offender: voter.Address(),
		FirstVote: &va, SecondVote: &vq, FirstHeader: &ha, SecondHeader: &hq}
	if err := failover.Verify(vals); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("failover pair verified: %v", err)
	}
	// Without headers, or with headers of other blocks, the votes prove
	// nothing about the proposer.
	bare := &Evidence{Kind: EvidenceDoubleVote, Height: 7, Offender: voter.Address(), FirstVote: &va, SecondVote: &vb}
	if err := bare.Verify(vals); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("headerless double vote verified: %v", err)
	}
	if _, err := NewDoubleVoteEvidence(va, vb, hb, ha); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("swapped headers: got %v, want ErrBadEvidence", err)
	}

	// Round trip, then tamper: a vote signature swap must fail.
	enc, err := ev.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeEvidence(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Verify(vals); err != nil {
		t.Fatalf("decoded evidence failed verify: %v", err)
	}
	dec.SecondVote.Sig = dec.FirstVote.Sig
	if err := dec.Verify(vals); err == nil {
		t.Fatal("evidence with a forged vote signature verified")
	}

	// Unknown kinds never verify.
	if err := (&Evidence{Kind: "made-up"}).Verify(vals); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("unknown kind: got %v, want ErrBadEvidence", err)
	}
}
