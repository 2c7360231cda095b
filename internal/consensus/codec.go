package consensus

import (
	"fmt"
	"strconv"

	"medchain/internal/canonjson"
	"medchain/internal/ledger"
)

// Votes, certificates and proposals travel as the JSON encoding/json
// writes for them. The functions below write those bytes without
// reflection and read them back in one pass; any other spelling is
// refused with canonjson.ErrNonCanonical. The types carry no JSON
// methods, so json.Marshal of them stays the tests' reference encoding.

// voteSize is about the encoded size of a vote: two hex digests and a
// 64-number signature.
const voteSize = 384

func appendVote(dst []byte, v *Vote) []byte {
	dst = append(dst, `{"height":`...)
	dst = strconv.AppendUint(dst, v.Height, 10)
	dst = append(dst, `,"block":`...)
	dst = canonjson.AppendHex(dst, v.Block[:])
	dst = append(dst, `,"voter":`...)
	dst = canonjson.AppendHex(dst, v.Voter[:])
	dst = append(dst, `,"sig":`...)
	dst = canonjson.AppendByteArray(dst, v.Sig[:])
	return append(dst, '}')
}

func readVote(r *canonjson.Reader, v *Vote) {
	r.Lit(`{"height":`)
	v.Height = r.Uint()
	r.Lit(`,"block":`)
	r.Hex(v.Block[:])
	r.Lit(`,"voter":`)
	r.Hex(v.Voter[:])
	r.Lit(`,"sig":`)
	r.ByteArray(v.Sig[:])
	r.Lit(`}`)
}

// Encode serializes the vote for gossip.
func (v *Vote) Encode() []byte {
	return appendVote(make([]byte, 0, voteSize), v)
}

// DecodeVote parses a gossiped vote.
func DecodeVote(b []byte) (Vote, error) {
	var v Vote
	r := canonjson.NewReader(b)
	readVote(&r, &v)
	if err := r.Err(); err != nil {
		return Vote{}, fmt.Errorf("consensus: decode vote: %w", err)
	}
	return v, nil
}

// Encode serializes the certificate for use as a block seal.
func (qc *QuorumCert) Encode() ([]byte, error) {
	if qc == nil {
		return []byte("null"), nil
	}
	dst := make([]byte, 0, 96+len(qc.Votes)*voteSize)
	dst = append(dst, `{"block":`...)
	dst = canonjson.AppendHex(dst, qc.Block[:])
	dst = append(dst, `,"votes":`...)
	if qc.Votes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range qc.Votes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendVote(dst, &qc.Votes[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// DecodeQuorumCert parses a certificate.
func DecodeQuorumCert(b []byte) (*QuorumCert, error) {
	qc := new(QuorumCert)
	r := canonjson.NewReader(b)
	r.Lit(`{"block":`)
	r.Hex(qc.Block[:])
	r.Lit(`,"votes":`)
	if !r.Skip("null") {
		r.Lit(`[`)
		qc.Votes = []Vote{}
		if !r.Skip(`]`) {
			for {
				var v Vote
				readVote(&r, &v)
				qc.Votes = append(qc.Votes, v)
				if !r.Skip(`,`) {
					break
				}
			}
			r.Lit(`]`)
		}
	}
	r.Lit(`}`)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("consensus: decode cert: %w", err)
	}
	return qc, nil
}

// Encode serializes the proposal for gossip.
func (sp *SignedProposal) Encode() ([]byte, error) {
	if sp == nil {
		return []byte("null"), nil
	}
	dst := []byte(`{"block":`)
	dst = ledger.AppendBlockJSON(dst, sp.Block)
	dst = append(dst, `,"sig":`...)
	dst = canonjson.AppendByteArray(dst, sp.Sig[:])
	return append(dst, '}'), nil
}

// DecodeSignedProposal parses a gossiped proposal. A proposal without a
// block is refused like any other non-canonical bytes.
func DecodeSignedProposal(b []byte) (*SignedProposal, error) {
	sp := new(SignedProposal)
	r := canonjson.NewReader(b)
	r.Lit(`{"block":`)
	sp.Block = ledger.ReadBlockJSON(&r)
	r.Lit(`,"sig":`)
	r.ByteArray(sp.Sig[:])
	r.Lit(`}`)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("consensus: decode proposal: %w", err)
	}
	return sp, nil
}
