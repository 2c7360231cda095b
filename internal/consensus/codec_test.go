package consensus

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"medchain/internal/canonjson/canontest"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// codecProposal is a signed proposal for a sealed block carrying two
// signed transactions and a nil one.
func codecProposal(t testing.TB) (*SignedProposal, []*cryptoutil.KeyPair) {
	keys := testKeys(t, 4)
	blk := testBlock(3)
	for i := 0; i < 2; i++ {
		tx := &ledger.Transaction{Type: ledger.TxData, Nonce: uint64(i), Method: "register", Args: []byte(`{"id":"d"}`), Timestamp: 9}
		if err := tx.Sign(keys[i]); err != nil {
			t.Fatal(err)
		}
		blk.Txs = append(blk.Txs, tx)
	}
	blk.Txs = append(blk.Txs, nil)
	blk.Header.Proposer = keys[0].Address()
	seal, _ := (&QuorumCert{Block: blk.Hash(), Votes: []Vote{{Height: 3}}}).Encode()
	blk.Seal = seal
	sp, err := SignProposal(blk, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	return sp, keys
}

// TestConsensusCodecMatchesEncodingJSON holds the proposal, vote and
// certificate encoders to json.Marshal's bytes and their decoders to the
// value encoded.
func TestConsensusCodecMatchesEncodingJSON(t *testing.T) {
	for _, v := range []any{&SignedProposal{}, &Vote{}, &QuorumCert{}} {
		if _, ok := v.(json.Marshaler); ok {
			t.Fatalf("%T has a MarshalJSON: the reflective reference would no longer be encoding/json's", v)
		}
		if _, ok := v.(json.Unmarshaler); ok {
			t.Fatalf("%T has an UnmarshalJSON: the fallback would no longer be encoding/json's", v)
		}
	}
	sp, keys := codecProposal(t)
	qc := gatherCert(t, 3, sp.Block.Hash(), keys, 3)
	roundTrip := func(what string, v any, enc []byte, decode func([]byte) (any, error)) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%s: Encode\n%s\njson.Marshal\n%s", what, enc, want)
		}
		back, err := decode(enc)
		if err != nil || !reflect.DeepEqual(back, v) {
			t.Fatalf("%s: decoded %+v, %v; encoded %+v", what, back, err, v)
		}
	}
	decodeSP := func(b []byte) (any, error) { return DecodeSignedProposal(b) }
	decodeQC := func(b []byte) (any, error) { return DecodeQuorumCert(b) }
	for _, p := range []*SignedProposal{sp, {Block: testBlock(0)}} {
		enc, _ := p.Encode()
		roundTrip("proposal", p, enc, decodeSP)
	}
	for _, c := range []*QuorumCert{qc, {}, {Votes: []Vote{}}} {
		enc, _ := c.Encode()
		roundTrip("cert", c, enc, decodeQC)
	}
	for _, v := range append(qc.Votes, Vote{}) {
		roundTrip("vote", v, v.Encode(), func(b []byte) (any, error) { return DecodeVote(b) })
	}
}

// FuzzConsensusCodec is FuzzLedgerCodec for proposals, votes and
// certificates: any bytes decode as json.Unmarshal into the type decodes
// them (the same value, or an error with the same text), and every value
// decoded encodes as json.Marshal writes it.
func FuzzConsensusCodec(f *testing.F) {
	sp, keys := codecProposal(f)
	canonSP, _ := sp.Encode()
	qc := gatherCert(f, 3, sp.Block.Hash(), keys, 2)
	canonQC, _ := qc.Encode()
	canonVote := qc.Votes[0].Encode()
	canonBlk, _ := sp.Block.Encode()
	add := func(kind uint8, canon []byte) {
		f.Add(kind, canon)
		for _, seed := range canontest.Variants(canon) {
			f.Add(kind, seed)
		}
	}
	add(0, canonSP)
	add(1, canonVote)
	add(2, canonQC)
	for _, seed := range canontest.Variants(canonBlk) {
		f.Add(uint8(0), bytes.Replace(canonSP, canonBlk, seed, 1))
	}
	for _, seed := range canontest.Variants(canonVote) {
		f.Add(uint8(2), bytes.Replace(canonQC, canonVote, seed, 1))
	}
	s := string(canonVote)
	sig := s[strings.Index(s, `"sig":`)+len(`"sig":`) : len(s)-1]
	for _, r := range [][2]string{
		{`"height":3`, `"height":03`},
		{`"height":3`, `"height":3e0`},
		{`"voter":"`, `"voter":"AB`},
		{sig, sig[:strings.LastIndexByte(sig, ',')] + "]"},
		{sig, strings.TrimSuffix(sig, "]") + ",1]"},
		{sig, "[" + strings.Repeat("256,", 63) + "256]"},
	} {
		f.Add(uint8(1), []byte(strings.Replace(s, r[0], r[1], 1)))
	}
	f.Add(uint8(2), []byte(`{"block":"`+qc.Block.String()+`","votes":[]}`))
	f.Add(uint8(2), []byte(`{"block":"`+qc.Block.String()+`","votes":null}`))
	f.Add(uint8(0), []byte(`{"block":null,"sig":`+sig+`}`))

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch kind % 3 {
		case 0:
			got, err := DecodeSignedProposal(data)
			var ref SignedProposal
			refErr := json.Unmarshal(data, &ref)
			if refErr == nil && ref.Block == nil {
				if err == nil || !strings.Contains(err.Error(), "proposal carries no block") {
					t.Fatalf("proposal %q without a block: %v", data, err)
				}
				return
			}
			canontest.CheckDecode(t, "proposal", data, got, &ref, err, refErr, "consensus: decode proposal: ")
			if err == nil {
				canontest.CheckEncode(t, data, got.Encode, &ref)
			}
		case 1:
			got, err := DecodeVote(data)
			var ref Vote
			refErr := json.Unmarshal(data, &ref)
			canontest.CheckDecode(t, "vote", data, &got, &ref, err, refErr, "consensus: decode vote: ")
			if err == nil {
				canontest.CheckEncode(t, data, func() ([]byte, error) { return got.Encode(), nil }, &ref)
			}
		default:
			got, err := DecodeQuorumCert(data)
			var ref QuorumCert
			refErr := json.Unmarshal(data, &ref)
			canontest.CheckDecode(t, "cert", data, got, &ref, err, refErr, "consensus: decode cert: ")
			if err == nil {
				canontest.CheckEncode(t, data, got.Encode, &ref)
			}
		}
	})
}

// BenchmarkProposalCodec times a 64-transaction proposal's Encode and
// DecodeSignedProposal, and a vote's, against encoding/json's reflective
// path.
func BenchmarkProposalCodec(b *testing.B) {
	keys := testKeys(b, 4)
	blk := testBlock(5)
	blk.Header.Proposer = keys[0].Address()
	for i := 0; i < 64; i++ {
		tx := &ledger.Transaction{Type: ledger.TxData, Nonce: uint64(i), Method: "register",
			Args: bytes.Repeat([]byte("a"), 240), Timestamp: 1_700_000_000_000_000_000}
		if err := tx.Sign(keys[1]); err != nil {
			b.Fatal(err)
		}
		blk.Txs = append(blk.Txs, tx)
	}
	sp, err := SignProposal(blk, keys[0])
	if err != nil {
		b.Fatal(err)
	}
	enc, _ := sp.Encode()
	vote, err := SignVote(5, blk.Hash(), keys[2])
	if err != nil {
		b.Fatal(err)
	}
	venc := vote.Encode()
	for _, bm := range []struct {
		name string
		run  func()
	}{
		{"encode", func() { _, _ = sp.Encode() }},
		{"encode-reflect", func() { _, _ = json.Marshal(sp) }},
		{"decode", func() { _, _ = DecodeSignedProposal(enc) }},
		{"decode-reflect", func() { var sp SignedProposal; _ = json.Unmarshal(enc, &sp) }},
		{"vote-decode", func() { _, _ = DecodeVote(venc) }},
		{"vote-decode-reflect", func() { var v Vote; _ = json.Unmarshal(venc, &v) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.run()
			}
		})
	}
}
