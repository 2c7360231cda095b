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
			t.Fatalf("%T has an UnmarshalJSON: the reference decode would no longer be encoding/json's", v)
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

// consensusSeeds returns, by decoder kind (0 proposal, 1 vote, 2
// certificate), the canonical encodings of codecProposal's traffic and
// their twins: each message's own, a block's inside its proposal, a
// vote's inside its certificate, a vote's numbers and signature
// respelled, and a partial object.
func consensusSeeds(t testing.TB) (canon, twins [3][][]byte) {
	sp, keys := codecProposal(t)
	canonSP, _ := sp.Encode()
	qc := gatherCert(t, 3, sp.Block.Hash(), keys, 2)
	canonQC, _ := qc.Encode()
	canonVote := qc.Votes[0].Encode()
	canonBlk, _ := sp.Block.Encode()
	for kind, c := range [][]byte{canonSP, canonVote, canonQC} {
		canon[kind] = append(canon[kind], c)
		twins[kind] = append(twins[kind], canontest.Variants(c)...)
	}
	for _, seed := range canontest.Variants(canonBlk) {
		twins[0] = append(twins[0], bytes.Replace(canonSP, canonBlk, seed, 1))
	}
	for _, seed := range canontest.Variants(canonVote) {
		twins[2] = append(twins[2], bytes.Replace(canonQC, canonVote, seed, 1))
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
		twins[1] = append(twins[1], []byte(strings.Replace(s, r[0], r[1], 1)))
	}
	twins[0] = append(twins[0], []byte(`{"sig":`+sig+`}`))
	twins[1] = append(twins[1], []byte(`{"height":3}`))
	twins[2] = append(twins[2], []byte(`{"block":"`+qc.Block.String()+`"}`))
	canon[2] = append(canon[2],
		[]byte(`{"block":"`+qc.Block.String()+`","votes":[]}`),
		[]byte(`{"block":"`+qc.Block.String()+`","votes":null}`))
	return canon, twins
}

// decodeConsensus decodes data as a proposal, a vote or a certificate
// and holds the result with canontest.CheckDecode; it returns the
// decoder's error.
func decodeConsensus(t testing.TB, kind int, data []byte) error {
	switch kind {
	case 0:
		got, err := DecodeSignedProposal(data)
		canontest.CheckDecode(t, "proposal", data, got, err, got.Encode)
		return err
	case 1:
		got, err := DecodeVote(data)
		canontest.CheckDecode(t, "vote", data, &got, err, func() ([]byte, error) { return got.Encode(), nil })
		return err
	default:
		got, err := DecodeQuorumCert(data)
		canontest.CheckDecode(t, "cert", data, got, err, got.Encode)
		return err
	}
}

// TestConsensusTwinsRefused: every twin of a proposal, a vote and a
// certificate, and a partial object of each, is refused with
// canonjson.ErrNonCanonical. encoding/json reads null and the partial
// objects as zero values.
func TestConsensusTwinsRefused(t *testing.T) {
	_, twins := consensusSeeds(t)
	for _, b := range twins[0] {
		canontest.CheckRefused[SignedProposal](t, "proposal", b, decodeConsensus(t, 0, b))
	}
	for _, b := range twins[1] {
		canontest.CheckRefused[Vote](t, "vote", b, decodeConsensus(t, 1, b))
	}
	for _, b := range twins[2] {
		canontest.CheckRefused[QuorumCert](t, "cert", b, decodeConsensus(t, 2, b))
	}
}

// FuzzConsensusCodec is FuzzLedgerCodec for proposals, votes and
// certificates: any bytes are refused with canonjson.ErrNonCanonical,
// or decode to the value json.Unmarshal reads, which Encode writes back
// as the same bytes — json.Marshal's.
func FuzzConsensusCodec(f *testing.F) {
	canon, twins := consensusSeeds(f)
	for kind := range canon {
		for _, b := range append(canon[kind], twins[kind]...) {
			f.Add(uint8(kind), b)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		decodeConsensus(t, int(kind%3), data)
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
