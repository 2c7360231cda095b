package consensus

import (
	"fmt"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

func testKeys(t testing.TB, n int) []*cryptoutil.KeyPair {
	t.Helper()
	keys := make([]*cryptoutil.KeyPair, n)
	for i := range keys {
		kp, err := cryptoutil.DeriveKeyPair(fmt.Sprintf("validator-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
	}
	return keys
}

func testBlock(height uint64) *ledger.Block {
	return &ledger.Block{
		Header: ledger.Header{
			Height:    height,
			Parent:    cryptoutil.Sum([]byte("parent")),
			TxRoot:    cryptoutil.ZeroDigest,
			StateRoot: cryptoutil.Sum([]byte("state")),
			Timestamp: 100,
		},
	}
}

func TestValidatorSetBasics(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Len() != 4 {
		t.Fatalf("Len = %d", vs.Len())
	}
	for _, k := range keys {
		if !vs.Contains(k.Address()) {
			t.Fatalf("validator %s missing", k.Address().Short())
		}
	}
	if vs.Contains(cryptoutil.NamedAddress("outsider")) {
		t.Fatal("outsider reported as validator")
	}
	// Round robin cycles through all validators.
	seen := make(map[cryptoutil.Address]bool)
	for h := uint64(0); h < 4; h++ {
		seen[vs.ProposerFor(h).Addr] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round robin covered %d validators, want 4", len(seen))
	}
	if vs.ProposerFor(0).Addr != vs.ProposerFor(4).Addr {
		t.Fatal("round robin not periodic")
	}
}

func TestValidatorSetErrors(t *testing.T) {
	if _, err := NewValidatorSetFrom(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	keys := testKeys(t, 1)
	v := Validator{Addr: keys[0].Address(), PubKey: keys[0].PublicBytes()}
	if _, err := NewValidatorSetFrom([]Validator{v, v}); err == nil {
		t.Fatal("duplicate validator accepted")
	}
	bad := Validator{Addr: keys[0].Address(), PubKey: []byte("junk")}
	if _, err := NewValidatorSetFrom([]Validator{bad}); err == nil {
		t.Fatal("malformed public key accepted")
	}
}

func TestQuorumThreshold(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {7, 5}, {10, 7}, {13, 9},
	}
	for _, tt := range tests {
		vs, err := NewValidatorSet(testKeys(t, tt.n))
		if err != nil {
			t.Fatal(err)
		}
		if got := vs.QuorumThreshold(); got != tt.want {
			t.Fatalf("n=%d: threshold %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestPoWSealVerify(t *testing.T) {
	keys := testKeys(t, 1)
	pow := &PoW{Difficulty: 8}
	b := testBlock(1)
	if err := pow.Seal(b, keys[0]); err != nil {
		t.Fatal(err)
	}
	if err := pow.VerifySeal(b); err != nil {
		t.Fatalf("VerifySeal: %v", err)
	}
	if pow.HashAttempts() == 0 {
		t.Fatal("mining did not account hash attempts")
	}
	if b.Header.Proposer != keys[0].Address() {
		t.Fatal("proposer not set")
	}
}

func TestPoWRejectsUnminedBlock(t *testing.T) {
	pow := &PoW{Difficulty: 20}
	b := testBlock(1)
	b.Header.Difficulty = 20
	// Overwhelmingly unlikely that nonce 0 meets 20 bits.
	if err := pow.VerifySeal(b); err == nil {
		t.Fatal("unmined block accepted")
	}
	b.Header.Difficulty = 0
	if err := pow.VerifySeal(b); err == nil {
		t.Fatal("difficulty below target accepted")
	}
}

func TestPoWWorkScalesWithDifficulty(t *testing.T) {
	keys := testKeys(t, 1)
	work := func(diff uint8) int64 {
		pow := &PoW{Difficulty: diff}
		var total int64
		for i := 0; i < 8; i++ {
			b := testBlock(uint64(i + 1))
			b.Header.Timestamp = int64(i)
			if err := pow.Seal(b, keys[0]); err != nil {
				t.Fatal(err)
			}
		}
		total = pow.HashAttempts()
		return total
	}
	lo, hi := work(2), work(10)
	if hi <= lo {
		t.Fatalf("difficulty 10 used %d hashes <= difficulty 2's %d", hi, lo)
	}
}

func TestPoWResetWork(t *testing.T) {
	keys := testKeys(t, 1)
	pow := &PoW{Difficulty: 4}
	if err := pow.Seal(testBlock(1), keys[0]); err != nil {
		t.Fatal(err)
	}
	pow.ResetWork()
	if pow.HashAttempts() != 0 {
		t.Fatal("ResetWork did not zero counter")
	}
}

func TestPoWAnyoneProposes(t *testing.T) {
	pow := &PoW{}
	if _, restricted := pow.ProposerAt(5); restricted {
		t.Fatal("PoW restricted proposer")
	}
}

func TestPoASealVerify(t *testing.T) {
	keys := testKeys(t, 3)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	poa := NewPoA(vs)
	for h := uint64(1); h <= 6; h++ {
		b := testBlock(h)
		proposer := keys[int(h)%3]
		if err := poa.Seal(b, proposer); err != nil {
			t.Fatalf("height %d: %v", h, err)
		}
		if err := poa.VerifySeal(b); err != nil {
			t.Fatalf("height %d verify: %v", h, err)
		}
	}
}

func TestPoARejectsWrongProposer(t *testing.T) {
	keys := testKeys(t, 3)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	poa := NewPoA(vs)
	b := testBlock(1)
	if err := poa.Seal(b, keys[0]); err == nil { // height 1 expects keys[1]
		t.Fatal("out-of-turn proposer sealed")
	}
	// Seal correctly then forge the proposer field.
	if err := poa.Seal(b, keys[1]); err != nil {
		t.Fatal(err)
	}
	b.Header.Proposer = keys[2].Address()
	if err := poa.VerifySeal(b); err == nil {
		t.Fatal("forged proposer accepted")
	}
}

func TestPoARejectsTamperedSeal(t *testing.T) {
	keys := testKeys(t, 3)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	poa := NewPoA(vs)
	b := testBlock(1)
	if err := poa.Seal(b, keys[1]); err != nil {
		t.Fatal(err)
	}
	b.Seal[0] ^= 0xFF
	if err := poa.VerifySeal(b); err == nil {
		t.Fatal("tampered seal accepted")
	}
	b.Seal = b.Seal[:10]
	if err := poa.VerifySeal(b); err == nil {
		t.Fatal("truncated seal accepted")
	}
}

func TestPoAProposerAt(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	poa := NewPoA(vs)
	addr, restricted := poa.ProposerAt(6)
	if !restricted {
		t.Fatal("PoA must restrict proposers")
	}
	if addr != keys[2].Address() {
		t.Fatalf("ProposerAt(6) = %s, want validator 2", addr.Short())
	}
}

func gatherCert(t testing.TB, height uint64, block cryptoutil.Digest, keys []*cryptoutil.KeyPair, n int) *QuorumCert {
	t.Helper()
	qc := &QuorumCert{Block: block}
	for i := 0; i < n; i++ {
		v, err := SignVote(height, block, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		qc.Votes = append(qc.Votes, v)
	}
	return qc
}

func TestQuorumAttachAndVerify(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = keys[1].Address()
	qc := gatherCert(t, 1, b.Hash(), keys, 3) // threshold for 4 is 3
	if err := q.AttachCert(b, qc); err != nil {
		t.Fatal(err)
	}
	if err := q.VerifySeal(b); err != nil {
		t.Fatalf("VerifySeal: %v", err)
	}
}

func TestQuorumRejectsTooFewVotes(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = keys[1].Address()
	qc := gatherCert(t, 1, b.Hash(), keys, 2)
	if err := q.AttachCert(b, qc); err == nil {
		t.Fatal("2-vote cert accepted with threshold 3")
	}
}

func TestQuorumIgnoresDuplicateAndForeignVotes(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = keys[0].Address()
	// Two real votes + one duplicated + one from a non-validator: only
	// 2 distinct valid votes, below threshold 3.
	qc := gatherCert(t, 1, b.Hash(), keys, 2)
	qc.Votes = append(qc.Votes, qc.Votes[0])
	outsider, err := cryptoutil.DeriveKeyPair("outsider")
	if err != nil {
		t.Fatal(err)
	}
	ov, err := SignVote(1, b.Hash(), outsider)
	if err != nil {
		t.Fatal(err)
	}
	qc.Votes = append(qc.Votes, ov)
	if err := q.AttachCert(b, qc); err == nil {
		t.Fatal("padded cert accepted")
	}
}

func TestQuorumRejectsWrongBlockCert(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = keys[0].Address()
	other := testBlock(2)
	qc := gatherCert(t, 2, other.Hash(), keys, 3)
	if err := q.AttachCert(b, qc); err == nil {
		t.Fatal("certificate for another block accepted")
	}
}

func TestQuorumRejectsForgedVoteSig(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = keys[0].Address()
	qc := gatherCert(t, 1, b.Hash(), keys, 3)
	qc.Votes[2].Sig[0] ^= 0xFF
	if err := q.AttachCert(b, qc); err == nil {
		t.Fatal("forged vote signature accepted")
	}
}

func TestQuorumRejectsNonValidatorProposer(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = cryptoutil.NamedAddress("intruder")
	qc := gatherCert(t, 1, b.Hash(), keys, 3)
	seal, err := qc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b.Seal = seal
	if err := q.VerifySeal(b); err == nil {
		t.Fatal("non-validator proposer accepted")
	}
}

func TestQuorumSealErrors(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	if err := q.Seal(testBlock(1), keys[0]); err == nil {
		t.Fatal("Quorum.Seal must refuse local sealing")
	}
	b := testBlock(1)
	b.Header.Proposer = keys[0].Address()
	b.Seal = []byte("garbage")
	if err := q.VerifySeal(b); err == nil {
		t.Fatal("garbage seal accepted")
	}
}

func TestQuorumCertEncodeDecode(t *testing.T) {
	keys := testKeys(t, 4)
	qc := gatherCert(t, 1, cryptoutil.Sum([]byte("b")), keys, 3)
	enc, err := qc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQuorumCert(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Block != qc.Block || len(got.Votes) != 3 {
		t.Fatal("cert round trip mismatch")
	}
	if _, err := DecodeQuorumCert([]byte("{{")); err == nil {
		t.Fatal("malformed cert accepted")
	}
}

func TestEngineNames(t *testing.T) {
	keys := testKeys(t, 1)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		e    Engine
		want string
	}{
		{&PoW{}, "pow"},
		{NewPoA(vs), "poa"},
		{NewQuorum(vs), "quorum"},
	} {
		if tt.e.Name() != tt.want {
			t.Fatalf("Name() = %q, want %q", tt.e.Name(), tt.want)
		}
	}
}

func TestNilBlockHandling(t *testing.T) {
	keys := testKeys(t, 1)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	engines := []Engine{&PoW{}, NewPoA(vs), NewQuorum(vs)}
	for _, e := range engines {
		if err := e.VerifySeal(nil); err == nil {
			t.Fatalf("%s: nil block verified", e.Name())
		}
	}
	if err := (&PoW{}).Seal(nil, keys[0]); err == nil {
		t.Fatal("PoW sealed nil block")
	}
	if err := NewPoA(vs).Seal(nil, keys[0]); err == nil {
		t.Fatal("PoA sealed nil block")
	}
	q := NewQuorum(vs)
	if err := q.AttachCert(nil, &QuorumCert{}); err == nil {
		t.Fatal("Quorum attached cert to nil block")
	}
}

func TestLeadingZeroBits(t *testing.T) {
	var d cryptoutil.Digest
	if got := leadingZeroBits(d); got != 256 {
		t.Fatalf("all-zero digest: %d bits, want 256", got)
	}
	d[0] = 0x80
	if got := leadingZeroBits(d); got != 0 {
		t.Fatalf("0x80 leading: %d bits, want 0", got)
	}
	d[0] = 0x01
	if got := leadingZeroBits(d); got != 7 {
		t.Fatalf("0x01 leading: %d bits, want 7", got)
	}
	d[0] = 0x00
	d[1] = 0x10
	if got := leadingZeroBits(d); got != 11 {
		t.Fatalf("0x0010 leading: %d bits, want 11", got)
	}
}

func BenchmarkPoWSealD8(b *testing.B) {
	keys := testKeys(b, 1)
	pow := &PoW{Difficulty: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := testBlock(uint64(i + 1))
		if err := pow.Seal(blk, keys[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoASeal(b *testing.B) {
	keys := testKeys(b, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		b.Fatal(err)
	}
	poa := NewPoA(vs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := testBlock(uint64(i))
		if err := poa.Seal(blk, keys[i%4]); err != nil {
			b.Fatal(err)
		}
	}
}

// The engine verifies each vote once: votes that came through
// VerifyVote (vote ingress) or SignVote (the node's own) cost nothing
// when AttachCert and VerifySeal meet them again in the certificate,
// while an engine that collected nothing — a follower's — verifies
// every signature. At the parent commit the collecting node ran
// 2·|cert| further verifications per block.
func TestQuorumVerifiesEachVoteOnce(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	proposer, follower := NewQuorum(vs), NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = keys[0].Address()

	own, err := proposer.SignVote(1, b.Hash(), keys[0])
	if err != nil {
		t.Fatal(err)
	}
	qc := &QuorumCert{Block: b.Hash(), Votes: []Vote{own}}
	for _, k := range keys[1:] {
		v, err := SignVote(1, b.Hash(), k)
		if err != nil {
			t.Fatal(err)
		}
		if err := proposer.VerifyVote(v); err != nil { // vote ingress
			t.Fatal(err)
		}
		qc.Votes = append(qc.Votes, v)
	}
	if err := proposer.AttachCert(b, qc); err != nil {
		t.Fatal(err)
	}
	if err := proposer.VerifySeal(b); err != nil {
		t.Fatal(err)
	}
	if v, h := proposer.VoteVerifyCounts(); v != 3 || h != 8 {
		t.Fatalf("collector: %d verifications, %d memo hits; want 3 (votes received) and 8 (two passes over 4 votes)", v, h)
	}
	if err := follower.VerifySeal(b); err != nil {
		t.Fatal(err)
	}
	if v, h := follower.VoteVerifyCounts(); v != 4 || h != 0 {
		t.Fatalf("follower: %d verifications, %d memo hits; want 4 and 0", v, h)
	}
}

// The memo is bound to the signature bytes: a certificate holding a
// vote with one signature bit flipped is refused by every engine, the
// one that verified the genuine vote included, and a failed vote is
// never remembered.
func TestQuorumMemoDoesNotLaunderFlippedSignature(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	collector, stranger := NewQuorum(vs), NewQuorum(vs)
	b := testBlock(1)
	b.Header.Proposer = keys[0].Address()
	qc := gatherCert(t, 1, b.Hash(), keys, 3) // exactly the threshold
	if err := collector.AttachCert(b, qc); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(qc.Votes[2].Sig); bit += 37 {
		forged := *qc
		forged.Votes = append([]Vote(nil), qc.Votes...)
		forged.Votes[2].Sig[bit/8] ^= 1 << (bit % 8)
		seal, err := forged.Encode()
		if err != nil {
			t.Fatal(err)
		}
		fb := *b
		fb.Seal = seal
		for name, q := range map[string]*Quorum{"collector": collector, "stranger": stranger} {
			for pass := 0; pass < 2; pass++ { // the second pass would hit a memoised failure
				if err := q.VerifySeal(&fb); err == nil {
					t.Fatalf("%s accepted a certificate with signature bit %d flipped (pass %d)", name, bit, pass)
				}
			}
		}
	}
	if err := collector.VerifySeal(b); err != nil {
		t.Fatalf("genuine certificate refused afterwards: %v", err)
	}
}

// The memo is bounded: past two generations the oldest marks are gone
// and such a vote is simply verified again.
func TestQuorumMemoIsBounded(t *testing.T) {
	keys := testKeys(t, 4)
	vs, err := NewValidatorSet(keys)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuorum(vs)
	first, err := q.SignVote(1, cryptoutil.Sum([]byte("first")), keys[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*voteMemoGen; i++ {
		if _, err := q.SignVote(uint64(i+2), cryptoutil.Sum([]byte(fmt.Sprint(i))), keys[0]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(q.seen.cur) + len(q.seen.old); n > 2*voteMemoGen {
		t.Fatalf("memo holds %d marks, bound is %d", n, 2*voteMemoGen)
	}
	if err := q.VerifyVote(first); err != nil {
		t.Fatal(err)
	}
	if v, _ := q.VoteVerifyCounts(); v != 1 {
		t.Fatalf("evicted vote cost %d verifications, want 1", v)
	}
}
