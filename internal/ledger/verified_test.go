package ledger

import (
	"errors"
	"sync"
	"testing"

	"medchain/internal/cryptoutil"
)

// forgeries returns copies of tx that keep its ID (every signed field)
// but carry a signature that is not tx's own: one flipped bit, and the
// well-formed signature the same key made over another transaction.
func forgeries(t testing.TB, kp *cryptoutil.KeyPair, tx *Transaction) []*Transaction {
	t.Helper()
	flipped := *tx
	flipped.Sig[17] ^= 0x04
	other := signedTx(t, kp, tx.Nonce+1, tx.Type)
	transplanted := *tx
	transplanted.Sig = other.Sig
	for _, f := range []*Transaction{&flipped, &transplanted} {
		if f.ID() != tx.ID() || f.Sig == tx.Sig {
			t.Fatal("test setup: forgery must share the ID and differ in Sig")
		}
	}
	return []*Transaction{&flipped, &transplanted}
}

// The genuine transaction being in the set must not let anything else
// through: not the same fields under another signature, not another
// sender's fields under this signature.
func TestVerifiedSetCannotLaunderSignature(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	tx := signedTx(t, kp, 0, TxInvoke)
	if _, err := c.VerifyTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyTx(tx); err != nil {
		t.Fatal(err)
	}
	if v, h := c.VerifyCounts(); v != 1 || h != 1 {
		t.Fatalf("genuine tx twice: verifies=%d hits=%d, want 1 and 1", v, h)
	}

	for i, f := range forgeries(t, kp, tx) {
		if _, err := c.VerifyTx(f); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("forgery %d: VerifyTx = %v, want ErrBadSignature", i, err)
		}
		// A Byzantine proposer re-signing nothing: the block is well
		// formed (its root covers the forged bytes) and must still fail.
		blk := makeBlock(t, c, []*Transaction{f})
		if err := c.Validate(blk); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("forgery %d: Validate = %v, want ErrBadSignature", i, err)
		}
		if err := c.Append(blk); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("forgery %d: Append = %v, want ErrBadSignature", i, err)
		}
	}
	if _, h := c.VerifyCounts(); h != 1 {
		t.Fatalf("forgeries were answered from the set: hits=%d, want 1", h)
	}

	// Changing who claims to have signed changes the ID, so these miss
	// the set by construction and fail on their own merits.
	mallory := testKey(t, "mallory")
	rekeyed := *tx
	rekeyed.PubKey = mallory.PublicBytes()
	if _, err := c.VerifyTx(&rekeyed); !errors.Is(err, ErrAddrMismatch) {
		t.Fatalf("changed PubKey: %v, want ErrAddrMismatch", err)
	}
	resent := rekeyed
	resent.From = mallory.Address()
	if _, err := c.VerifyTx(&resent); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("changed PubKey and From: %v, want ErrBadSignature", err)
	}
	if _, h := c.VerifyCounts(); h != 1 {
		t.Fatalf("re-keyed transactions hit the set: hits=%d, want 1", h)
	}

	// The genuine transaction is still good, and still remembered.
	if err := c.Append(makeBlock(t, c, []*Transaction{tx})); err != nil {
		t.Fatal(err)
	}
	if v, h := c.VerifyCounts(); v != 1+3*2+2 || h != 2 {
		t.Fatalf("final counts verifies=%d hits=%d, want 9 and 2", v, h)
	}
}

// A failure is never remembered: the same bad bytes fail again by
// running the verification, and the set stays empty.
func TestVerifiedSetStoresSuccessesOnly(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	bad := forgeries(t, kp, signedTx(t, kp, 0, TxInvoke))[0]
	for i := 1; i <= 3; i++ {
		if _, err := c.VerifyTx(bad); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("attempt %d: %v, want ErrBadSignature", i, err)
		}
		if v, h := c.VerifyCounts(); v != uint64(i) || h != 0 {
			t.Fatalf("attempt %d: verifies=%d hits=%d, want %d and 0", i, v, h, i)
		}
	}
	if n := len(c.verified.cur) + len(c.verified.old); n != 0 {
		t.Fatalf("set holds %d entries after failures only", n)
	}
	if _, err := c.VerifyTx(nil); !errors.Is(err, ErrNilTx) {
		t.Fatalf("nil tx: %v, want ErrNilTx", err)
	}
	if err := c.Validate(makeBlock(t, c, []*Transaction{nil})); !errors.Is(err, ErrNilTx) {
		t.Fatalf("block carrying a nil tx: %v, want ErrNilTx", err)
	}
}

// The set never exceeds two generations, keeps at least the most recent
// generation, and an evicted transaction is verified again — never
// refused.
func TestVerifiedSetBoundedAndEvictionReverifies(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	tx := signedTx(t, kp, 0, TxInvoke)
	if _, err := c.VerifyTx(tx); err != nil {
		t.Fatal(err)
	}
	fill := func(from, n int) {
		for i := from; i < from+n; i++ {
			c.verified.note(cryptoutil.SumAll([]byte("filler"), []byte{byte(i), byte(i >> 8), byte(i >> 16)}), true)
			if size := len(c.verified.cur) + len(c.verified.old); size > 2*verifiedGenSize {
				t.Fatalf("set grew to %d entries, bound is %d", size, 2*verifiedGenSize)
			}
		}
	}
	// One full generation of newer successes: still remembered.
	fill(0, verifiedGenSize)
	if _, err := c.VerifyTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, h := c.VerifyCounts(); h != 1 {
		t.Fatalf("tx forgotten after %d newer entries: hits=%d", verifiedGenSize, h)
	}
	// Two more generations push it out.
	fill(verifiedGenSize, 2*verifiedGenSize)
	before, _ := c.VerifyCounts()
	if _, err := c.VerifyTx(tx); err != nil {
		t.Fatalf("evicted tx refused: %v", err)
	}
	if after, h := c.VerifyCounts(); after != before+1 || h != 1 {
		t.Fatalf("evicted tx: verifies %d -> %d, hits=%d; want one real verify and no hit", before, after, h)
	}
}

// Marks belong to one chain instance. A second chain in the same
// process — another node, or the chain a recovery rebuilds — has to
// verify for itself.
func TestVerifiedSetIsPerChainInstance(t *testing.T) {
	a, b := NewChain("test"), NewChain("test")
	kp := testKey(t, "alice")
	tx := signedTx(t, kp, 0, TxInvoke)
	if _, err := a.VerifyTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.VerifyTx(tx); err != nil {
		t.Fatal(err)
	}
	if v, h := b.VerifyCounts(); v != 1 || h != 0 {
		t.Fatalf("second chain: verifies=%d hits=%d, want its own verify and no hit", v, h)
	}
}

// Validate then Append — what every node does with every block —
// verifies each transaction once and hashes it for the index without a
// second signature check.
func TestValidateThenAppendVerifiesOnce(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	txs := []*Transaction{signedTx(t, kp, 0, TxInvoke), signedTx(t, kp, 1, TxData), signedTx(t, kp, 2, TxAnchor)}
	blk := makeBlock(t, c, txs)
	if err := c.Validate(blk); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(blk); err != nil {
		t.Fatal(err)
	}
	if v, h := c.VerifyCounts(); v != 3 || h != 3 {
		t.Fatalf("verifies=%d hits=%d, want 3 and 3", v, h)
	}
	for _, tx := range txs {
		if got, height, err := c.FindTx(tx.ID()); err != nil || got != tx || height != 1 {
			t.Fatalf("FindTx(%s) = %v, %d, %v", tx.ID().Short(), got, height, err)
		}
	}
	// VerifyIntegrity is the audit path and does not consult the set.
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if v, h := c.VerifyCounts(); v != 3 || h != 3 {
		t.Fatalf("VerifyIntegrity moved the counters: verifies=%d hits=%d", v, h)
	}
}

// A node's loop (Validate, Append) and client submission (mempool
// admission) reach the set at once; run under -race.
func TestVerifiedSetConcurrentUse(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	var txs []*Transaction
	for i := 0; i < 8; i++ {
		txs = append(txs, signedTx(t, kp, uint64(i), TxInvoke))
	}
	bad := forgeries(t, kp, txs[0])[0]
	blk := makeBlock(t, c, txs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch g % 2 {
				case 0:
					if err := c.Validate(blk); err != nil && !errors.Is(err, ErrBadParent) {
						t.Errorf("Validate: %v", err)
					}
				default:
					if _, err := c.VerifyTx(txs[i%len(txs)]); err != nil {
						t.Errorf("VerifyTx: %v", err)
					}
					if _, err := c.VerifyTx(bad); !errors.Is(err, ErrBadSignature) {
						t.Errorf("VerifyTx(forged): %v", err)
					}
				}
			}
		}(g)
	}
	if err := c.Append(blk); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if v, h := c.VerifyCounts(); h == 0 {
		t.Fatalf("verifies=%d hits=%d", v, h)
	}
}

// FuzzVerifiedSetDifferential: DecodeTransaction must survive arbitrary
// bytes, and for anything that decodes, VerifyTx must agree with the
// pure tx.Verify() — on a cold chain and on one already holding the
// genuine seed transactions, which is where a too-weak set key would
// let a mutated copy through.
func FuzzVerifiedSetDifferential(f *testing.F) {
	kp := testKey(f, "alice")
	warm := NewChain("fuzz")
	for i, typ := range []TxType{TxInvoke, TxData, TxAnchor, TxCross} {
		tx := signedTx(f, kp, uint64(i), typ)
		tx.Timestamp = int64(1 + i) // stable corpus bytes
		tx.Expiry = uint64(10 * i)
		if err := tx.Sign(kp); err != nil {
			f.Fatal(err)
		}
		if _, err := warm.VerifyTx(tx); err != nil {
			f.Fatal(err)
		}
		raw, err := tx.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		for _, forged := range forgeries(f, kp, tx) {
			raw, err := forged.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"type":"data","sig":"AAAA"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tx, err := DecodeTransaction(raw)
		if err != nil {
			return
		}
		want := tx.Verify()
		for name, c := range map[string]*Chain{"cold": NewChain("fuzz"), "warm": warm} {
			for pass := 0; pass < 2; pass++ {
				id, got := c.VerifyTx(tx)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s chain, pass %d: VerifyTx = %v, tx.Verify = %v", name, pass, got, want)
				}
				if id != tx.ID() {
					t.Fatalf("%s chain: VerifyTx returned ID %s, want %s", name, id, tx.ID())
				}
			}
		}
	})
}
