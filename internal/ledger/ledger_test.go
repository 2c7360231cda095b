package ledger

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"medchain/internal/cryptoutil"
)

func testKey(t testing.TB, seed string) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair(seed)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func signedTx(t testing.TB, kp *cryptoutil.KeyPair, nonce uint64, typ TxType) *Transaction {
	t.Helper()
	tx := &Transaction{
		Type:      typ,
		Nonce:     nonce,
		Contract:  cryptoutil.NamedAddress("contract-1"),
		Method:    "store",
		Args:      []byte(`{"k":"v"}`),
		Timestamp: time.Now().UnixNano(),
	}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTxSignVerify(t *testing.T) {
	kp := testKey(t, "alice")
	tx := signedTx(t, kp, 0, TxInvoke)
	if err := tx.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestTxVerifyRejectsTampering(t *testing.T) {
	kp := testKey(t, "alice")
	tests := []struct {
		name   string
		mutate func(*Transaction)
	}{
		{"method", func(tx *Transaction) { tx.Method = "delete" }},
		{"args", func(tx *Transaction) { tx.Args = []byte(`{"k":"evil"}`) }},
		{"nonce", func(tx *Transaction) { tx.Nonce++ }},
		{"timestamp", func(tx *Transaction) { tx.Timestamp++ }},
		{"contract", func(tx *Transaction) { tx.Contract = cryptoutil.NamedAddress("other") }},
		{"type", func(tx *Transaction) { tx.Type = TxData }},
		{"from", func(tx *Transaction) { tx.From = cryptoutil.NamedAddress("mallory") }},
		{"sig", func(tx *Transaction) { tx.Sig[0] ^= 0xFF }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tx := signedTx(t, kp, 0, TxInvoke)
			tt.mutate(tx)
			if err := tx.Verify(); err == nil {
				t.Fatalf("tampered %s accepted", tt.name)
			}
		})
	}
}

func TestTxVerifyRejectsUnknownType(t *testing.T) {
	kp := testKey(t, "alice")
	tx := &Transaction{Type: "bogus", Timestamp: 1}
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if err := tx.Verify(); err == nil {
		t.Fatal("unknown tx type accepted")
	}
}

func TestTxIDDeterministicAndUnique(t *testing.T) {
	kp := testKey(t, "alice")
	a := signedTx(t, kp, 0, TxInvoke)
	if a.ID() != a.ID() {
		t.Fatal("ID not deterministic")
	}
	b := signedTx(t, kp, 1, TxInvoke)
	if a.ID() == b.ID() {
		t.Fatal("different transactions share an ID")
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	kp := testKey(t, "alice")
	tx := signedTx(t, kp, 3, TxAnalytics)
	b, err := tx.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTransaction(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != tx.ID() {
		t.Fatal("round trip changed tx ID")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("decoded tx fails verify: %v", err)
	}
}

func TestDecodeTransactionError(t *testing.T) {
	if _, err := DecodeTransaction([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestValidTxType(t *testing.T) {
	for _, typ := range []TxType{TxDeploy, TxInvoke, TxAnchor, TxData, TxAnalytics, TxTrial} {
		if !ValidTxType(typ) {
			t.Fatalf("%s reported invalid", typ)
		}
	}
	if ValidTxType("nope") {
		t.Fatal("bogus type reported valid")
	}
}

func TestGenesisDeterministicPerChainID(t *testing.T) {
	a := NewGenesis("med-1")
	b := NewGenesis("med-1")
	if a.Hash() != b.Hash() {
		t.Fatal("same chainID produced different genesis hashes")
	}
	c := NewGenesis("med-2")
	if a.Hash() == c.Hash() {
		t.Fatal("different chainIDs share a genesis hash")
	}
}

func TestHeaderHashSensitivity(t *testing.T) {
	base := Header{Height: 1, Timestamp: 99, Proposer: cryptoutil.NamedAddress("p")}
	h0 := base.Hash()
	mutations := []func(*Header){
		func(h *Header) { h.Height = 2 },
		func(h *Header) { h.Timestamp = 100 },
		func(h *Header) { h.Parent = cryptoutil.Sum([]byte("x")) },
		func(h *Header) { h.TxRoot = cryptoutil.Sum([]byte("y")) },
		func(h *Header) { h.StateRoot = cryptoutil.Sum([]byte("z")) },
		func(h *Header) { h.Proposer = cryptoutil.NamedAddress("q") },
		func(h *Header) { h.Difficulty = 3 },
		func(h *Header) { h.PowNonce = 7 },
	}
	for i, m := range mutations {
		h := base
		m(&h)
		if h.Hash() == h0 {
			t.Fatalf("mutation %d did not change header hash", i)
		}
	}
}

func makeBlock(t testing.TB, c *Chain, txs []*Transaction) *Block {
	t.Helper()
	root, err := ComputeTxRoot(txs)
	if err != nil {
		t.Fatal(err)
	}
	head := c.Head()
	return &Block{
		Header: Header{
			Height:    head.Header.Height + 1,
			Parent:    head.Hash(),
			TxRoot:    root,
			StateRoot: cryptoutil.Sum([]byte("state")),
			Timestamp: head.Header.Timestamp + 1,
			Proposer:  cryptoutil.NamedAddress("proposer"),
		},
		Txs: txs,
	}
}

func TestChainAppendAndLookup(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	tx := signedTx(t, kp, 0, TxInvoke)
	b := makeBlock(t, c, []*Transaction{tx})
	if err := c.Append(b); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if c.Height() != 1 {
		t.Fatalf("height = %d, want 1", c.Height())
	}
	if !c.HasTx(tx.ID()) {
		t.Fatal("appended tx not indexed")
	}
	got, h, err := c.FindTx(tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if h != 1 || got.ID() != tx.ID() {
		t.Fatalf("FindTx returned height %d, id %s", h, got.ID().Short())
	}
	byHeight, err := c.BlockAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if byHeight.Hash() != b.Hash() {
		t.Fatal("BlockAt returned wrong block")
	}
	if c.NextNonce(kp.Address()) != 1 {
		t.Fatalf("NextNonce = %d, want 1", c.NextNonce(kp.Address()))
	}
}

func TestChainRejectsBadParent(t *testing.T) {
	c := NewChain("test")
	b := makeBlock(t, c, nil)
	b.Header.Parent = cryptoutil.Sum([]byte("wrong"))
	if err := c.Append(b); err == nil {
		t.Fatal("bad parent accepted")
	}
}

func TestChainRejectsBadHeight(t *testing.T) {
	c := NewChain("test")
	b := makeBlock(t, c, nil)
	b.Header.Height = 5
	if err := c.Append(b); err == nil {
		t.Fatal("bad height accepted")
	}
}

func TestChainRejectsBadTxRoot(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	b := makeBlock(t, c, []*Transaction{signedTx(t, kp, 0, TxInvoke)})
	b.Header.TxRoot = cryptoutil.Sum([]byte("forged"))
	if err := c.Append(b); err == nil {
		t.Fatal("bad tx root accepted")
	}
}

func TestChainRejectsDuplicateTx(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	tx := signedTx(t, kp, 0, TxInvoke)
	if err := c.Append(makeBlock(t, c, []*Transaction{tx})); err != nil {
		t.Fatal(err)
	}
	// Same tx again in the next block.
	if err := c.Append(makeBlock(t, c, []*Transaction{tx})); err == nil {
		t.Fatal("duplicate tx accepted")
	}
	// Duplicate within one block.
	c2 := NewChain("test2")
	tx2 := signedTx(t, kp, 0, TxInvoke)
	if err := c2.Append(makeBlock(t, c2, []*Transaction{tx2, tx2})); err == nil {
		t.Fatal("intra-block duplicate accepted")
	}
}

func TestChainEnforcesNonceOrder(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	// Nonce 1 before 0 must fail.
	if err := c.Append(makeBlock(t, c, []*Transaction{signedTx(t, kp, 1, TxInvoke)})); err == nil {
		t.Fatal("out-of-order nonce accepted")
	}
	// 0 then 1 in the same block is fine.
	txs := []*Transaction{signedTx(t, kp, 0, TxInvoke), signedTx(t, kp, 1, TxInvoke)}
	if err := c.Append(makeBlock(t, c, txs)); err != nil {
		t.Fatalf("sequential nonces rejected: %v", err)
	}
	// Next block must continue at 2.
	if err := c.Append(makeBlock(t, c, []*Transaction{signedTx(t, kp, 0, TxInvoke)})); err == nil {
		t.Fatal("nonce reuse across blocks accepted")
	}
	if err := c.Append(makeBlock(t, c, []*Transaction{signedTx(t, kp, 2, TxInvoke)})); err != nil {
		t.Fatalf("continuing nonce rejected: %v", err)
	}
}

func TestChainRejectsUnsignedTx(t *testing.T) {
	c := NewChain("test")
	tx := &Transaction{Type: TxInvoke, Timestamp: 1}
	if err := c.Append(makeBlock(t, c, []*Transaction{tx})); err == nil {
		t.Fatal("unsigned tx accepted")
	}
}

func TestChainRejectsNilAndBackwardTimestamp(t *testing.T) {
	c := NewChain("test")
	if err := c.Append(nil); err == nil {
		t.Fatal("nil block accepted")
	}
	b := makeBlock(t, c, nil)
	b.Header.Timestamp = -1
	if err := c.Append(b); err == nil {
		t.Fatal("backward timestamp accepted")
	}
}

func TestVerifyIntegrityDetectsTampering(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	for i := 0; i < 5; i++ {
		if err := c.Append(makeBlock(t, c, []*Transaction{signedTx(t, kp, uint64(i), TxTrial)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatalf("clean chain failed integrity: %v", err)
	}
	// Tamper with a stored transaction (simulates a falsified trial
	// outcome edited in place, paper §III.B).
	b, err := c.BlockAt(3)
	if err != nil {
		t.Fatal(err)
	}
	b.Txs[0].Args = []byte(`{"outcome":"improved"}`)
	if err := c.VerifyIntegrity(); err == nil {
		t.Fatal("tampered chain passed integrity check")
	}
}

func TestWalkVisitsAllAndStops(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "w")
	for i := 0; i < 4; i++ {
		if err := c.Append(makeBlock(t, c, []*Transaction{signedTx(t, kp, uint64(i), TxData)})); err != nil {
			t.Fatal(err)
		}
	}
	var visited int
	c.Walk(func(b *Block) bool { visited++; return true })
	if visited != 5 {
		t.Fatalf("visited %d blocks, want 5", visited)
	}
	visited = 0
	c.Walk(func(b *Block) bool { visited++; return visited < 2 })
	if visited != 2 {
		t.Fatalf("early stop visited %d, want 2", visited)
	}
}

func TestLookupErrors(t *testing.T) {
	c := NewChain("test")
	if _, err := c.BlockAt(9); err == nil {
		t.Fatal("BlockAt(9) on empty chain succeeded")
	}
	if _, _, err := c.FindTx(cryptoutil.Sum([]byte("t"))); err == nil {
		t.Fatal("FindTx of unknown tx succeeded")
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "rt")
	b := makeBlock(t, c, []*Transaction{signedTx(t, kp, 0, TxAnchor)})
	b.Seal = []byte("quorum-cert")
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("round trip changed block hash")
	}
	if string(got.Seal) != "quorum-cert" {
		t.Fatal("seal lost in round trip")
	}
	if _, err := DecodeBlock([]byte("nope")); err == nil {
		t.Fatal("malformed block accepted")
	}
}

// Property: the tx root commits to the exact tx set — any single-field
// perturbation of any transaction changes the root.
func TestTxRootProperty(t *testing.T) {
	kp := testKey(t, "prop")
	f := func(nRaw uint8, which uint8) bool {
		n := 1 + int(nRaw)%6
		txs := make([]*Transaction, n)
		for i := range txs {
			txs[i] = signedTx(t, kp, uint64(i), TxInvoke)
		}
		root, err := ComputeTxRoot(txs)
		if err != nil {
			return false
		}
		i := int(which) % n
		txs[i].Args = append(txs[i].Args, 'x')
		root2, err := ComputeTxRoot(txs)
		if err != nil {
			return false
		}
		return root != root2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTxSignVerify(b *testing.B) {
	kp := testKey(b, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := &Transaction{Type: TxInvoke, Nonce: uint64(i), Timestamp: 1}
		if err := tx.Sign(kp); err != nil {
			b.Fatal(err)
		}
		if err := tx.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainAppend(b *testing.B) {
	kp := testKey(b, "bench")
	c := NewChain("bench")
	txs := make([]*Transaction, b.N)
	for i := range txs {
		txs[i] = signedTx(b, kp, uint64(i), TxInvoke)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Append(makeBlock(b, c, []*Transaction{txs[i]})); err != nil {
			b.Fatal(err)
		}
	}
}

// ValidateForAppend + AppendValidated check a block once where Validate
// + Append checked it twice: the append that follows a validation adds
// no verified-set lookup (at the parent commit it added one per
// transaction, and a second ComputeTxRoot), refuses a head that moved,
// and leaves Append on its own validating in full.
func TestAppendValidatedChecksOnce(t *testing.T) {
	c := NewChain("test")
	kp := testKey(t, "alice")
	txs := []*Transaction{signedTx(t, kp, 0, TxInvoke), signedTx(t, kp, 1, TxInvoke), signedTx(t, kp, 2, TxInvoke)}
	b := makeBlock(t, c, txs)
	v, err := c.ValidateForAppend(b)
	if err != nil {
		t.Fatal(err)
	}
	verifies, hits := c.VerifyCounts()
	if err := c.AppendValidated(v); err != nil {
		t.Fatal(err)
	}
	if v2, h2 := c.VerifyCounts(); v2 != verifies || h2 != hits {
		t.Fatalf("AppendValidated looked transactions up again: verifies %d→%d, hits %d→%d", verifies, v2, hits, h2)
	}
	if c.Height() != 1 || !c.HasTx(txs[2].ID()) || c.NextNonce(kp.Address()) != 3 {
		t.Fatalf("block not installed: height %d, next nonce %d", c.Height(), c.NextNonce(kp.Address()))
	}

	// Two blocks validated against one head: the second append must be
	// refused, and nothing of it installed.
	x := makeBlock(t, c, []*Transaction{signedTx(t, kp, 3, TxInvoke)})
	y := makeBlock(t, c, []*Transaction{signedTx(t, kp, 3, TxData)})
	vx, errX := c.ValidateForAppend(x)
	vy, errY := c.ValidateForAppend(y)
	if errX != nil || errY != nil {
		t.Fatal(errX, errY)
	}
	if err := c.AppendValidated(vx); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendValidated(vy); !errors.Is(err, ErrBadParent) {
		t.Fatalf("append after the head moved: %v, want ErrBadParent", err)
	}
	if c.Height() != 2 || c.HasTx(y.Txs[0].ID()) {
		t.Fatal("a block validated against a stale head was installed")
	}

	// Append alone still validates everything.
	bad := makeBlock(t, c, []*Transaction{signedTx(t, kp, 9, TxInvoke)})
	if err := c.Append(bad); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("Append of a bad-nonce block: %v", err)
	}
	if _, err := c.ValidateForAppend(bad); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("ValidateForAppend of a bad-nonce block: %v", err)
	}
}
