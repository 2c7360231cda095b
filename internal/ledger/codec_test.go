package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"medchain/internal/canonjson/canontest"
	"medchain/internal/cryptoutil"
	"medchain/internal/merkle"
)

var allTxTypes = []TxType{TxDeploy, TxInvoke, TxAnchor, TxData, TxAnalytics, TxTrial, TxAudit, TxCross}

// codecTxs is the byte-identity corpus: every TxType with and without
// args, expiry and public key, the extreme numbers, and the strings
// encoding/json escapes. All strings are valid UTF-8, so each
// transaction decodes back to itself.
func codecTxs(t testing.TB) []*Transaction {
	kp := testKey(t, "codec")
	var txs []*Transaction
	for i, typ := range allTxTypes {
		full := signedTx(t, kp, uint64(i), typ)
		full.Expiry = uint64(100 + i)
		bare := &Transaction{Type: typ, From: full.From, Nonce: uint64(i), Method: "m", Timestamp: int64(i), Sig: full.Sig}
		txs = append(txs, full, bare)
	}
	for _, method := range []string{"a<b>&c", `q"uote\`, "tab\tnl\n", "µ-é", " ", ""} {
		txs = append(txs, &Transaction{Type: TxType(method), Method: method, Args: []byte{0}, PubKey: []byte{0xff, 0xfe}})
	}
	txs = append(txs,
		&Transaction{Nonce: math.MaxUint64, Timestamp: math.MinInt64, Expiry: math.MaxUint64},
		&Transaction{Timestamp: math.MaxInt64, Sig: cryptoutil.Signature{255, 0, 9, 10, 99, 100}},
		&Transaction{Timestamp: -1},
	)
	return txs
}

// codecBlocks covers a PoW header, an empty block, a block without a
// seal, a nil transaction and a certificate-sized seal.
func codecBlocks(t testing.TB) []*Block {
	txs := codecTxs(t)
	header := Header{
		Height:    7,
		Parent:    cryptoutil.Sum([]byte("parent")),
		TxRoot:    cryptoutil.Sum([]byte("root")),
		StateRoot: cryptoutil.Sum([]byte("state")),
		Timestamp: 1_700_000_000_000_000_000,
		Proposer:  cryptoutil.NamedAddress("proposer"),
	}
	pow := header
	pow.Difficulty, pow.PowNonce = 12, 987654321
	return []*Block{
		NewGenesis("codec"),
		{Header: pow},
		{Header: header, Txs: txs},
		{Header: header, Txs: []*Transaction{txs[0], nil, txs[1]}, Seal: bytes.Repeat([]byte("seal"), 300)},
		{Header: header, Txs: []*Transaction{nil}},
		{Header: header, Seal: []byte{1}},
	}
}

// TestCodecMatchesEncodingJSON holds Encode to json.Marshal's bytes and
// the decoders to the value encoded, for the corpus above: escaped and
// non-ASCII strings included.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, v := range []any{&Transaction{}, &Block{}, &Header{}} {
		if _, ok := v.(json.Marshaler); ok {
			t.Fatalf("%T has a MarshalJSON: the reflective reference would no longer be encoding/json's", v)
		}
		if _, ok := v.(json.Unmarshaler); ok {
			t.Fatalf("%T has an UnmarshalJSON: the reference decode would no longer be encoding/json's", v)
		}
	}
	for i, tx := range codecTxs(t) {
		got, _ := tx.Encode()
		want, err := json.Marshal(tx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tx %d: Encode\n%s\njson.Marshal\n%s", i, got, want)
		}
		back, err := DecodeTransaction(got)
		if err != nil || !reflect.DeepEqual(back, tx) {
			t.Fatalf("tx %d: decoded %+v, %v; encoded %+v", i, back, err, tx)
		}
	}
	for i, b := range codecBlocks(t) {
		got, _ := b.Encode()
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: Encode\n%s\njson.Marshal\n%s", i, got, want)
		}
		back, err := DecodeBlock(got)
		if err != nil || !reflect.DeepEqual(back, b) {
			t.Fatalf("block %d: decoded %+v, %v; encoded %+v", i, back, err, b)
		}
	}
}

// TestTxRootLeavesAreEncodings holds ComputeTxRoot's leaves to the
// json.Marshal bytes they have always been.
func TestTxRootLeavesAreEncodings(t *testing.T) {
	txs := append(codecTxs(t), nil)
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		leaves[i], _ = json.Marshal(tx)
	}
	got, err := ComputeTxRoot(txs)
	if err != nil {
		t.Fatal(err)
	}
	if want := merkle.RootOf(leaves); got != want {
		t.Fatalf("tx root %s, want %s", got.Short(), want.Short())
	}
}

// txSeeds are the non-canonical spellings of one transaction that
// FuzzLedgerCodec starts from.
func txSeeds(canon []byte) [][]byte {
	seeds := canontest.Variants(canon)
	s := string(canon)
	field := func(key string, end byte) string {
		from := strings.Index(s, `"`+key+`":`) + len(key) + 3
		return s[from : from+strings.IndexByte(s[from:], end)]
	}
	sig, from, ts, pub := field("sig", '}'), field("from", ','), field("timestamp", ','), field("pub_key", ',')
	for _, r := range [][2]string{
		{from, strings.ToUpper(from)},
		{`"timestamp":` + ts, `"timestamp":-0`},
		{pub, pub[:len(pub)-3] + "B=\""}, // non-zero trailing bits, which StdEncoding ignores
		{`"method":"store"`, `"method":"st\u006fre"`},
		{`"method":"store"`, `"method":"<>&"`},
		{`"method":"store"`, "\"method\":\"st\xffre\""},
		{`"method":"store"`, `"method":"storé"`},
		{`,"timestamp":`, `,"args":"","timestamp":`},
		{`,"pub_key":`, `,"expiry":0,"pub_key":`},
		{`"nonce":3`, `"nonce":03`},
		{`"nonce":3`, `"nonce":1e3`},
		{`"nonce":3`, `"nonce":-3`},
		{`"nonce":3`, `"nonce":3.0`},
		{`"from":"`, `"from":"AB`},
		{sig, sig[:strings.LastIndexByte(sig, ',')] + "]"},
		{sig, strings.TrimSuffix(sig, "]") + ",1]"},
		{sig, "[" + strings.Repeat("256,", 63) + "256]"},
		{sig, "[" + strings.Repeat("0,", 255) + "0]"},
		{sig, "null"},
	} {
		seeds = append(seeds, []byte(strings.Replace(s, r[0], r[1], 1)))
	}
	return seeds
}

// TestNonCanonicalRefused: every twin of a transaction, of a block and
// of a header or transaction inside a block, and a partial object, is
// refused with canonjson.ErrNonCanonical. encoding/json reads null and
// the partial object as a zero value.
func TestNonCanonicalRefused(t *testing.T) {
	tx := signedTx(t, testKey(t, "refuse"), 3, TxData)
	canonTx, _ := tx.Encode()
	for _, b := range append(txSeeds(canonTx), []byte(`{"type":"data"}`)) {
		_, err := DecodeTransaction(b)
		canontest.CheckRefused[Transaction](t, "tx", b, err)
	}
	blk := &Block{Header: Header{Height: 1, Timestamp: 5}, Txs: []*Transaction{tx}, Seal: []byte("seal")}
	for _, b := range append(blockSeeds(blk), []byte(`{"header":{"height":1}}`)) {
		_, err := DecodeBlock(b)
		canontest.CheckRefused[Block](t, "block", b, err)
	}
}

// blockSeeds are the twins of blk, and blk with its header or its
// first transaction respelled.
func blockSeeds(blk *Block) [][]byte {
	canonBlk, _ := blk.Encode()
	canonTx, _ := blk.Txs[0].Encode()
	hdr, _ := json.Marshal(blk.Header)
	seeds := canontest.Variants(canonBlk)
	for _, seed := range canontest.Variants(hdr) {
		seeds = append(seeds, bytes.Replace(canonBlk, hdr, seed, 1))
	}
	for _, seed := range txSeeds(canonTx) {
		seeds = append(seeds, bytes.Replace(canonBlk, canonTx, seed, 1))
	}
	return seeds
}

// FuzzLedgerCodec holds the decoders to their encoders: for any bytes,
// DecodeTransaction and DecodeBlock either refuse them with
// canonjson.ErrNonCanonical, or decode the value json.Unmarshal reads,
// which Encode writes back as the same bytes — json.Marshal's.
func FuzzLedgerCodec(f *testing.F) {
	kp := testKey(f, "fuzz")
	tx := signedTx(f, kp, 3, TxData)
	tx.Args = []byte(`{"dataset":"x"}`)
	canonTx, _ := tx.Encode()
	blk := &Block{Header: Header{Height: 1, Timestamp: 5}, Txs: []*Transaction{tx, nil}, Seal: []byte("seal")}
	for _, seed := range txSeeds(canonTx) {
		f.Add(uint8(0), seed)
	}
	f.Add(uint8(0), canonTx)
	canonBlk, _ := blk.Encode()
	f.Add(uint8(1), canonBlk)
	for _, seed := range blockSeeds(blk) {
		f.Add(uint8(1), seed)
	}
	for _, b := range codecBlocks(f) {
		enc, _ := b.Encode()
		f.Add(uint8(1), enc)
	}

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		if kind%2 == 0 {
			got, err := DecodeTransaction(data)
			canontest.CheckDecode(t, "tx", data, got, err, got.Encode)
			return
		}
		got, err := DecodeBlock(data)
		canontest.CheckDecode(t, "block", data, got, err, got.Encode)
	})
}

// benchTx is a chain-mix-sized transaction: a dataset registration
// with a few hundred bytes of arguments.
func benchTx(b *testing.B, nonce uint64) *Transaction {
	tx := signedTx(b, testKey(b, "bench"), nonce, TxData)
	tx.Method = "register"
	tx.Args = []byte(fmt.Sprintf(`{"id":"site-%d/emr","owner":"%s","format":"fhir","digest":"%s","records":500,"tags":["emr","diabetes","cardiology"]}`,
		nonce, tx.From, cryptoutil.Sum([]byte{byte(nonce)})))
	if err := tx.Sign(testKey(b, "bench")); err != nil {
		b.Fatal(err)
	}
	return tx
}

// codecBench is one timed call of a codec benchmark.
type codecBench struct {
	name string
	run  func()
}

func runCodecBenches(b *testing.B, benches []codecBench) {
	for _, bm := range benches {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bm.run()
			}
		})
	}
}

// BenchmarkTxCodec times one transaction's Encode and
// DecodeTransaction against encoding/json's reflective path.
func BenchmarkTxCodec(b *testing.B) {
	tx := benchTx(b, 1)
	enc, _ := tx.Encode()
	runCodecBenches(b, []codecBench{
		{"encode", func() { _, _ = tx.Encode() }},
		{"encode-reflect", func() { _, _ = json.Marshal(tx) }},
		{"decode", func() { _, _ = DecodeTransaction(enc) }},
		{"decode-reflect", func() { var tx Transaction; _ = json.Unmarshal(enc, &tx) }},
	})
}

// BenchmarkBlockCodec times a 64-transaction block's Encode, DecodeBlock
// and ComputeTxRoot against encoding/json's reflective path.
func BenchmarkBlockCodec(b *testing.B) {
	blk := &Block{Header: Header{Height: 9, Timestamp: 1, Proposer: cryptoutil.NamedAddress("p")}, Seal: bytes.Repeat([]byte{7}, 1200)}
	for i := 0; i < 64; i++ {
		blk.Txs = append(blk.Txs, benchTx(b, uint64(i)))
	}
	enc, _ := blk.Encode()
	runCodecBenches(b, []codecBench{
		{"encode", func() { _, _ = blk.Encode() }},
		{"encode-reflect", func() { _, _ = json.Marshal(blk) }},
		{"decode", func() { _, _ = DecodeBlock(enc) }},
		{"decode-reflect", func() { var blk Block; _ = json.Unmarshal(enc, &blk) }},
		{"txroot", func() { _, _ = ComputeTxRoot(blk.Txs) }},
	})
}
