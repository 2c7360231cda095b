package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"medchain/internal/canonjson"
	"medchain/internal/canonjson/canontest"
	"medchain/internal/contract"
	"medchain/internal/contract/fixtures"
	"medchain/internal/cryptoutil"
	"medchain/internal/vm"
)

// encodeSnapshot joins the parts snapshotParts writes for p.
func encodeSnapshot(p *snapshotPayload, c *receiptCache) ([]byte, error) {
	parts, err := snapshotParts(nil, p, c)
	return bytes.Join(parts, nil), err
}

// goldenExports reads the exports internal/contract records in
// testdata/exports.golden: the all-kinds state of TestGoldenRootAndExport
// and the one-object state of every kind of TestEveryKindWired.
func goldenExports(t testing.TB) map[string]*contract.StateExport {
	t.Helper()
	f, err := os.Open("../contract/testdata/exports.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]*contract.StateExport)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, body, ok := strings.Cut(sc.Text(), "\t")
		ex := new(contract.StateExport)
		if !ok || json.Unmarshal([]byte(body), ex) != nil {
			t.Fatalf("bad exports line %q", sc.Text())
		}
		out[name] = ex
	}
	if err := sc.Err(); err != nil || out["all-kinds"] == nil {
		t.Fatalf("exports.golden: %v, %d lines", err, len(out))
	}
	return out
}

// codecReceipts covers a receipt with and without events and an error,
// event data that is nil, empty and long, the strings encoding/json
// escapes (HTML bytes, quotes, control bytes, U+2028), non-ASCII and
// invalid UTF-8, and the receipt of every method fixture.
func codecReceipts(t testing.TB) []*contract.Receipt {
	addr := cryptoutil.NamedAddress("codec")
	ev := func(topic string, data []byte) vm.Event { return vm.Event{Contract: addr, Topic: topic, Data: data} }
	out := []*contract.Receipt{
		{TxID: cryptoutil.Sum([]byte("bare"))},
		{TxID: cryptoutil.Sum([]byte("max")), Height: 1<<64 - 1, GasUsed: -1 << 63},
		{TxID: cryptoutil.Sum([]byte("ev")), Height: 3, GasUsed: 42, Events: []vm.Event{
			ev("Nil", nil), ev("Empty", []byte{}), ev("Long", bytes.Repeat([]byte{0, 1, 0xfe}, 100)),
		}},
		{TxID: cryptoutil.Sum([]byte("err")), Height: 4, GasUsed: 7, Err: `contract: not found: dataset "d"`},
		{TxID: cryptoutil.Sum([]byte("both")), Events: []vm.Event{ev("a<b>&c", []byte("x"))}, Err: "denied"},
	}
	for _, s := range []string{"<>&", "µ-é", "tab\tnl\n", " ", `q"uote\`, "st\xffre"} {
		out = append(out, &contract.Receipt{Events: []vm.Event{ev(s, []byte(s))}, Err: s})
	}
	for _, c := range fixtures.New(t).Cases {
		r, err := c.On.Clone().Apply(c.Tx, fixtures.Height, fixtures.Now)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// codecDatasets covers a plain, a frozen and a moved dataset, and the
// strings encoding/json escapes.
func codecDatasets() []contract.Dataset {
	d := contract.Dataset{
		ID: "site-1/emr", Owner: cryptoutil.NamedAddress("o"), Digest: cryptoutil.Sum([]byte("d")),
		Schema: "cdf/v1", Records: 500, SiteID: "site-1", RegisteredAt: -5, Version: 3, UpdatedAt: 1 << 62,
	}
	frozen, moved, odd := d, d, d
	frozen.ID, frozen.Frozen = "frozen", true
	moved.ID, moved.Frozen, moved.MovedTo = "moved", true, "shard-0"
	odd.ID, odd.Schema, odd.SiteID, odd.Records = "a<b>&c µ", `q"\`, "st\xffre", -1
	return []contract.Dataset{d, frozen, moved, odd, {}}
}

// codecPayloads is the byte-identity corpus. valid marks the payloads
// whose encoding the one-pass reader takes: all but a null state and
// invalid UTF-8, which encoding/json writes as an escape it does not
// read back to the same string.
func codecPayloads(t testing.TB) (payloads []*snapshotPayload, valid []bool) {
	receipts := codecReceipts(t)
	add := func(ok bool, ex *contract.StateExport, rs []*contract.Receipt) {
		payloads = append(payloads, &snapshotPayload{
			ChainID: "codec", Height: uint64(len(payloads)), BlockHash: cryptoutil.Sum([]byte{byte(len(payloads))}),
			StateRoot: cryptoutil.Sum([]byte("root")), State: ex, Receipts: rs,
		})
		valid = append(valid, ok)
	}
	for name, ex := range goldenExports(t) {
		add(true, ex, receipts[len(receipts)-8:])
		if name == "all-kinds" {
			add(true, ex, nil)
			add(true, ex, []*contract.Receipt{})
		}
	}
	set := fixtures.New(t)
	for _, st := range []*contract.State{set.Empty, set.Member, set.Coord, set.CoordPending} {
		add(true, st.Export(), receipts[:5])
	}
	add(false, &contract.StateExport{RequestSeq: 9}, receipts) // invalid UTF-8 in the escaping receipts
	ds := codecDatasets()
	add(false, &contract.StateExport{Datasets: ds}, nil)
	add(true, &contract.StateExport{Datasets: ds[:3], Tools: []contract.Tool{}}, receipts[:1])
	add(true, &contract.StateExport{}, []*contract.Receipt{nil, receipts[0]})
	add(false, nil, receipts[:1])
	payloads[len(payloads)-1].ChainID = "chain <µ>"
	return payloads, valid
}

// TestSnapshotCodecMatchesEncodingJSON holds snapshotParts to
// json.Marshal's bytes over the corpus, decodeSnapshot to json.Unmarshal,
// and the one-pass reader to the value encoded.
func TestSnapshotCodecMatchesEncodingJSON(t *testing.T) {
	for _, v := range []any{&snapshotPayload{}, &contract.StateExport{}, &contract.Receipt{}, &contract.Dataset{}, &vm.Event{}} {
		if _, ok := v.(json.Marshaler); ok {
			t.Fatalf("%T has a MarshalJSON: the reflective reference would no longer be encoding/json's", v)
		}
		if _, ok := v.(json.Unmarshaler); ok {
			t.Fatalf("%T has an UnmarshalJSON: the fallback would no longer be encoding/json's", v)
		}
	}
	// The members appendState writes are StateExport's, in field order.
	var keys []string
	st := reflect.TypeOf(contract.StateExport{})
	for i := 0; i < st.NumField(); i++ {
		keys = append(keys, `"`+strings.Split(st.Field(i).Tag.Get("json"), ",")[0]+`":`)
	}
	want := []string{`"datasets":`}
	for _, tb := range stateTables {
		want = append(want, tb.key)
	}
	if want = append(want, `"request_seq":`); !reflect.DeepEqual(keys, want) {
		t.Fatalf("StateExport members %v, the codec writes %v", keys, want)
	}

	payloads, valid := codecPayloads(t)
	for i, p := range payloads {
		got, err := encodeSnapshot(p, new(receiptCache))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %d: snapshotParts\n%s\njson.Marshal\n%s", i, got, want)
		}
		back, err := decodeSnapshot(got)
		var ref snapshotPayload
		refErr := json.Unmarshal(got, &ref)
		canontest.CheckDecode(t, fmt.Sprint("payload ", i), got, back, &ref, err, refErr, "store: decode snapshot: ")
		r := canonjson.NewReader(got)
		if fast := readSnapshot(&r); r.Done() != valid[i] || (valid[i] && !reflect.DeepEqual(fast, &ref)) {
			t.Fatalf("payload %d: one-pass read done %v, want %v; read %+v", i, r.Done(), valid[i], fast)
		}
	}
}

// TestSnapshotReceiptReuse holds a snapshot that re-uses its
// predecessor's receipt encodings to json.Marshal's bytes: N receipts
// later, after a log of other pointers replaced the cached one (as
// recovery does), and after a shorter log.
func TestSnapshotReceiptReuse(t *testing.T) {
	receipts := codecReceipts(t)
	ex := goldenExports(t)["all-kinds"]
	var c receiptCache
	check := func(what string, rs []*contract.Receipt) {
		t.Helper()
		p := &snapshotPayload{ChainID: "reuse", Height: uint64(len(rs)), State: ex, Receipts: rs}
		got, err := encodeSnapshot(p, &c)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(p); !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshotParts\n%s\njson.Marshal\n%s", what, got, want)
		}
		if len(rs) > 0 && (!reflect.DeepEqual(c.log, rs) || &c.log[0] == &rs[0]) {
			t.Fatalf("%s: the cache does not hold its own copy of the log", what)
		}
	}
	log := receipts[:10:10]
	check("cold", log)
	log = append(log, receipts[10:30]...)
	check("20 receipts later", log)
	check("no new receipt", log)
	replaced := make([]*contract.Receipt, len(log))
	for i, r := range log {
		cp := *r
		cp.GasUsed++
		replaced[i] = &cp
	}
	check("a replaced log", replaced)
	check("a shorter log", replaced[:5])
	check("another caller's log", receipts[:5])
	check("no receipts", nil)
}

// A Store's snapshots equal json.Marshal of what they record: the
// first, one written blocks later from the extended log, and one
// written from a log recovery rebuilt.
func TestSnapshotsEqualEncodingJSON(t *testing.T) {
	blocks, _ := buildBlocks(t, testChainID, 9)
	fs := NewMemFS()
	opts := Options{FS: fs, Dir: "n0", ChainID: testChainID}
	st, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	chain, state, receipts := rec.Chain, rec.State, rec.Receipts
	check := func(st *Store, n int) {
		t.Helper()
		if wrote, err := st.MaybeSnapshot(chain, state, receipts, true); err != nil || !wrote {
			t.Fatalf("snapshot at %d: wrote %v, %v", chain.Height(), wrote, err)
		}
		h, body, err := LoadLatestSnapshot(fs, "n0")
		if err != nil || h != chain.Height() {
			t.Fatalf("latest snapshot at %d, %v; want %d", h, err, chain.Height())
		}
		want, _ := json.Marshal(&snapshotPayload{
			ChainID: testChainID, Height: h, BlockHash: chain.Head().Hash(),
			StateRoot: state.Root(), State: state.Export(), Receipts: receipts,
		})
		if !bytes.Equal(body, want) || len(receipts) != n {
			t.Fatalf("snapshot at %d with %d receipts differs from json.Marshal", h, len(receipts))
		}
	}
	for i, blk := range blocks {
		if err := st.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
		r, err := state.Apply(blk.Txs[0], blk.Header.Height, blk.Header.Timestamp)
		if err != nil {
			t.Fatal(err)
		}
		receipts = append(receipts, r)
		if err := chain.Append(blk); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 6 {
			check(st, i+1)
		}
	}
	st.Close()
	st, rec, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec.SnapshotHeight != 7 || len(rec.Receipts) != len(blocks) {
		t.Fatalf("recovered from snapshot %d with %d receipts", rec.SnapshotHeight, len(rec.Receipts))
	}
	chain, state, receipts = rec.Chain, rec.State, rec.Receipts
	check(st, len(blocks))
}

// The pre-stamp fixture's snapshot, written by json.Marshal at commit
// eccc326, reads in one pass and encodes back to its own bytes.
func TestSnapshotFixtureRoundTrips(t *testing.T) {
	h, body, err := LoadLatestSnapshot(OSFS{}, "testdata/v1")
	if err != nil || body == nil {
		t.Fatalf("fixture snapshot at %d: %v", h, err)
	}
	r := canonjson.NewReader(body)
	p := readSnapshot(&r)
	if !r.Done() {
		t.Fatal("one-pass read refused the fixture snapshot")
	}
	got, err := encodeSnapshot(p, new(receiptCache))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("re-encoded fixture snapshot differs (%v):\n%s\nfile\n%s", err, got, body)
	}
}

// FuzzSnapshotCodec is the differential check of the snapshot codec:
// for any bytes, decodeSnapshot agrees with json.Unmarshal into the
// payload (the same value, or both an error with the same text),
// snapshotParts writes what json.Marshal writes for every value
// decoded, and the one-pass reader accepts only bytes snapshotParts
// writes.
func FuzzSnapshotCodec(f *testing.F) {
	payloads, _ := codecPayloads(f)
	for _, p := range payloads {
		enc, err := encodeSnapshot(p, new(receiptCache))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		for _, seed := range canontest.Variants(enc) {
			f.Add(seed)
		}
		state, _ := json.Marshal(p.State)
		for _, seed := range canontest.Variants(state) {
			f.Add(bytes.Replace(enc, state, seed, 1))
		}
	}
	small := &snapshotPayload{ChainID: "fuzz", Height: 2, State: &contract.StateExport{
		Datasets: codecDatasets()[1:3], Tools: []contract.Tool{{ID: "t"}}, RequestSeq: 3,
	}, Receipts: codecReceipts(f)[2:4]}
	enc, _ := encodeSnapshot(small, new(receiptCache))
	f.Add(enc)
	for _, part := range []any{&small.State.Datasets[1], small.Receipts[0], &small.Receipts[0].Events[0], &small.State.Tools} {
		b, _ := json.Marshal(part)
		for _, seed := range canontest.Variants(b) {
			f.Add(bytes.Replace(enc, b, seed, 1))
		}
	}
	for _, r := range [][2]string{
		{`"tools":[`, `"tools": [`},
		{`"tools":[{"id":"t"`, `"tools":[{"ID":"t"`},
		{`"topic":"Empty"`, `"topic":"\u0045mpty"`},
		{`"moved_to":"shard-0"`, `"moved_to":""`},
		{`"data":""`, `"data":null`},
		{`"frozen":true`, `"frozen":false`},
		{`"request_seq":3`, `"request_seq":03`},
		{`"err":"`, `"err":"","x":"`},
		{`,"request_seq"`, `,"tools":[],"request_seq"`},
	} {
		f.Add(bytes.Replace(enc, []byte(r[0]), []byte(r[1]), 1))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeSnapshot(data)
		var ref snapshotPayload
		refErr := json.Unmarshal(data, &ref)
		canontest.CheckDecode(t, "snapshot", data, got, &ref, err, refErr, "store: decode snapshot: ")
		if err == nil {
			canontest.CheckEncode(t, data, func() ([]byte, error) { return encodeSnapshot(got, new(receiptCache)) }, &ref)
		}
		r := canonjson.NewReader(data)
		if fast := readSnapshot(&r); r.Done() {
			if enc, err := encodeSnapshot(fast, new(receiptCache)); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("one-pass reader accepted non-canonical snapshot %q", data)
			}
		}
	})
}

// benchPayload is a chain-bigstate-sized snapshot: 3 000 datasets and
// 9 000 receipts, one event each.
func benchPayload(b *testing.B) *snapshotPayload {
	owner := cryptoutil.NamedAddress("bench")
	ex := &contract.StateExport{RequestSeq: 9000}
	for i := 0; i < 3000; i++ {
		ex.Datasets = append(ex.Datasets, contract.Dataset{
			ID: fmt.Sprintf("site-%d/emr-%04d", i%8, i), Owner: owner, Digest: cryptoutil.Sum([]byte{byte(i)}),
			Schema: "cdf/v1", Records: 500 + i, SiteID: fmt.Sprintf("site-%d", i%8), RegisteredAt: int64(i), Version: 1, UpdatedAt: int64(i),
		})
	}
	for i := 0; i < 16; i++ {
		ex.Tools = append(ex.Tools, contract.Tool{ID: fmt.Sprintf("tool-%d", i), Owner: owner, Description: "summary"})
	}
	p := &snapshotPayload{ChainID: "bench", Height: 45, State: ex}
	for i := 0; i < 9000; i++ {
		data, _ := json.Marshal(ex.Datasets[i%3000])
		p.Receipts = append(p.Receipts, &contract.Receipt{
			TxID: cryptoutil.Sum([]byte(fmt.Sprint(i))), Height: uint64(i/200 + 1), GasUsed: 340,
			Events: []vm.Event{{Contract: owner, Topic: "DatasetUpdated", Data: data}},
		})
	}
	return p
}

// BenchmarkSnapshotCodec times a chain-bigstate-sized snapshot's encode
// — cold, and re-using all but the last 200 receipts — and decode,
// against encoding/json's reflective path.
func BenchmarkSnapshotCodec(b *testing.B) {
	p := benchPayload(b)
	enc, _ := encodeSnapshot(p, new(receiptCache))
	var warm receiptCache
	keep := len(p.Receipts) - 200
	warm.encode(p.Receipts[:keep])
	prefix := len(warm.enc)
	parts := [][]byte{nil}
	for _, bm := range []struct {
		name string
		run  func()
	}{
		{"encode-cold", func() { parts, _ = snapshotParts(parts[0][:0], p, new(receiptCache)) }},
		{"encode-reuse", func() {
			warm.log, warm.enc = warm.log[:keep], warm.enc[:prefix]
			parts, _ = snapshotParts(parts[0][:0], p, &warm)
		}},
		{"encode-reflect", func() { _, _ = json.Marshal(p) }},
		{"decode", func() { _, _ = decodeSnapshot(enc) }},
		{"decode-reflect", func() { var p snapshotPayload; _ = json.Unmarshal(enc, &p) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				bm.run()
			}
		})
	}
}
