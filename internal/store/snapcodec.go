package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"medchain/internal/canonjson"
	"medchain/internal/contract"
	"medchain/internal/vm"
)

// A snapshot's body is the JSON encoding/json writes for a
// snapshotPayload. snapshotParts writes those bytes without reflection
// for the parts that grow with the chain — the payload header, every
// receipt with its events and every dataset row — and through
// json.Marshal of each other state table, which stays a few hundred KB.
// readSnapshot reads them back the same way and fails on any other
// spelling, which decodeSnapshot refuses with canonjson.ErrNonCanonical:
// a refused snapshot is unusable, and Open replays the whole WAL.

// stateTables are the StateExport members other than the datasets and
// the request counter, in field order. Each is encoded whole by
// json.Marshal, and read by json.Unmarshal only as the canonical check:
// a table is taken when json.Marshal writes it back as the same bytes.
// A member that marshals to null or [] is one omitempty drops.
var stateTables = []struct {
	key   string // `"name":`
	field func(*contract.StateExport) any
}{
	{`"tools":`, func(x *contract.StateExport) any { return &x.Tools }},
	{`"trials":`, func(x *contract.StateExport) any { return &x.Trials }},
	{`"anchors":`, func(x *contract.StateExport) any { return &x.Anchors }},
	{`"evidence":`, func(x *contract.StateExport) any { return &x.Evidence }},
	{`"policies":`, func(x *contract.StateExport) any { return &x.Policies }},
	{`"deployed":`, func(x *contract.StateExport) any { return &x.Deployed }},
	{`"vm_storage":`, func(x *contract.StateExport) any { return &x.VMStorage }},
	{`"manifest_sets":`, func(x *contract.StateExport) any { return &x.ManifestSets }},
	{`"cross_config":`, func(x *contract.StateExport) any { return &x.CrossConfig }},
	{`"shard_dir":`, func(x *contract.StateExport) any { return &x.ShardDir }},
	{`"shard_roots":`, func(x *contract.StateExport) any { return &x.ShardRoots }},
	{`"cross_out":`, func(x *contract.StateExport) any { return &x.CrossOut }},
	{`"cross_in":`, func(x *contract.StateExport) any { return &x.CrossIn }},
	{`"fl_rounds":`, func(x *contract.StateExport) any { return &x.FLRounds }},
	{`"routing":`, func(x *contract.StateExport) any { return &x.Routing }},
}

// omitted reports whether a table's encoding is one omitempty drops.
func omitted(enc []byte) bool {
	return string(enc) == "null" || string(enc) == "[]"
}

// receiptCache holds the receipts the store's previous snapshot encoded,
// by pointer, with their encodings. A committed receipt never changes,
// so a receipt log that starts with the same pointers starts with the
// same bytes.
type receiptCache struct {
	log []*contract.Receipt
	enc []byte // the encodings of log, comma-separated
}

// encode returns the comma-separated encodings of receipts. It encodes
// only the receipts past a cached prefix of the same pointers, and
// everything when the prefix differs (a log recovery replaced, another
// caller's log).
func (c *receiptCache) encode(receipts []*contract.Receipt) []byte {
	if len(receipts) < len(c.log) || !slices.Equal(receipts[:len(c.log)], c.log) {
		c.log, c.enc = c.log[:0], c.enc[:0]
	}
	grow := 0
	for _, r := range receipts[len(c.log):] {
		grow += receiptSizeHint(r)
	}
	c.enc = slices.Grow(c.enc, grow)
	for _, r := range receipts[len(c.log):] {
		if len(c.enc) > 0 {
			c.enc = append(c.enc, ',')
		}
		c.enc = appendReceipt(c.enc, r)
	}
	c.log = append(c.log, receipts[len(c.log):]...)
	return c.enc
}

// receiptSizeHint is about the encoded size of r, so that encode grows
// its buffer once.
func receiptSizeHint(r *contract.Receipt) int {
	if r == nil {
		return 5
	}
	n := 160 + len(r.Err)
	for _, ev := range r.Events {
		n += 96 + len(ev.Topic) + len(ev.Data)*4/3
	}
	return n
}

// snapshotParts returns the bytes json.Marshal writes for p in parts:
// everything before the receipts, appended to dst; the receipts'
// encodings, which are c's buffer and valid until c's next use; and the
// closing bytes. The receipts are written to disk from c without a copy.
func snapshotParts(dst []byte, p *snapshotPayload, c *receiptCache) ([][]byte, error) {
	if p.State != nil {
		dst = slices.Grow(dst, 1024+320*len(p.State.Datasets))
	}
	dst = append(dst, `{"chain_id":`...)
	dst = canonjson.AppendString(dst, p.ChainID)
	dst = append(dst, `,"height":`...)
	dst = strconv.AppendUint(dst, p.Height, 10)
	dst = append(dst, `,"block_hash":`...)
	dst = canonjson.AppendHex(dst, p.BlockHash[:])
	dst = append(dst, `,"state_root":`...)
	dst = canonjson.AppendHex(dst, p.StateRoot[:])
	dst = append(dst, `,"state":`...)
	dst, err := appendState(dst, p.State)
	if err != nil {
		return nil, err
	}
	if len(p.Receipts) == 0 {
		return [][]byte{append(dst, '}')}, nil
	}
	return [][]byte{append(dst, `,"receipts":[`...), c.encode(p.Receipts), []byte("]}")}, nil
}

// appendState writes x's members in field order. request_seq has no
// omitempty and comes last, so every member before it is followed by a
// comma.
func appendState(dst []byte, x *contract.StateExport) ([]byte, error) {
	if x == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '{')
	if len(x.Datasets) > 0 {
		dst = append(dst, `"datasets":[`...)
		for i := range x.Datasets {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendDataset(dst, &x.Datasets[i])
		}
		dst = append(dst, "],"...)
	}
	for _, t := range stateTables {
		enc, err := json.Marshal(t.field(x))
		if err != nil {
			return nil, err
		}
		if !omitted(enc) {
			dst = append(dst, t.key...)
			dst = append(dst, enc...)
			dst = append(dst, ',')
		}
	}
	dst = append(dst, `"request_seq":`...)
	dst = strconv.AppendUint(dst, x.RequestSeq, 10)
	return append(dst, '}'), nil
}

func appendDataset(dst []byte, d *contract.Dataset) []byte {
	dst = append(dst, `{"id":`...)
	dst = canonjson.AppendString(dst, d.ID)
	dst = append(dst, `,"owner":`...)
	dst = canonjson.AppendHex(dst, d.Owner[:])
	dst = append(dst, `,"digest":`...)
	dst = canonjson.AppendHex(dst, d.Digest[:])
	dst = append(dst, `,"schema":`...)
	dst = canonjson.AppendString(dst, d.Schema)
	dst = append(dst, `,"records":`...)
	dst = strconv.AppendInt(dst, int64(d.Records), 10)
	dst = append(dst, `,"site_id":`...)
	dst = canonjson.AppendString(dst, d.SiteID)
	dst = append(dst, `,"registered_at":`...)
	dst = strconv.AppendInt(dst, d.RegisteredAt, 10)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(d.Version), 10)
	dst = append(dst, `,"updated_at":`...)
	dst = strconv.AppendInt(dst, d.UpdatedAt, 10)
	if d.Frozen {
		dst = append(dst, `,"frozen":true`...)
	}
	if d.MovedTo != "" {
		dst = append(dst, `,"moved_to":`...)
		dst = canonjson.AppendString(dst, d.MovedTo)
	}
	return append(dst, '}')
}

func appendReceipt(dst []byte, r *contract.Receipt) []byte {
	if r == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"tx_id":`...)
	dst = canonjson.AppendHex(dst, r.TxID[:])
	dst = append(dst, `,"height":`...)
	dst = strconv.AppendUint(dst, r.Height, 10)
	dst = append(dst, `,"gas_used":`...)
	dst = strconv.AppendInt(dst, r.GasUsed, 10)
	if len(r.Events) > 0 {
		dst = append(dst, `,"events":[`...)
		for i := range r.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendEvent(dst, &r.Events[i])
		}
		dst = append(dst, ']')
	}
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = canonjson.AppendString(dst, r.Err)
	}
	return append(dst, '}')
}

func appendEvent(dst []byte, ev *vm.Event) []byte {
	dst = append(dst, `{"contract":`...)
	dst = canonjson.AppendHex(dst, ev.Contract[:])
	dst = append(dst, `,"topic":`...)
	dst = canonjson.AppendString(dst, ev.Topic)
	dst = append(dst, `,"data":`...)
	dst = canonjson.AppendBytes(dst, ev.Data)
	return append(dst, '}')
}

// decodeSnapshot parses a snapshot body in the canonical bytes
// snapshotParts writes, and refuses any other.
func decodeSnapshot(body []byte) (*snapshotPayload, error) {
	r := canonjson.NewReader(body)
	p := readSnapshot(&r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	return p, nil
}

// readSnapshot reads a payload in the form snapshotParts writes; r
// fails on any other.
func readSnapshot(r *canonjson.Reader) *snapshotPayload {
	p := new(snapshotPayload)
	r.Lit(`{"chain_id":`)
	p.ChainID = r.Text()
	r.Lit(`,"height":`)
	p.Height = r.Uint()
	r.Lit(`,"block_hash":`)
	r.Hex(p.BlockHash[:])
	r.Lit(`,"state_root":`)
	r.Hex(p.StateRoot[:])
	r.Lit(`,"state":`)
	p.State = readState(r)
	if r.Skip(`,"receipts":[`) {
		for {
			p.Receipts = append(p.Receipts, readReceipt(r))
			if !r.Skip(",") {
				break
			}
		}
		r.Lit(`]`)
	}
	r.Lit(`}`)
	return p
}

func readState(r *canonjson.Reader) *contract.StateExport {
	x := new(contract.StateExport)
	r.Lit(`{`)
	if r.Skip(`"datasets":[`) {
		for {
			x.Datasets = append(x.Datasets, readDataset(r))
			if !r.Skip(",") {
				break
			}
		}
		r.Lit(`],`)
	}
	for _, t := range stateTables {
		if !r.Skip(t.key) {
			continue
		}
		raw := r.Raw()
		if raw == nil {
			return x
		}
		field := t.field(x)
		if json.Unmarshal(raw, field) != nil {
			r.Fail()
			return x
		}
		if enc, err := json.Marshal(field); err != nil || omitted(enc) || !bytes.Equal(enc, raw) {
			r.Fail()
			return x
		}
		r.Lit(`,`)
	}
	r.Lit(`"request_seq":`)
	x.RequestSeq = r.Uint()
	r.Lit(`}`)
	return x
}

func readDataset(r *canonjson.Reader) contract.Dataset {
	var d contract.Dataset
	r.Lit(`{"id":`)
	d.ID = r.Text()
	r.Lit(`,"owner":`)
	r.Hex(d.Owner[:])
	r.Lit(`,"digest":`)
	r.Hex(d.Digest[:])
	r.Lit(`,"schema":`)
	d.Schema = r.Text()
	r.Lit(`,"records":`)
	d.Records = int(r.Int())
	r.Lit(`,"site_id":`)
	d.SiteID = r.Text()
	r.Lit(`,"registered_at":`)
	d.RegisteredAt = r.Int()
	r.Lit(`,"version":`)
	d.Version = int(r.Int())
	r.Lit(`,"updated_at":`)
	d.UpdatedAt = r.Int()
	d.Frozen = r.Skip(`,"frozen":true`)
	if r.Skip(`,"moved_to":`) {
		if d.MovedTo = r.Text(); d.MovedTo == "" {
			r.Fail()
		}
	}
	r.Lit(`}`)
	return d
}

// readReceipt reads one receipt, or null.
func readReceipt(r *canonjson.Reader) *contract.Receipt {
	if r.Skip("null") {
		return nil
	}
	rc := new(contract.Receipt)
	r.Lit(`{"tx_id":`)
	r.Hex(rc.TxID[:])
	r.Lit(`,"height":`)
	rc.Height = r.Uint()
	r.Lit(`,"gas_used":`)
	rc.GasUsed = r.Int()
	if r.Skip(`,"events":[`) {
		for {
			rc.Events = append(rc.Events, readEvent(r))
			if !r.Skip(",") {
				break
			}
		}
		r.Lit(`]`)
	}
	if r.Skip(`,"err":`) {
		if rc.Err = r.Text(); rc.Err == "" {
			r.Fail()
		}
	}
	r.Lit(`}`)
	return rc
}

func readEvent(r *canonjson.Reader) vm.Event {
	var ev vm.Event
	r.Lit(`{"contract":`)
	r.Hex(ev.Contract[:])
	r.Lit(`,"topic":`)
	ev.Topic = r.Text()
	r.Lit(`,"data":`)
	switch {
	case r.Skip("null"):
	case r.Skip(`""`):
		ev.Data = []byte{}
	default:
		ev.Data = r.Bytes()
	}
	r.Lit(`}`)
	return ev
}
