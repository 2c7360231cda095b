package ledger

import (
	"slices"
	"strconv"

	"medchain/internal/canonjson"
)

// A transaction's and a block's bytes on the wire and on disk are the
// JSON encoding/json writes for them. appendTx and AppendBlockJSON write
// those bytes without reflection; readTx and ReadBlockJSON read them
// back and fail on any other spelling, which the decoders refuse with
// canonjson.ErrNonCanonical. The types carry no JSON methods, so
// json.Marshal of them stays the tests' reference encoding.

// txSizeHint is about the encoded size of tx: its fixed fields and
// 64-number signature come to under 512 bytes. The append functions
// grow their destination by it once.
func txSizeHint(tx *Transaction) int {
	return 512 + len(tx.Type) + len(tx.Method) + (len(tx.Args)+len(tx.PubKey))*4/3
}

func appendTx(dst []byte, tx *Transaction) []byte {
	if tx == nil {
		return append(dst, "null"...)
	}
	dst = slices.Grow(dst, txSizeHint(tx))
	dst = append(dst, `{"type":`...)
	dst = canonjson.AppendString(dst, string(tx.Type))
	dst = append(dst, `,"from":`...)
	dst = canonjson.AppendHex(dst, tx.From[:])
	dst = append(dst, `,"nonce":`...)
	dst = strconv.AppendUint(dst, tx.Nonce, 10)
	dst = append(dst, `,"contract":`...)
	dst = canonjson.AppendHex(dst, tx.Contract[:])
	dst = append(dst, `,"method":`...)
	dst = canonjson.AppendString(dst, tx.Method)
	if len(tx.Args) > 0 {
		dst = append(dst, `,"args":`...)
		dst = canonjson.AppendBytes(dst, tx.Args)
	}
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, tx.Timestamp, 10)
	if tx.Expiry != 0 {
		dst = append(dst, `,"expiry":`...)
		dst = strconv.AppendUint(dst, tx.Expiry, 10)
	}
	if len(tx.PubKey) > 0 {
		dst = append(dst, `,"pub_key":`...)
		dst = canonjson.AppendBytes(dst, tx.PubKey)
	}
	dst = append(dst, `,"sig":`...)
	dst = canonjson.AppendByteArray(dst, tx.Sig[:])
	return append(dst, '}')
}

func readTx(r *canonjson.Reader) *Transaction {
	tx := new(Transaction)
	r.Lit(`{"type":`)
	tx.Type = TxType(r.Text())
	r.Lit(`,"from":`)
	r.Hex(tx.From[:])
	r.Lit(`,"nonce":`)
	tx.Nonce = r.Uint()
	r.Lit(`,"contract":`)
	r.Hex(tx.Contract[:])
	r.Lit(`,"method":`)
	tx.Method = r.Text()
	if r.Skip(`,"args":`) {
		tx.Args = r.Bytes()
	}
	r.Lit(`,"timestamp":`)
	tx.Timestamp = r.Int()
	if r.Skip(`,"expiry":`) {
		if tx.Expiry = r.Uint(); tx.Expiry == 0 {
			r.Fail()
		}
	}
	if r.Skip(`,"pub_key":`) {
		tx.PubKey = r.Bytes()
	}
	r.Lit(`,"sig":`)
	r.ByteArray(tx.Sig[:])
	r.Lit(`}`)
	return tx
}

func appendHeader(dst []byte, h *Header) []byte {
	dst = append(dst, `{"height":`...)
	dst = strconv.AppendUint(dst, h.Height, 10)
	dst = append(dst, `,"parent":`...)
	dst = canonjson.AppendHex(dst, h.Parent[:])
	dst = append(dst, `,"tx_root":`...)
	dst = canonjson.AppendHex(dst, h.TxRoot[:])
	dst = append(dst, `,"state_root":`...)
	dst = canonjson.AppendHex(dst, h.StateRoot[:])
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, h.Timestamp, 10)
	dst = append(dst, `,"proposer":`...)
	dst = canonjson.AppendHex(dst, h.Proposer[:])
	if h.Difficulty != 0 {
		dst = append(dst, `,"difficulty":`...)
		dst = strconv.AppendUint(dst, uint64(h.Difficulty), 10)
	}
	if h.PowNonce != 0 {
		dst = append(dst, `,"pow_nonce":`...)
		dst = strconv.AppendUint(dst, h.PowNonce, 10)
	}
	return append(dst, '}')
}

func readHeader(r *canonjson.Reader, h *Header) {
	r.Lit(`{"height":`)
	h.Height = r.Uint()
	r.Lit(`,"parent":`)
	r.Hex(h.Parent[:])
	r.Lit(`,"tx_root":`)
	r.Hex(h.TxRoot[:])
	r.Lit(`,"state_root":`)
	r.Hex(h.StateRoot[:])
	r.Lit(`,"timestamp":`)
	h.Timestamp = r.Int()
	r.Lit(`,"proposer":`)
	r.Hex(h.Proposer[:])
	if r.Skip(`,"difficulty":`) {
		d := r.Uint()
		if d == 0 || d > 255 {
			r.Fail()
		}
		h.Difficulty = uint8(d)
	}
	if r.Skip(`,"pow_nonce":`) {
		if h.PowNonce = r.Uint(); h.PowNonce == 0 {
			r.Fail()
		}
	}
	r.Lit(`}`)
}

// blockSizeHint is about the encoded size of b, with room left for the
// signature a proposal wraps around it.
func blockSizeHint(b *Block) int {
	n := 1024 + len(b.Seal)*4/3
	for _, tx := range b.Txs {
		if tx != nil {
			n += txSizeHint(tx)
		}
	}
	return n
}

// AppendBlockJSON appends the bytes json.Marshal writes for b.
func AppendBlockJSON(dst []byte, b *Block) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = slices.Grow(dst, blockSizeHint(b))
	dst = append(dst, `{"header":`...)
	dst = appendHeader(dst, &b.Header)
	if len(b.Txs) > 0 {
		dst = append(dst, `,"txs":[`...)
		for i, tx := range b.Txs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendTx(dst, tx)
		}
		dst = append(dst, ']')
	}
	if len(b.Seal) > 0 {
		dst = append(dst, `,"seal":`...)
		dst = canonjson.AppendBytes(dst, b.Seal)
	}
	return append(dst, '}')
}

// ReadBlockJSON reads a block in the form AppendBlockJSON writes for a
// non-nil one; r fails on any other.
func ReadBlockJSON(r *canonjson.Reader) *Block {
	b := new(Block)
	r.Lit(`{"header":`)
	readHeader(r, &b.Header)
	if r.Skip(`,"txs":[`) {
		for {
			var tx *Transaction // null: a nil transaction
			if !r.Skip("null") {
				tx = readTx(r)
			}
			b.Txs = append(b.Txs, tx)
			if !r.Skip(",") {
				break
			}
		}
		r.Lit(`]`)
	}
	if r.Skip(`,"seal":`) {
		b.Seal = r.Bytes()
	}
	r.Lit(`}`)
	return b
}
