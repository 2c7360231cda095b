// Package canonjson writes and reads, without reflection, the exact
// bytes encoding/json produces for a struct with a fixed field order:
// the canonical form in which ledger and consensus messages travel and
// rest.
//
// The append functions write what json.Marshal writes, and defer to it
// for any string that needs escaping, so its HTML-escaping and UTF-8
// rules stay its own. A Reader accepts only that form — fields in
// declaration order, no whitespace, strings with exactly the escapes
// json.Marshal writes, lower-case hex, shortest numbers, canonical
// base64 — and refuses anything else with ErrNonCanonical. A decoder
// built on it has no second path: every value it accepts is one whose
// encoding is its input, byte for byte.
package canonjson

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// plain marks the bytes json.Marshal writes unescaped inside a string:
// printable ASCII except the quote, the backslash and the three bytes
// it HTML-escapes.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// strictBase64 refuses the non-zero trailing bits StdEncoding accepts,
// so the one spelling StdEncoding writes is the only one a Reader takes.
var strictBase64 = base64.StdEncoding.Strict()

// AppendString appends s as json.Marshal writes a string.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendHex appends b as quoted lower-case hex, the text a
// cryptoutil.Digest or Address marshals to.
func AppendHex(dst, b []byte) []byte {
	dst = append(dst, '"')
	dst = hex.AppendEncode(dst, b)
	return append(dst, '"')
}

// AppendBytes appends b as json.Marshal writes a []byte: quoted
// standard base64, or null for a nil slice.
func AppendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = appendBase64(dst, b)
	return append(dst, '"')
}

// base64Pairs[v] is the two standard base64 characters of the 12-bit
// value v.
var base64Pairs = func() (t [1 << 12]uint16) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for v := range t {
		t[v] = uint16(alphabet[v>>6])<<8 | uint16(alphabet[v&63])
	}
	return t
}()

// appendBase64 appends what base64.StdEncoding.AppendEncode does, six
// input bytes per step; the tail of under eight goes to the standard
// encoder, which also pads.
func appendBase64(dst, b []byte) []byte {
	m := base64.StdEncoding.EncodedLen(len(b))
	dst = slices.Grow(dst, m)[:len(dst)+m]
	out := dst[len(dst)-m:]
	i, o := 0, 0
	for ; len(b)-i >= 8; i, o = i+6, o+8 {
		v := binary.BigEndian.Uint64(b[i:])
		binary.BigEndian.PutUint64(out[o:], uint64(base64Pairs[v>>52])<<48|
			uint64(base64Pairs[v>>40&0xfff])<<32|
			uint64(base64Pairs[v>>28&0xfff])<<16|
			uint64(base64Pairs[v>>16&0xfff]))
	}
	base64.StdEncoding.Encode(out[o:], b[i:])
	return dst
}

// byteNumber[c] is c in decimal followed by a comma.
var byteNumber = func() (t [256]string) {
	for c := range t {
		t[c] = strconv.Itoa(c) + ","
	}
	return t
}()

// AppendByteArray appends b as json.Marshal writes a byte array such
// as cryptoutil.Signature: a list of numbers.
func AppendByteArray(dst, b []byte) []byte {
	dst = append(dst, '[')
	for _, c := range b {
		dst = append(dst, byteNumber[c]...)
	}
	if len(b) > 0 {
		dst = dst[:len(dst)-1]
	}
	return append(dst, ']')
}

// Reader consumes canonical bytes left to right. The first mismatch
// fails it for good: every later call is a no-op that returns a zero
// value, so a decoder reads its whole shape and asks Err once.
type Reader struct {
	b   []byte
	i   int
	bad bool
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail marks the input as not canonical.
func (r *Reader) Fail() { r.bad = true }

// ErrNonCanonical is the error of every decoder built on a Reader for
// bytes its encoder does not write.
var ErrNonCanonical = errors.New("canonjson: not the canonical encoding")

// Err returns nil if the reader consumed its whole input without
// failing, and otherwise ErrNonCanonical with the offset at which it
// stopped.
func (r *Reader) Err() error {
	if !r.bad && r.i == len(r.b) {
		return nil
	}
	return fmt.Errorf("%w (byte %d of %d)", ErrNonCanonical, r.i, len(r.b))
}

// Skip consumes s if the input continues with it and reports whether it
// did: an optional field's key, a separator, a null.
func (r *Reader) Skip(s string) bool {
	if r.bad || len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// Lit consumes s, or fails.
func (r *Reader) Lit(s string) {
	if !r.Skip(s) {
		r.bad = true
	}
}

// quoted consumes a quoted string and returns what is between the
// quotes, and whether that is plain bytes only.
func (r *Reader) quoted() (s []byte, plainOnly bool) {
	if r.bad || r.i >= len(r.b) || r.b[r.i] != '"' {
		r.bad = true
		return nil, false
	}
	j, plainOnly := r.i+1, true
	for ; j < len(r.b) && r.b[j] != '"'; j++ {
		if !plain[r.b[j]] {
			plainOnly = false
			if r.b[j] == '\\' {
				j++
			}
		}
	}
	if j >= len(r.b) {
		r.bad = true
		return nil, false
	}
	s = r.b[r.i+1 : j]
	r.i = j + 1
	return s, plainOnly
}

// Text reads a quoted string as AppendString writes it: plain bytes in
// one pass, and any string with escapes or non-ASCII bytes through
// encoding/json, accepted only when AppendString writes the value it
// decodes to back as the same bytes.
func (r *Reader) Text() string {
	start := r.i
	s, plainOnly := r.quoted()
	if r.bad || plainOnly {
		return string(s)
	}
	quoted, text := r.b[start:r.i], ""
	if json.Unmarshal(quoted, &text) != nil || !bytes.Equal(AppendString(nil, text), quoted) {
		r.bad = true
		return ""
	}
	return text
}

// Raw reads one JSON array or object and returns its bytes. It only
// matches brackets outside strings: the caller decodes the bytes with
// encoding/json and holds them to the encoding of what it decoded.
func (r *Reader) Raw() []byte {
	if r.bad || r.i >= len(r.b) || (r.b[r.i] != '[' && r.b[r.i] != '{') {
		r.bad = true
		return nil
	}
	depth := 0
	for j := r.i; j < len(r.b); j++ {
		switch r.b[j] {
		case '"':
			for j++; j < len(r.b) && r.b[j] != '"'; j++ {
				if r.b[j] == '\\' {
					j++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				v := r.b[r.i : j+1]
				r.i = j + 1
				return v
			}
		}
	}
	r.bad = true
	return nil
}

// Hex reads quoted lower-case hex of exactly len(dst) bytes into dst.
func (r *Reader) Hex(dst []byte) {
	s, _ := r.quoted() // nibble refuses all but lower-case hex
	if r.bad || len(s) != 2*len(dst) {
		r.bad = true
		return
	}
	for i := range dst {
		hi, ok1 := nibble(s[2*i])
		lo, ok2 := nibble(s[2*i+1])
		if !ok1 || !ok2 {
			r.bad = true
			return
		}
		dst[i] = hi<<4 | lo
	}
}

func nibble(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Bytes reads a non-empty quoted base64 string, the form an omitempty
// []byte field takes when it is present.
func (r *Reader) Bytes() []byte {
	s, plainOnly := r.quoted() // base64 decoding skips raw newlines
	if r.bad || !plainOnly || len(s) == 0 {
		r.bad = true
		return nil
	}
	out := make([]byte, strictBase64.DecodedLen(len(s)))
	n, err := strictBase64.Decode(out, s)
	if err != nil {
		r.bad = true
		return nil
	}
	return out[:n]
}

// Uint reads an unsigned decimal with no leading zero.
func (r *Reader) Uint() uint64 {
	if r.bad {
		return 0
	}
	j := r.i
	var v uint64
	for ; j < len(r.b) && '0' <= r.b[j] && r.b[j] <= '9'; j++ {
		d := uint64(r.b[j] - '0')
		if v > (math.MaxUint64-d)/10 {
			r.bad = true
			return 0
		}
		v = v*10 + d
	}
	if j == r.i || (r.b[r.i] == '0' && j > r.i+1) {
		r.bad = true
		return 0
	}
	r.i = j
	return v
}

// Int reads a signed decimal with no leading zero and no "-0".
func (r *Reader) Int() int64 {
	neg := r.Skip("-")
	u := r.Uint()
	switch {
	case r.bad:
		return 0
	case !neg && u <= math.MaxInt64:
		return int64(u)
	case neg && u != 0 && u <= 1<<63:
		return int64(-u)
	}
	r.bad = true
	return 0
}

// ByteArray reads a list of exactly len(dst) numbers in 0–255 into dst.
func (r *Reader) ByteArray(dst []byte) {
	r.Lit("[")
	if r.bad {
		return
	}
	b, j := r.b, r.i
	for i := range dst {
		if i > 0 {
			if j >= len(b) || b[j] != ',' {
				r.bad = true
				return
			}
			j++
		}
		v, k := 0, j
		for ; k < len(b) && k-j < 4 && '0' <= b[k] && b[k] <= '9'; k++ {
			v = v*10 + int(b[k]-'0')
		}
		if k == j || k-j > 3 || (b[j] == '0' && k > j+1) || v > math.MaxUint8 {
			r.bad = true
			return
		}
		dst[i] = byte(v)
		j = k
	}
	r.i = j
	r.Lit("]")
}
