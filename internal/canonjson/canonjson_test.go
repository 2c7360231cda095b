package canonjson

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// TestAppendBytesMatchesMarshal holds the six-bytes-a-step base64 to
// json.Marshal's for every length up to a few steps past the tail, and
// for nil.
func TestAppendBytesMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 64; n++ {
		b := make([]byte, n)
		rng.Read(b)
		want, _ := json.Marshal(b)
		if got := AppendBytes([]byte("x"), b); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("%d bytes: %s, json.Marshal %s", n, got, want)
		}
	}
	if got := AppendBytes(nil, nil); string(got) != "null" {
		t.Fatalf("nil: %s", got)
	}
}

// TestTextTakesOnlyWhatAppendStringWrites reads back every string
// AppendString writes, escapes and non-ASCII included, and refuses the
// other spellings encoding/json reads as the same string.
func TestTextTakesOnlyWhatAppendStringWrites(t *testing.T) {
	for _, s := range []string{"", "plain", "a<b>&c", `q"uote\`, "tab\tnl\n\x00", "µ-é", " ", "�"} {
		enc := AppendString(nil, s)
		r := NewReader(enc)
		if got := r.Text(); !r.Done() || got != s {
			t.Fatalf("%q: Text read %q, done %v", enc, got, r.Done())
		}
	}
	for _, enc := range []string{`"\u0041"`, `"<"`, `"\/"`, `"\ufffd"`, `"\u00b5"`, `"a`, `"a\"`, "\"\x01\"", `x`} {
		r := NewReader([]byte(enc))
		if got := r.Text(); r.Done() {
			t.Fatalf("%s: Text took a non-canonical spelling as %q", enc, got)
		}
	}
}

// TestRawSpansOneValue takes one array or object through its matching
// bracket, skipping brackets and escaped quotes inside strings.
func TestRawSpansOneValue(t *testing.T) {
	for _, tc := range []struct{ in, raw string }{
		{`[1,[2],{"a":"]"}],x`, `[1,[2],{"a":"]"}]`},
		{`{"k":"\"}"}`, `{"k":"\"}"}`},
		{`[]`, `[]`},
	} {
		r := NewReader([]byte(tc.in))
		if got := r.Raw(); string(got) != tc.raw {
			t.Fatalf("%s: Raw %q, want %q", tc.in, got, tc.raw)
		}
	}
	for _, in := range []string{`1`, `"s"`, `[1`, `{"a":"}`, ``} {
		r := NewReader([]byte(in))
		if got := r.Raw(); got != nil || r.Done() {
			t.Fatalf("%s: Raw took %q", in, got)
		}
	}
}
