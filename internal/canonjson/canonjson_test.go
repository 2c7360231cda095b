package canonjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
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

// TestAppendFloatMatchesMarshal holds AppendFloat to json.Marshal at the
// exponent cutoffs, at the extremes of float64 and over random bit
// patterns, and requires both to refuse NaN and ±Inf.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1e20, 1e21, 1.5e21,
		-1e21, 1e100, 1e-100, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		123456789, 1234567890123456789, 0.000001234, 72.5, 1e-10}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range floats {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v: AppendFloat error %v, json.Marshal %v", f, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrUnsupportedFloat) || string(got) != "x" {
				t.Fatalf("%v: refused with %v, appending %q", f, err, got)
			}
			continue
		}
		if !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("%v: %s, json.Marshal %s", f, got[1:], want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); !errors.Is(err, ErrUnsupportedFloat) {
			t.Fatalf("%v: %v", f, err)
		}
	}
}

// TestTextTakesOnlyWhatAppendStringWrites reads back every string
// AppendString writes, escapes and non-ASCII included, and refuses the
// other spellings encoding/json reads as the same string.
func TestTextTakesOnlyWhatAppendStringWrites(t *testing.T) {
	for _, s := range []string{"", "plain", "a<b>&c", `q"uote\`, "tab\tnl\n\x00", "µ-é", " ", "�"} {
		enc := AppendString(nil, s)
		r := NewReader(enc)
		if got := r.Text(); r.Err() != nil || got != s {
			t.Fatalf("%q: Text read %q, %v", enc, got, r.Err())
		}
	}
	for _, enc := range []string{`"\u0041"`, `"<"`, `"\/"`, `"\ufffd"`, `"\u00b5"`, `"a`, `"a\"`, "\"\x01\"", `x`} {
		r := NewReader([]byte(enc))
		if got := r.Text(); !errors.Is(r.Err(), ErrNonCanonical) {
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
		if got := r.Raw(); got != nil || !errors.Is(r.Err(), ErrNonCanonical) {
			t.Fatalf("%s: Raw took %q", in, got)
		}
	}
}
