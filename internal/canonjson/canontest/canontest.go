// Package canontest holds the test side of package canonjson: twins of
// a canonical JSON object for fuzz seeds and ingress tests (the same
// value spelled another way, or a null where a value was), and the
// checks that hold a decoder to its encoder and to encoding/json.
package canontest

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"medchain/internal/canonjson"
)

// members returns the top-level keys of a JSON object and their raw
// values.
func members(obj []byte) ([]string, map[string]json.RawMessage) {
	var m map[string]json.RawMessage
	if json.Unmarshal(obj, &m) != nil {
		return nil, nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, m
}

// Indented is obj with whitespace between every token.
func Indented(obj []byte) []byte {
	var out bytes.Buffer
	if json.Indent(&out, obj, " ", "\t") != nil {
		return obj
	}
	return append(out.Bytes(), '\n')
}

// Reordered is obj with its top-level keys in reverse alphabetical
// order (nested values unchanged); anything but an object is returned
// as it is.
func Reordered(obj []byte) []byte {
	keys, m := members(obj)
	if m == nil {
		return obj
	}
	out := []byte{'{'}
	for i := len(keys) - 1; i >= 0; i-- {
		if len(out) > 1 {
			out = append(out, ',')
		}
		k, _ := json.Marshal(keys[i])
		out = append(append(append(out, k...), ':'), m[keys[i]]...)
	}
	return append(out, '}')
}

// Variants returns twins of the canonical object obj that encoding/json
// reads as the same value or as nulls in its place — indented, padded,
// reordered, with a duplicated, an upper-cased or an unknown key, null
// itself, and null in place of each top-level member's value — and obj
// cut short by one byte. Each is a spelling a decoder must refuse
// (CheckRefused), unless json.Marshal writes it for the value it reads
// as: a member that may be null.
func Variants(obj []byte) [][]byte {
	keys, m := members(obj)
	if len(keys) == 0 || len(obj) < 2 || obj[0] != '{' {
		return nil
	}
	first := obj[1 : bytes.IndexByte(obj, ':')+1] // `"key":`
	firstKey := strings.Trim(string(first), `":`)
	out := [][]byte{
		Indented(obj),
		append(append([]byte(" "), obj...), ' '),
		Reordered(obj),
		[]byte("null"),
		append([]byte(`{"unknown":1,`), obj[1:]...),
		append(append(append([]byte{'{'}, first...), m[firstKey]...), append([]byte{','}, obj[1:]...)...),
		append([]byte{'{'}, append(bytes.ToUpper(first), obj[1+len(first):]...)...),
		obj[:len(obj)-1],
	}
	for _, k := range keys {
		member := append([]byte(`"`+k+`":`), m[k]...)
		out = append(out, bytes.Replace(obj, member, []byte(`"`+k+`":null`), 1))
	}
	return out
}

// CheckDecode fails t unless a decoder either refused data with
// canonjson.ErrNonCanonical, or decoded it to got, a value that
// deep-equals encoding/json's decode of data and that encode writes back
// as data, byte for byte — the encoding json.Marshal writes for it.
func CheckDecode[T any](t testing.TB, what string, data []byte, got *T, err error, encode func() ([]byte, error)) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, canonjson.ErrNonCanonical) {
			t.Fatalf("%s %q: decode error %v is not canonjson.ErrNonCanonical", what, data, err)
		}
		return
	}
	var ref T
	if refErr := json.Unmarshal(data, &ref); refErr != nil || !reflect.DeepEqual(got, &ref) {
		t.Fatalf("%s %q: decoded %+v, encoding/json %+v, %v", what, data, got, &ref, refErr)
	}
	CheckEncode(t, data, encode, &ref)
	if enc, _ := encode(); !bytes.Equal(enc, data) {
		t.Fatalf("%s %q: accepted, but its value encodes as %q", what, data, enc)
	}
}

// CheckRefused fails t unless a decoder refused data, a twin from
// Variants or another non-canonical spelling of a T, with
// canonjson.ErrNonCanonical. Bytes json.Marshal writes for the T they
// read as are some value's canonical form, not a twin: CheckDecode
// holds them instead.
func CheckRefused[T any](t testing.TB, what string, data []byte, err error) {
	t.Helper()
	var ref T
	if json.Unmarshal(data, &ref) == nil {
		if enc, e := json.Marshal(&ref); e == nil && bytes.Equal(enc, data) {
			return
		}
	}
	if !errors.Is(err, canonjson.ErrNonCanonical) {
		t.Fatalf("%s %q: decode error %v, want canonjson.ErrNonCanonical", what, data, err)
	}
}

// CheckEncode fails t unless encode writes what json.Marshal writes for
// ref, the value data decoded to.
func CheckEncode(t testing.TB, data []byte, encode func() ([]byte, error), ref any) {
	t.Helper()
	got, err := encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%q decoded to a value that encodes as\n%s\njson.Marshal writes\n%s", data, got, want)
	}
}
