// Package canontest holds the test side of package canonjson: twins of
// a canonical JSON object for fuzz seeds and ingress tests (the same
// value spelled another way, or a null where a value was), and the
// differential checks against encoding/json.
package canontest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
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
// reads as the same value or as nulls in its place: indented, padded,
// reordered, with a duplicated, an upper-cased or an unknown key, null
// itself, and null in place of each top-level member's value.
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
	}
	for _, k := range keys {
		member := append([]byte(`"`+k+`":`), m[k]...)
		out = append(out, bytes.Replace(obj, member, []byte(`"`+k+`":null`), 1))
	}
	return out
}

// CheckDecode fails t unless a decode and encoding/json's reference
// decode of data agree: both fail, with err reading prefix + refErr, or
// both succeed with deeply equal values.
func CheckDecode[T any](t testing.TB, what string, data []byte, got, ref *T, err, refErr error, prefix string) {
	t.Helper()
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s %q: decode error %v, encoding/json %v", what, data, err, refErr)
	case err != nil && err.Error() != prefix+refErr.Error():
		t.Fatalf("%s %q: decode error %q, encoding/json %q", what, data, err, refErr)
	case err == nil && !reflect.DeepEqual(got, ref):
		t.Fatalf("%s %q: decoded %+v, encoding/json %+v", what, data, got, ref)
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
