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
