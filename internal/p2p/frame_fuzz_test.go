package p2p

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// frame prefixes body with its length, as writeFrame does.
func frame(body string) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	return append(hdr[:], body...)
}

// FuzzReadFrame feeds arbitrary bytes to readFrame, the TCP hub's and
// endpoint's decoder for untrusted peers. It must never panic; it either
// fails or returns a Message that writeFrame then readFrame return
// unchanged.
func FuzzReadFrame(f *testing.F) {
	var canon bytes.Buffer
	if err := writeFrame(&canon, Message{From: "a", To: "b", Topic: "chain/tx", Payload: []byte(`{"x":1}`)}); err != nil {
		f.Fatal(err)
	}
	f.Add(canon.Bytes())
	for _, body := range []string{
		`{"from":"a","to":"","topic":"hello","payload":null}`,
		`{"from":"a","payload":""}`,
		` {"FROM":"a","from":"b","payload":"AA=="} `,
		"{\"from\":\"\xff\\u00e9\",\"topic\":\"\\u003c\"}",
		`{"payload":"not base64"}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		f.Add(frame(body))
	}
	f.Add([]byte{0x00, 0x00, 0x10})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, '{'})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			t.Fatalf("writeFrame(%+v): %v", msg, err)
		}
		back, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %q read as %+v, which reads back as error %v", data, msg, err)
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("frame %q read as %+v, which reads back as %+v", data, msg, back)
		}
	})
}
