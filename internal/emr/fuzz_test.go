package emr

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeAs feeds arbitrary bytes to the three legacy decoders. A
// decode never panics, and it either refuses with a typed *ParseError
// or returns records that re-encode and decode equal. A record with no
// canonical form (a NaN or infinite HL7/CSV value) is accepted as the
// parsers always have and skips the round trip. For FHIR-lite the
// one-pass decode must also agree with the strict per-entry path, in
// its records and in its refusal reason.
func FuzzDecodeAs(f *testing.F) {
	for _, tc := range malformedHL7 {
		f.Add(uint8(0), []byte(tc.data))
	}
	for _, tc := range malformedCSV {
		f.Add(uint8(1), []byte(tc.data))
	}
	for _, tc := range malformedFHIR {
		f.Add(uint8(2), []byte(tc.data))
		f.Add(uint8(2), []byte("["+tc.data+"]"))
	}
	rec := NewGenerator(GenConfig{Seed: 7, Patients: 1}).Generate()
	for i, format := range Formats {
		data, err := EncodeAs(format, rec, "site-F")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
	}
	const patient = `{"resource":{"resourceType":"Patient","id":"P1","birthYear":1970}}`
	for _, bundle := range []string{
		`{"resourceType":"Bundle","entry":[` + patient + `,{"resource":null}]}`,
		`{"resourceType":"Bundle","entry":[` + patient + `,{"resource":{"resourceType":"Condition","code":"E11","period":"x"}}]}`,
		`{"RESOURCETYPE":"Bundle","Entry":[{"Resource":{"resourcetype":"Patient","ID":"P1","BirthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1","id":"P2"}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"resource":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"RESOURCE":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"r\u0065source":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"reſource":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[` + patient + `],"entry":[{"resource":{"id":"P2"}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"Pé","unit":"µmol/L"},"RESOURCE":{"birthYear":1970}}]}`,
	} {
		f.Add(uint8(2), []byte("["+bundle+"]"))
	}
	f.Add(uint8(0), []byte("PID|1|P1|1980|F|hispanic\rOBX|glu|NaN|mg/dL|5\r"))
	f.Add(uint8(1), []byte(csvHeaderLine+"patient,P1,1980,F,hispanic,,\nvital,P1,hr,-inf,5,,\n"))

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		format := Formats[int(which)%len(Formats)]
		recs, err := DecodeAs(format, data)
		if format == FormatFHIR {
			want, wantErr := decodeFHIRStrict(data)
			sameDecode(t, recs, err, want, wantErr)
		}
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || ReasonOf(err) == "error" {
				t.Fatalf("%s: untyped refusal %T: %v", format, err, err)
			}
			return
		}
		for _, r := range recs {
			if _, err := r.Canonical(); err != nil {
				return
			}
		}
		enc, err := EncodeAs(format, recs, "site-F")
		if err != nil {
			t.Fatalf("%s: decoded records do not re-encode: %v", format, err)
		}
		back, err := DecodeAs(format, enc)
		if err != nil {
			t.Fatalf("%s: re-encoded records do not decode: %v\n%q", format, err, enc)
		}
		if len(back) != len(recs) {
			t.Fatalf("%s: %d records re-decode as %d", format, len(recs), len(back))
		}
		for i := range recs {
			if !recs[i].Equal(back[i]) {
				t.Fatalf("%s: record %d changes on a round trip:\n%+v\n%+v", format, i, recs[i], back[i])
			}
		}
	})
}

// sameDecode fails unless the one-pass result equals the strict one:
// equal records on success, the same error on refusal.
func sameDecode(t *testing.T, got []*Record, gotErr error, want []*Record, wantErr error) {
	t.Helper()
	if ReasonOf(gotErr) != ReasonOf(wantErr) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("one-pass refuses with %q (%v), strict with %q (%v)",
			ReasonOf(gotErr), gotErr, ReasonOf(wantErr), wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass decodes\n%+v\nstrict decodes\n%+v", got, want)
	}
}
