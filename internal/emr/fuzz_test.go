package emr

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeAs feeds arbitrary bytes to the three legacy decoders. A
// decode never panics, and it either refuses with a typed *ParseError
// or returns records that re-encode and decode equal. For FHIR-lite the
// decoder must also agree with the encoding/json reference, in its
// records and in its refusal's format and reason, wherever no bundle,
// entry or resource object repeats a key; where one does, the decoder
// refuses the document as bad syntax.
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
	for _, bundle := range []string{
		`{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,{"resource":null}]}`,
		`{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,{"resource":{"resourceType":"Condition","code":"E11","period":"x"}}]}`,
		`{"RESOURCETYPE":"Bundle","Entry":[{"Resource":{"resourcetype":"Patient","ID":"P1","BirthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1","id":"P2"}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"resource":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"RESOURCE":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"r\u0065source":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"reſource":{"birthYear":1970}}]}`,
		`{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `],"entry":[{"resource":{"id":"P2"}}]}`,
		`{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"Pé","unit":"µmol/L"},"RESOURCE":{"birthYear":1970}}]}`,
	} {
		f.Add(uint8(2), []byte("["+bundle+"]"))
	}
	f.Add(uint8(0), []byte("PID|1|P1|1980|F|hispanic\rOBX|glu|NaN|mg/dL|5\r"))
	f.Add(uint8(1), []byte(csvHeaderLine+"patient,P1,1980,F,hispanic,,\nvital,P1,hr,-inf,5,,\n"))
	for _, tc := range fhirDocs {
		f.Add(uint8(2), []byte(tc.data))
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		format := Formats[int(which)%len(Formats)]
		recs, err := DecodeAs(format, data)
		if format == FormatFHIR {
			if repeatsKey(data) {
				if ReasonOf(err) != ReasonBadSyntax {
					t.Fatalf("a repeated key decodes with %q (%v)", ReasonOf(err), err)
				}
			} else {
				want, wantErr := refDecodeFHIR(data)
				sameDecode(t, recs, err, want, wantErr)
			}
		}
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || ReasonOf(err) == "error" {
				t.Fatalf("%s: untyped refusal %T: %v", format, err, err)
			}
			return
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

// sameDecode fails unless the decoder agrees with the reference: equal
// records on success, the same format and reason on refusal.
func sameDecode(t *testing.T, got []*Record, gotErr error, want []*Record, wantErr error) {
	t.Helper()
	if ReasonOf(gotErr) != ReasonOf(wantErr) || formatOf(gotErr) != formatOf(wantErr) {
		t.Fatalf("decoder refuses with %q (%v), reference with %q (%v)",
			ReasonOf(gotErr), gotErr, ReasonOf(wantErr), wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoder decodes\n%+v\nreference decodes\n%+v", got, want)
	}
}

func formatOf(err error) string {
	var pe *ParseError
	if errors.As(err, &pe) {
		return pe.Format
	}
	return ""
}

// repeatsKey reports whether a bundle array names one key twice in a
// bundle, entry or resource object, comparing keys as encoding/json
// matches them to fields: unescaped, then case-folded.
func repeatsKey(data []byte) bool {
	var bundles []json.RawMessage
	if json.Unmarshal(data, &bundles) != nil {
		return false
	}
	for _, b := range bundles {
		if bundleRepeatsKey(b) {
			return true
		}
	}
	return false
}

func bundleRepeatsKey(bundle []byte) bool {
	keys, vals := members(bundle)
	if repeated(keys) {
		return true
	}
	for i, k := range keys {
		var entries []json.RawMessage
		if !strings.EqualFold(k, "entry") || json.Unmarshal(vals[i], &entries) != nil {
			continue
		}
		for _, e := range entries {
			keys, vals := members(e)
			if repeated(keys) {
				return true
			}
			for j, k := range keys {
				if !strings.EqualFold(k, "resource") {
					continue
				}
				if resource, _ := members(vals[j]); repeated(resource) {
					return true
				}
			}
		}
	}
	return false
}

// members returns the keys and values of a JSON object, in order, and
// nothing for any other value.
func members(raw []byte) (keys []string, vals []json.RawMessage) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil, nil
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, nil
		}
		var v json.RawMessage
		if dec.Decode(&v) != nil {
			return nil, nil
		}
		keys, vals = append(keys, t.(string)), append(vals, v)
	}
	return keys, vals
}

func repeated(keys []string) bool {
	for i := range keys {
		for _, k := range keys[i+1:] {
			if strings.EqualFold(keys[i], k) {
				return true
			}
		}
	}
	return false
}
