package emr

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeAs feeds arbitrary bytes to the three legacy decoders. A
// decode never panics, and it either refuses with a typed *ParseError
// or returns records that re-encode and decode equal. Each decoder must
// also agree with its reference, in its records and in its refusal's
// format and reason: HL7 and CSV always, and FHIR-lite wherever no
// bundle, entry or resource object repeats a key; where one does, the
// decoder refuses the document as bad syntax.
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
	for _, doc := range hl7Docs {
		f.Add(uint8(0), []byte(doc))
	}
	for _, doc := range csvDocs {
		f.Add(uint8(1), []byte(csvHeaderLine+doc))
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		format := Formats[int(which)%len(Formats)]
		recs, err := DecodeAs(format, data)
		if format == FormatFHIR && repeatsKey(data) {
			if ReasonOf(err) != ReasonBadSyntax {
				t.Fatalf("a repeated key decodes with %q (%v)", ReasonOf(err), err)
			}
		} else {
			want, wantErr := refDecodeAs(format, data)
			sameDecode(t, recs, err, want, wantErr)
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

// hl7Docs are HL7v2-lite documents at the edges of the segment and
// field splits; each seeds FuzzDecodeAs.
var hl7Docs = []string{
	"\n\nPID|1|P1|1980|F|x|a~~b\r\r\nPID|1|P2|1981|M|y\n",
	"PID|1|P1|1980|F|x|c\rPID|1|P1|1980|F|x\rPID|1|P1|1980|F|x||extra\r",
	"PID|1|P1|1980|F|x\rMSH\rGEN|g|v|1|more\rGEN|g|v|true\rOBX|c|1e400|u|5\r",
	"\r\r\n\r",
	"PID|1|P1|+1980|F|x\rPV1|e|t|d|-0\rWEA|k|0x1p-2|5\rOBX|c|1_000|u|5\r",
}

// csvDocs are CSV rows, after the header, at the edges of
// encoding/csv's reading: quoted fields across lines, "\r\n", a final
// '\r', blank lines and bare quotes; each seeds FuzzDecodeAs.
var csvDocs = []string{
	"patient,\"P\"\"1\",1980,F,\"a,b\",\"x\ny\",\n\n\r\nlab,\"P\"\"1\",c,1,\"u\r\nv\",5,\r\n",
	"patient,P1,1980,F,x,,\r",
	"patient,P1,1980,F,x,,\"\"\r\r",
	"patient,P1,1980,F,x,,\"unterminated\n",
	"patient,P1,1980,F,x,,a\"b\n",
	"patient,P1,1980,F,x,,\"a\"b\n",
	"patient,P1,1980,F,x,,\"\"\n",
	"patient,P1,1980,F,x,\";;\",\npatient,P1,1981,M,y,,\n",
	"patient,P1,1980,F,x,,,\n",
	"patient,P1,1980,F,x,,\"a\"\r\n",
	"genomic,P1,g,v,1,,\nvital,P1,k,1,2,,\npatient,,1980,F,x,,\n",
}

// FuzzEncodeAs builds records from fuzz inputs and holds every encoder
// to its reference byte for byte: EncodeAs in each format, Canonical
// for each record, and DatasetDigest; where one fails, its reference
// must fail too. Each encoding must also decode as its reference
// decoder decodes it. The records mix the inputs' strings and values
// with ties and up to 115 elements a list, so the canonical form's
// sorts run past insertion sort and meet equal keys.
func FuzzEncodeAs(f *testing.F) {
	specials := []string{"<a>&b", "x\u2028y\u2029", "bad\xffutf8", "\xc3", ",", `"`, "\r", "\n", " lead", "\u00a0nbsp", `\.`, "a;b", "a~b|c", ""}
	floats := []float64{1e-6, 9.99e-7, 1e21, 1e20, math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64,
		0.1, 72.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, s := range specials {
		x := floats[i%len(floats)]
		f.Add(s, specials[(i+1)%len(specials)], x, -x, int64(i), []byte{3, byte(i), 19, 7, 13, 200, byte(i * 37)})
	}
	for _, x := range floats {
		f.Add("P-1", "mg/dL", x, 1.5, int64(1700000000), []byte{1, 5, 5, 5, 5})
	}
	f.Add("P-1", "P-2", 1.0, 2.0, int64(-1), bytes.Repeat([]byte{19}, 64))
	f.Add("P-1", "P-2", 1.0, 2.0, int64(7), []byte{1, 1, 1, 1, 255, 3, 1, 254, 5, 0, 2, 253})
	f.Fuzz(func(t *testing.T, s, u string, x, y float64, at int64, shape []byte) {
		recs, site := fuzzRecords(s, u, x, y, at, shape)
		for _, format := range Formats {
			got, err := EncodeAs(format, recs, site)
			want, wantErr := refEncodeAs(format, recs, site)
			if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
				t.Fatalf("%s: EncodeAs wrote %q (%v), reference %q (%v)", format, got, err, want, wantErr)
			}
			if err != nil {
				continue
			}
			if format == FormatFHIR && repeatsKey(got) {
				t.Fatalf("fhir-lite encoding repeats a key: %q", got)
			}
			back, err := DecodeAs(format, got)
			refBack, refErr := refDecodeAs(format, got)
			sameDecode(t, back, err, refBack, refErr)
		}
		for i, r := range recs {
			got, err := r.Canonical(nil)
			want, wantErr := refCanonical(r)
			if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
				t.Fatalf("record %d: Canonical wrote %s (%v), reference %s (%v)", i, got, err, want, wantErr)
			}
		}
		got, err := DatasetDigest(recs)
		want, wantErr := refDatasetDigest(recs)
		if (err != nil) != (wantErr != nil) || got != want {
			t.Fatalf("DatasetDigest %s (%v), reference %s (%v)", got, err, want, wantErr)
		}
	})
}

// fuzzRecords builds up to three records and a site ID from fuzz
// inputs. Each byte of shape picks a count, a string or a value; an
// exhausted shape reads as zeros.
func fuzzRecords(s, u string, x, y float64, at int64, shape []byte) ([]*Record, string) {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b)
	}
	str := func() string {
		switch next() % 6 {
		case 0:
			return s
		case 1:
			return u
		case 2:
			return s + u
		case 3:
			return ""
		case 4:
			return s[:len(s)/2] // may cut a UTF-8 sequence
		default:
			return "P-1"
		}
	}
	val := func() float64 {
		switch next() % 4 {
		case 0:
			return x
		case 1:
			return y
		case 2:
			return -x
		default:
			return float64(next()) / 10
		}
	}
	when := func() int64 { return at + int64(next()%3) } // ties between neighbours
	count := func() int {
		n := next()
		if n >= 200 {
			return n - 140 // 60 to 115: the quicksort's larger-input stages
		}
		return n % 20
	}
	site := str()
	recs := make([]*Record, next()%4)
	for i := range recs {
		r := &Record{Patient: Patient{ID: str(), BirthYear: int(at%3000) - next(), Sex: str(), Ethnicity: str()}}
		for n := count(); n > 0; n-- {
			r.Encounters = append(r.Encounters, Encounter{ID: str(), Type: str(), DiagnosisCode: str(), At: when()})
		}
		for n := count(); n > 0; n-- {
			r.Labs = append(r.Labs, LabResult{Code: str(), Value: val(), Unit: str(), At: when()})
		}
		for n := count(); n > 0; n-- {
			r.Genomics = append(r.Genomics, GenomicMarker{Gene: str(), Variant: str(), Present: next()%2 == 1})
		}
		for n := count(); n > 0; n-- {
			r.Vitals = append(r.Vitals, VitalSample{Kind: str(), Value: val(), At: when()})
		}
		for n := count(); n > 0; n-- {
			r.Conditions = append(r.Conditions, str())
		}
		recs[i] = r
	}
	return recs, site
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
