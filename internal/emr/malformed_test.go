package emr

import (
	"errors"
	"strings"
	"testing"
)

// mustParseError asserts err is a typed *ParseError with the expected
// format label and stable reason code — the contract the chain-tailing
// indexer's skip counters depend on.
func mustParseError(t *testing.T, err error, format, reason string) {
	t.Helper()
	if err == nil {
		t.Fatal("parse accepted a malformed document")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *ParseError", err, err)
	}
	if pe.Format != format || pe.Reason != reason {
		t.Fatalf("ParseError{Format:%q Reason:%q}, want {%q %q} (err: %v)",
			pe.Format, pe.Reason, format, reason, err)
	}
	if got := ReasonOf(err); got != reason {
		t.Fatalf("ReasonOf = %q, want %q", got, reason)
	}
}

// malformedCase is one document a decoder must refuse, with the reason
// it must give. The tables seed FuzzDecodeAs too.
type malformedCase struct {
	name   string
	data   string
	reason string
}

var malformedHL7 = []malformedCase{
	{"truncated PID", "MSH|^~\\&|MEDCHAIN|site-A\rPID|1|P1\r", ReasonTruncatedSegment},
	{"truncated PV1", "PID|1|P1|1980|F|hispanic\rPV1|E1|outpatient\r", ReasonTruncatedSegment},
	{"truncated OBX", "PID|1|P1|1980|F|hispanic\rOBX|glu\r", ReasonTruncatedSegment},
	{"truncated GEN", "PID|1|P1|1980|F|hispanic\rGEN|BRCA1\r", ReasonTruncatedSegment},
	{"truncated WEA", "PID|1|P1|1980|F|hispanic\rWEA|hr\r", ReasonTruncatedSegment},
	{"non-numeric birth year", "PID|1|P1|nineteen80|F|hispanic\r", ReasonBadField},
	{"garbled OBX value", "PID|1|P1|1980|F|hispanic\rOBX|glu|high|mg/dL|5\r", ReasonBadField},
	{"NaN OBX value", "PID|1|P1|1980|F|hispanic\rOBX|glu|NaN|mg/dL|5\r", ReasonBadField},
	{"infinite WEA value", "PID|1|P1|1980|F|hispanic\rWEA|hr|Inf|5\r", ReasonBadField},
	{"unknown segment", "PID|1|P1|1980|F|hispanic\rZZZ|x\r", ReasonUnknownSegment},
	{"no PID", "MSH|^~\\&|MEDCHAIN|site-A\r", ReasonMissingPatient},
	{"empty message", "", ReasonMissingPatient},
}

const csvHeaderLine = "row_type,patient_id,f1,f2,f3,f4,f5\n"

var malformedCSV = []malformedCase{
	{"empty extract", "", ReasonBadHeader},
	{"wrong header", "kind,pid,a,b,c,d,e\npatient,P1,1980,F,hispanic,,\n", ReasonBadHeader},
	{"short row", csvHeaderLine + "patient,P1,1980\n", ReasonBadSyntax},
	{"broken quoting", csvHeaderLine + "patient,\"P1,1980,F,hispanic,,\n", ReasonBadSyntax},
	{"non-UTF8 cell", csvHeaderLine + "patient,P\xff\xfe1,1980,F,hispanic,,\n", ReasonNotUTF8},
	{"non-numeric birth year", csvHeaderLine + "patient,P1,abc,F,hispanic,,\n", ReasonBadField},
	{"garbled lab value", csvHeaderLine + "patient,P1,1980,F,hispanic,,\nlab,P1,glu,high,mg/dL,5,\n", ReasonBadField},
	{"NaN lab value", csvHeaderLine + "patient,P1,1980,F,hispanic,,\nlab,P1,glu,nan,mg/dL,5,\n", ReasonBadField},
	{"-inf vital value", csvHeaderLine + "patient,P1,1980,F,hispanic,,\nvital,P1,hr,-inf,5,,\n", ReasonBadField},
	{"unknown row type", csvHeaderLine + "martian,P1,a,b,c,d,e\n", ReasonUnknownSegment},
	{"rows without patient", csvHeaderLine + "lab,P1,glu,1.5,mg/dL,5,\n", ReasonMissingPatient},
}

// fhirPatientEntry is an entry holding a well-formed Patient.
const fhirPatientEntry = `{"resource":{"resourceType":"Patient","id":"P1","birthYear":1970}}`

// malformedFHIR holds single bundles. Each keeps its reason under the
// encoding/json reference, except those that repeat a key, which the
// reference merges and the decoder refuses.
var malformedFHIR = []malformedCase{
	{"not json", "{broken", ReasonBadSyntax},
	{"bundle without resourceType", `{"entry":[]}`, ReasonMissingResourceType},
	{"non-bundle root", `{"resourceType":"List","entry":[]}`, ReasonUnknownResource},
	{"entry without resourceType", `{"resourceType":"Bundle","entry":[{"resource":{"id":"P1"}}]}`, ReasonMissingResourceType},
	{"unknown resource", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Device"}}]}`, ReasonUnknownResource},
	{"mistyped patient field", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","birthYear":"1980"}}]}`, ReasonBadField},
	{"unknown observation category", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"}},{"resource":{"resourceType":"Observation","category":"imaging"}}]}`, ReasonUnknownResource},
	{"no patient resource", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Condition","code":"E11"}}]}`, ReasonMissingPatient},
	{"null entry", `{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,null]}`, ReasonBadSyntax},
	{"null resource", `{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,{"resource":null}]}`, ReasonMissingResourceType},
	{"resource not an object", `{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,{"resource":5}]}`, ReasonBadSyntax},
	{"numeric resourceType", `{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,{"resource":{"resourceType":5}}]}`, ReasonBadSyntax},
	{"fractional birth year", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","birthYear":1980.5}}]}`, ReasonBadField},
	{"exponent birth year", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","birthYear":1e3}}]}`, ReasonBadField},
	{"out-of-range value", `{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,{"resource":{"resourceType":"Observation","category":"laboratory","valueQuantity":1e400}}]}`, ReasonBadField},
	{"repeated entry", `{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `],"entry":[` + fhirPatientEntry + `]}`, ReasonBadSyntax},
	{"repeated resource", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1"},"resource":{"resourceType":"Patient","id":"P2"}}]}`, ReasonBadSyntax},
	{"repeated id", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P1","id":"P2"}}]}`, ReasonBadSyntax},
}

// fhirDocs holds whole documents, bundle arrays, and the reason each is
// refused with ("" for accepted), under the decoder and the reference.
var fhirDocs = []malformedCase{
	{"top-level null", "null", ""},
	{"syntax error in bundle 1 outranks missing patient in bundle 0", `[{"resourceType":"Bundle","entry":[]},{"resourceType":"Bundle","entry":[}]`, ReasonBadSyntax},
	{"field only another resource type owns", `[{"resourceType":"Bundle","entry":[` + fhirPatientEntry + `,{"resource":{"resourceType":"Condition","code":"E11","period":"x"}}]}]`, ""},
	{"case-folded keys", `[{"RESOURCETYPE":"Bundle","Entry":[{"Resource":{"resourcetype":"Patient","ID":"P1","BirthYear":1970}}]}]`, ""},
	{"invalid UTF-8", "[{\"resourceType\":\"Bundle\",\"entry\":[{\"resource\":{\"resourceType\":\"Patient\",\"id\":\"P\xff1\"}}]}]", ""},
	{"nesting at the depth limit", nestedBundle(maxFHIRDepth - 2), ""},
	{"nesting past the depth limit", nestedBundle(maxFHIRDepth - 1), ReasonBadSyntax},
}

// nestedBundle is a bundle array whose bundle holds an unknown field of
// n nested arrays, so the document nests n+2 deep.
func nestedBundle(n int) string {
	return `[{"resourceType":"Bundle","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) +
		`,"entry":[` + fhirPatientEntry + `]}]`
}

func TestMalformedHL7(t *testing.T) {
	for _, tc := range malformedHL7 {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseHL7([]byte(tc.data))
			mustParseError(t, err, FormatHL7, tc.reason)
		})
	}
}

func TestMalformedCSV(t *testing.T) {
	for _, tc := range malformedCSV {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseCSV([]byte(tc.data))
			mustParseError(t, err, FormatCSV, tc.reason)
		})
	}
}

func TestMalformedFHIR(t *testing.T) {
	for _, tc := range malformedFHIR {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFHIR([]byte(tc.data))
			mustParseError(t, err, FormatFHIR, tc.reason)
			if !bundleRepeatsKey([]byte(tc.data)) {
				_, err := refParseFHIR([]byte(tc.data))
				mustParseError(t, err, FormatFHIR, tc.reason)
			}
		})
	}
}

func TestFHIRDocs(t *testing.T) {
	for _, tc := range fhirDocs {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeAs(FormatFHIR, []byte(tc.data))
			if tc.reason != "" {
				mustParseError(t, err, FormatFHIR, tc.reason)
			} else if err != nil {
				t.Fatalf("refused: %v", err)
			}
			want, wantErr := refDecodeFHIR([]byte(tc.data))
			sameDecode(t, got, err, want, wantErr)
		})
	}
}

func TestFHIRInvalidUTF8ReadsAsReplacement(t *testing.T) {
	recs, err := DecodeAs(FormatFHIR, []byte(`[{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":"P`+"\xff"+`1","gender":"\ud800"}}]}]`))
	if err != nil {
		t.Fatal(err)
	}
	if p := recs[0].Patient; p.ID != "P\uFFFD1" || p.Sex != "\uFFFD" {
		t.Fatalf("patient %+v, want ID P\uFFFD1 and sex \uFFFD", p)
	}
}

func TestDecodeAsTypedErrors(t *testing.T) {
	// DecodeAs propagates the per-document typed error unchanged.
	_, err := DecodeAs(FormatHL7, []byte("PID|1|P1\n"))
	mustParseError(t, err, FormatHL7, ReasonTruncatedSegment)
	_, err = DecodeAs(FormatFHIR, []byte("not an array"))
	mustParseError(t, err, FormatFHIR, ReasonBadSyntax)
	// A FHIR refusal names the bundle and the entry.
	_, err = DecodeAs(FormatFHIR, []byte(`[{"resourceType":"Bundle","entry":[`+fhirPatientEntry+`]},{"resourceType":"Bundle","entry":[`+fhirPatientEntry+`,null]}]`))
	mustParseError(t, err, FormatFHIR, ReasonBadSyntax)
	if !strings.Contains(err.Error(), "bundle 1 entry 1") {
		t.Fatalf("refusal does not name bundle 1 entry 1: %v", err)
	}
	_, err = DecodeAs("edifact", []byte("x"))
	mustParseError(t, err, "edifact", ReasonUnknownFormat)

	if got := ReasonOf(nil); got != "" {
		t.Fatalf("ReasonOf(nil) = %q, want empty", got)
	}
	if got := ReasonOf(errors.New("opaque")); got != "error" {
		t.Fatalf("ReasonOf(opaque) = %q, want %q", got, "error")
	}
}
