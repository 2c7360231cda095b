package emr

import (
	"strings"
	"testing"
	"testing/quick"
)

func genRecords(t testing.TB, seed int64, n int) []*Record {
	t.Helper()
	return NewGenerator(GenConfig{Seed: seed, Patients: n}).Generate()
}

func TestGeneratorDeterministic(t *testing.T) {
	a := genRecords(t, 42, 20)
	b := genRecords(t, 42, 20)
	if len(a) != len(b) {
		t.Fatal("cohort sizes differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("record %d differs between identically-seeded runs", i)
		}
	}
	c := genRecords(t, 43, 20)
	same := 0
	for i := range a {
		if a[i].Equal(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical cohorts")
	}
}

func TestGeneratorStartIDDisjoint(t *testing.T) {
	a := NewGenerator(GenConfig{Seed: 1, Patients: 10, StartID: 0}).Generate()
	b := NewGenerator(GenConfig{Seed: 2, Patients: 10, StartID: 10}).Generate()
	seen := make(map[string]bool)
	for _, r := range append(a, b...) {
		if seen[r.Patient.ID] {
			t.Fatalf("duplicate patient ID %s across sites", r.Patient.ID)
		}
		seen[r.Patient.ID] = true
	}
}

func TestGeneratorPlausibleCohort(t *testing.T) {
	recs := genRecords(t, 7, 500)
	diabetes, stroke := 0, 0
	for _, r := range recs {
		if r.Patient.BirthYear < ReferenceYear-95 || r.Patient.BirthYear > ReferenceYear-18 {
			t.Fatalf("patient %s has implausible birth year %d", r.Patient.ID, r.Patient.BirthYear)
		}
		if len(r.Encounters) == 0 || len(r.Labs) == 0 || len(r.Vitals) == 0 || len(r.Genomics) != 2 {
			t.Fatalf("patient %s has empty sections", r.Patient.ID)
		}
		if r.HasCondition(CondDiabetes) {
			diabetes++
		}
		if r.HasCondition(CondStroke) {
			stroke++
		}
	}
	// Prevalence should be non-degenerate: not zero, not everyone.
	if diabetes < 25 || diabetes > 400 {
		t.Fatalf("diabetes prevalence %d/500 out of plausible band", diabetes)
	}
	if stroke < 10 || stroke > 350 {
		t.Fatalf("stroke prevalence %d/500 out of plausible band", stroke)
	}
}

func TestDiseaseModelHasSignal(t *testing.T) {
	// Patients with the risk marker + high glucose must have higher
	// diabetes prevalence than those without — otherwise E6 has
	// nothing to learn.
	recs := genRecords(t, 11, 3000)
	var riskN, riskCases, safeN, safeCases int
	for _, r := range recs {
		glu, _ := r.MeanLab(LabGlucose)
		risky := r.HasMarker(GeneDiabetes) && glu > 110
		safe := !r.HasMarker(GeneDiabetes) && glu < 95
		switch {
		case risky:
			riskN++
			if r.HasCondition(CondDiabetes) {
				riskCases++
			}
		case safe:
			safeN++
			if r.HasCondition(CondDiabetes) {
				safeCases++
			}
		}
	}
	if riskN == 0 || safeN == 0 {
		t.Fatal("strata empty")
	}
	riskRate := float64(riskCases) / float64(riskN)
	safeRate := float64(safeCases) / float64(safeN)
	if riskRate <= safeRate+0.1 {
		t.Fatalf("risk stratum rate %.2f not clearly above safe stratum %.2f", riskRate, safeRate)
	}
}

func TestRecordAccessors(t *testing.T) {
	r := &Record{
		Patient:    Patient{ID: "P-1", BirthYear: 1960},
		Labs:       []LabResult{{Code: LabGlucose, Value: 100}, {Code: LabGlucose, Value: 120}, {Code: LabBMI, Value: 30}},
		Vitals:     []VitalSample{{Kind: VitalSteps, Value: 4000}, {Kind: VitalSteps, Value: 6000}},
		Genomics:   []GenomicMarker{{Gene: GeneDiabetes, Present: true}, {Gene: GeneStroke, Present: false}},
		Conditions: []string{CondDiabetes},
	}
	if got, _ := r.MeanLab(LabGlucose); got != 110 {
		t.Fatalf("MeanLab = %v, want 110", got)
	}
	if _, ok := r.MeanLab("NOPE"); ok {
		t.Fatal("missing lab reported present")
	}
	if got, _ := r.MeanVital(VitalSteps); got != 5000 {
		t.Fatalf("MeanVital = %v, want 5000", got)
	}
	if _, ok := r.MeanVital("nope"); ok {
		t.Fatal("missing vital reported present")
	}
	if !r.HasMarker(GeneDiabetes) || r.HasMarker(GeneStroke) {
		t.Fatal("HasMarker wrong")
	}
	if !r.HasCondition(CondDiabetes) || r.HasCondition(CondStroke) {
		t.Fatal("HasCondition wrong")
	}
	if r.Patient.Age(2018) != 58 {
		t.Fatalf("Age = %d", r.Patient.Age(2018))
	}
}

func TestCanonicalOrderInsensitive(t *testing.T) {
	a := &Record{
		Patient: Patient{ID: "P-1", BirthYear: 1970, Sex: SexFemale},
		Labs: []LabResult{
			{Code: "A", Value: 1, At: 10},
			{Code: "B", Value: 2, At: 5},
		},
		Conditions: []string{"x", "y"},
	}
	b := &Record{
		Patient: a.Patient,
		Labs: []LabResult{
			{Code: "B", Value: 2, At: 5},
			{Code: "A", Value: 1, At: 10},
		},
		Conditions: []string{"y", "x"},
	}
	if !a.Equal(b) {
		t.Fatal("canonicalization is order sensitive")
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("digests differ for equal records")
	}
}

func TestDatasetDigestOrderInsensitiveAndTamperSensitive(t *testing.T) {
	recs := genRecords(t, 3, 10)
	d1, err := DatasetDigest(recs)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]*Record, len(recs))
	for i, r := range recs {
		reversed[len(recs)-1-i] = r
	}
	d2, err := DatasetDigest(reversed)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("dataset digest is order sensitive")
	}
	recs[4].Labs[0].Value += 0.1
	d3, err := DatasetDigest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("tampering a lab did not change dataset digest")
	}
}

func roundTrip(t *testing.T, format string, recs []*Record) {
	t.Helper()
	data, err := EncodeAs(format, recs, "site-X")
	if err != nil {
		t.Fatalf("%s encode: %v", format, err)
	}
	got, err := DecodeAs(format, data)
	if err != nil {
		t.Fatalf("%s decode: %v", format, err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%s: %d records in, %d out", format, len(recs), len(got))
	}
	for i := range recs {
		if !recs[i].Equal(got[i]) {
			t.Fatalf("%s: record %d (%s) not lossless", format, i, recs[i].Patient.ID)
		}
	}
}

func TestHL7RoundTrip(t *testing.T)  { roundTrip(t, FormatHL7, genRecords(t, 21, 8)) }
func TestCSVRoundTrip(t *testing.T)  { roundTrip(t, FormatCSV, genRecords(t, 22, 8)) }
func TestFHIRRoundTrip(t *testing.T) { roundTrip(t, FormatFHIR, genRecords(t, 23, 8)) }

// Property: all three legacy mappers are lossless for arbitrary seeds.
func TestAllFormatsLosslessProperty(t *testing.T) {
	f := func(seed int64) bool {
		recs := NewGenerator(GenConfig{Seed: seed, Patients: 3}).Generate()
		for _, format := range Formats {
			data, err := EncodeAs(format, recs, "s")
			if err != nil {
				return false
			}
			got, err := DecodeAs(format, data)
			if err != nil || len(got) != len(recs) {
				return false
			}
			for i := range recs {
				if !recs[i].Equal(got[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestHL7ParseErrors(t *testing.T) {
	tests := []struct {
		name string
		msg  string
	}{
		{"no PID", "MSH|^~\\&|MEDCHAIN|s\r"},
		{"short PID", "PID|1|P-1\r"},
		{"bad birth year", "PID|1|P-1|abc|M|g|\r"},
		{"unknown segment", "PID|1|P-1|1970|M|g|\rZZZ|x\r"},
		{"bad OBX value", "PID|1|P-1|1970|M|g|\rOBX|GLU|NaNope|mg|1\r"},
		{"short PV1", "PID|1|P-1|1970|M|g|\rPV1|e\r"},
		{"bad PV1 time", "PID|1|P-1|1970|M|g|\rPV1|e|t|d|xx\r"},
		{"short GEN", "PID|1|P-1|1970|M|g|\rGEN|x\r"},
		{"short WEA", "PID|1|P-1|1970|M|g|\rWEA|x\r"},
		{"bad WEA time", "PID|1|P-1|1970|M|g|\rWEA|steps|1|zz\r"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseHL7(tt.msg); err == nil {
				t.Fatalf("ParseHL7(%q) succeeded", tt.msg)
			}
		})
	}
}

func TestHL7EmptyConditions(t *testing.T) {
	r := &Record{Patient: Patient{ID: "P-1", BirthYear: 1970, Sex: SexMale, Ethnicity: "g"}}
	got, err := ParseHL7(EncodeHL7(r, "s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Conditions) != 0 {
		t.Fatalf("empty conditions round-tripped as %v", got.Conditions)
	}
}

func TestCSVParseErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad header", "a,b,c,d,e,f,g\n"},
		{"unknown row type", strings.Join(csvHeader, ",") + "\nwizard,P-1,,,,,\n"},
		{"orphan rows", strings.Join(csvHeader, ",") + "\nlab,P-1,GLU,1,mg,5,\n"},
		{"bad lab value", strings.Join(csvHeader, ",") + "\npatient,P-1,1970,M,g,,\nlab,P-1,GLU,xx,mg,5,\n"},
		{"bad birth year", strings.Join(csvHeader, ",") + "\npatient,P-1,xx,M,g,,\n"},
		{"wrong column count", strings.Join(csvHeader, ",") + "\npatient,P-1\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseCSV(tt.data); err == nil {
				t.Fatalf("ParseCSV succeeded for %s", tt.name)
			}
		})
	}
}

func TestFHIRParseErrors(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"not json", "{"},
		{"wrong type", `{"resourceType":"Observation","entry":[]}`},
		{"no patient", `{"resourceType":"Bundle","entry":[]}`},
		{"unknown resource", `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Mystery"}}]}`},
		{"bad observation category", `{"resourceType":"Bundle","entry":[
			{"resource":{"resourceType":"Patient","id":"P-1","birthYear":1970}},
			{"resource":{"resourceType":"Observation","category":"imaging"}}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseFHIR([]byte(tt.data)); err == nil {
				t.Fatalf("ParseFHIR succeeded for %s", tt.name)
			}
		})
	}
}

func TestEncodeDecodeUnknownFormat(t *testing.T) {
	if _, err := EncodeAs("parquet", nil, "s"); err == nil {
		t.Fatal("unknown encode format accepted")
	}
	if _, err := DecodeAs("parquet", nil); err == nil {
		t.Fatal("unknown decode format accepted")
	}
}

func TestFeatureVector(t *testing.T) {
	recs := genRecords(t, 5, 50)
	for _, r := range recs {
		fv := FeatureVector(r)
		if len(fv) != len(FeatureNames) {
			t.Fatalf("feature vector has %d entries, want %d", len(fv), len(FeatureNames))
		}
		if fv[0] < 18 || fv[0] > 95 {
			t.Fatalf("age feature %v out of range", fv[0])
		}
		if fv[6] != 0 && fv[6] != 1 {
			t.Fatalf("marker feature %v not binary", fv[6])
		}
	}
	// Missing labs fall back to population means, not zero.
	empty := &Record{Patient: Patient{ID: "P-0", BirthYear: 1970}}
	fv := FeatureVector(empty)
	if fv[1] == 0 || fv[2] == 0 {
		t.Fatal("missing labs mapped to zero instead of population means")
	}
}

func TestGenConfigDefaults(t *testing.T) {
	recs := NewGenerator(GenConfig{Seed: 1}).Generate()
	if len(recs) != 100 {
		t.Fatalf("default cohort size %d, want 100", len(recs))
	}
}

func BenchmarkGenerate100(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewGenerator(GenConfig{Seed: int64(i), Patients: 100}).Generate()
	}
}

func BenchmarkHL7RoundTrip(b *testing.B) {
	recs := NewGenerator(GenConfig{Seed: 1, Patients: 10}).Generate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := EncodeAs(FormatHL7, recs, "s")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeAs(FormatHL7, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeAs decodes one generated record per document, the
// shape of an anchored blob. fhir-lite-non-ascii carries µ and é;
// fhir-lite-escaped carries a "<", which json.Marshal writes as a
// \u003c escape. Both take the same single FHIR path as fhir-lite, and
// time what non-ASCII text and unescaping add to it.
func BenchmarkDecodeAs(b *testing.B) {
	recs := NewGenerator(GenConfig{Seed: 1, Patients: 1}).Generate()
	run := func(name string, data []byte, decode func([]byte) ([]*Record, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, format := range Formats {
		data, err := EncodeAs(format, recs, "s")
		if err != nil {
			b.Fatal(err)
		}
		run(format, data, func(d []byte) ([]*Record, error) { return DecodeAs(format, d) })
	}
	fhir := func(name string, edit func(r *Record)) {
		r := *recs[0]
		r.Labs = append([]LabResult(nil), r.Labs...)
		edit(&r)
		data, err := EncodeAs(FormatFHIR, []*Record{&r}, "s")
		if err != nil {
			b.Fatal(err)
		}
		run(FormatFHIR+"-"+name, data, func(d []byte) ([]*Record, error) { return DecodeAs(FormatFHIR, d) })
	}
	fhir("non-ascii", func(r *Record) {
		r.Patient.Ethnicity = "hispánic"
		for i := range r.Labs {
			r.Labs[i].Unit = "µmol/L"
		}
	})
	fhir("escaped", func(r *Record) { r.Patient.Ethnicity = "<unknown>" })
}

func BenchmarkDatasetDigest(b *testing.B) {
	recs := NewGenerator(GenConfig{Seed: 1, Patients: 100}).Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DatasetDigest(recs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGeneratedRecordsRoundTripAllFormats(t *testing.T) {
	// Larger cohort, every format, spot-checking scale.
	recs := genRecords(t, 99, 40)
	for _, format := range Formats {
		t.Run(format, func(t *testing.T) {
			roundTrip(t, format, recs)
		})
	}
}

func TestHL7FormatShape(t *testing.T) {
	r := genRecords(t, 1, 1)[0]
	msg := EncodeHL7(r, "site-1")
	if !strings.HasPrefix(msg, "MSH|^~\\&|MEDCHAIN|site-1\r") {
		t.Fatalf("MSH header malformed: %q", msg[:40])
	}
	if !strings.Contains(msg, "PID|1|"+r.Patient.ID) {
		t.Fatal("PID segment missing")
	}
	if strings.Count(msg, "\rPV1|") != len(r.Encounters) {
		t.Fatal("PV1 segment count mismatch")
	}
}

func TestCSVFormatShape(t *testing.T) {
	recs := genRecords(t, 1, 2)
	data, err := EncodeCSV(recs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Fatalf("header line %q", lines[0])
	}
	wantRows := 0
	for _, r := range recs {
		wantRows += 1 + len(r.Encounters) + len(r.Labs) + len(r.Genomics) + len(r.Vitals)
	}
	if len(lines)-1 != wantRows {
		t.Fatalf("%d data rows, want %d", len(lines)-1, wantRows)
	}
}

func TestDatasetDigestEmpty(t *testing.T) {
	d, err := DatasetDigest(nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DatasetDigest([]*Record{})
	if err != nil {
		t.Fatal(err)
	}
	if d != d2 {
		t.Fatal("nil and empty datasets hash differently")
	}
}
