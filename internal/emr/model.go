// Package emr models the medical data substrate of the paper: patient
// records in a common data format (CDF), a seeded synthetic generator
// (the stand-in for hospital EMR silos, TCGA, and wearable feeds), and
// three heterogeneous legacy encodings — HL7v2-lite pipe-delimited
// messages, flat CSV extracts, and FHIR-lite JSON bundles — with
// lossless mappers into the CDF.
//
// The paper's integration experiment (E5, Fig. 3) needs exactly this:
// distributed, differently-formatted, separately-owned data sets that
// the blockchain layer virtually unifies without moving raw data. The
// generator embeds a known ground-truth disease model so the federated
// learning experiment (E6) has a learnable signal.
package emr

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"medchain/internal/canonjson"
	"medchain/internal/cryptoutil"
)

// SchemaCDF names the common data format version carried in dataset
// registrations.
const SchemaCDF = "cdf/v1"

// Sex codes.
const (
	SexFemale = "F"
	SexMale   = "M"
)

// Patient is the demographic core of a record.
type Patient struct {
	// ID is a pseudonymous identifier, unique within the generator
	// universe (so cross-site linkage is testable), e.g. "P-000123".
	ID string `json:"id"`
	// BirthYear is the year of birth.
	BirthYear int `json:"birth_year"`
	// Sex is SexFemale or SexMale.
	Sex string `json:"sex"`
	// Ethnicity is a coarse group label (the paper's Nature citation
	// concerns ethnicity bias in trials).
	Ethnicity string `json:"ethnicity"`
}

// Age returns the patient's age in the given year.
func (p Patient) Age(year int) int { return year - p.BirthYear }

// Encounter is one clinical visit.
type Encounter struct {
	// ID is unique within the record.
	ID string `json:"id"`
	// Type is "outpatient", "inpatient", or "emergency".
	Type string `json:"type"`
	// DiagnosisCode is an ICD-10-like code.
	DiagnosisCode string `json:"diagnosis_code"`
	// At is the encounter time (Unix seconds).
	At int64 `json:"at"`
}

// LabResult is one laboratory observation.
type LabResult struct {
	// Code is a LOINC-like analyte code, e.g. "GLU" (glucose).
	Code string `json:"code"`
	// Value is the numeric result.
	Value float64 `json:"value"`
	// Unit is the unit of measure.
	Unit string `json:"unit"`
	// At is the observation time (Unix seconds).
	At int64 `json:"at"`
}

// GenomicMarker is one germline variant call (NGS-derived, paper §II).
type GenomicMarker struct {
	// Gene is the gene symbol, e.g. "TCF7L2".
	Gene string `json:"gene"`
	// Variant is the variant label, e.g. "rs7903146".
	Variant string `json:"variant"`
	// Present reports whether the risk allele was observed.
	Present bool `json:"present"`
}

// VitalSample is a wearable-device measurement (activity, heart rate).
type VitalSample struct {
	// Kind is "steps", "hr", or "sleep_hours".
	Kind string `json:"kind"`
	// Value is the measurement.
	Value float64 `json:"value"`
	// At is the sample time (Unix seconds).
	At int64 `json:"at"`
}

// Record is one patient's integrated health record in the common data
// format.
type Record struct {
	Patient    Patient         `json:"patient"`
	Encounters []Encounter     `json:"encounters,omitempty"`
	Labs       []LabResult     `json:"labs,omitempty"`
	Genomics   []GenomicMarker `json:"genomics,omitempty"`
	Vitals     []VitalSample   `json:"vitals,omitempty"`
	// Conditions are diagnosed condition labels ("diabetes","stroke").
	Conditions []string `json:"conditions,omitempty"`
}

// HasCondition reports whether the record carries a condition label.
func (r *Record) HasCondition(name string) bool {
	for _, c := range r.Conditions {
		if c == name {
			return true
		}
	}
	return false
}

// HasMarker reports whether a gene's risk allele is present.
func (r *Record) HasMarker(gene string) bool {
	for _, g := range r.Genomics {
		if g.Gene == gene && g.Present {
			return true
		}
	}
	return false
}

// MeanLab returns the mean value of a lab code and whether any were
// found.
func (r *Record) MeanLab(code string) (float64, bool) {
	var sum float64
	n := 0
	for _, l := range r.Labs {
		if l.Code == code {
			sum += l.Value
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// MeanVital returns the mean value of a vital kind and whether any were
// found.
func (r *Record) MeanVital(kind string) (float64, bool) {
	var sum float64
	n := 0
	for _, v := range r.Vitals {
		if v.Kind == kind {
			sum += v.Value
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Canonical appends the canonical JSON encoding of the record to dst:
// the bytes json.Marshal writes for it once its inner slices are sorted
// (encounters by ID, labs and vitals by time then code or kind, markers
// by gene, conditions), suitable for hashing. A lab or vital value that
// is NaN or infinite has no JSON form and fails the encoding.
func (r *Record) Canonical(dst []byte) ([]byte, error) {
	dst = append(dst, `{"patient":{"id":`...)
	dst = canonjson.AppendString(dst, r.Patient.ID)
	dst = append(dst, `,"birth_year":`...)
	dst = strconv.AppendInt(dst, int64(r.Patient.BirthYear), 10)
	dst = append(dst, `,"sex":`...)
	dst = canonjson.AppendString(dst, r.Patient.Sex)
	dst = append(dst, `,"ethnicity":`...)
	dst = canonjson.AppendString(dst, r.Patient.Ethnicity)
	dst = append(dst, '}')
	var err error
	for i, e := range sorted(r.Encounters, func(a, b Encounter) int { return strings.Compare(a.ID, b.ID) }) {
		dst = appendListSep(dst, i, `,"encounters":[`)
		dst = append(dst, `{"id":`...)
		dst = canonjson.AppendString(dst, e.ID)
		dst = append(dst, `,"type":`...)
		dst = canonjson.AppendString(dst, e.Type)
		dst = append(dst, `,"diagnosis_code":`...)
		dst = canonjson.AppendString(dst, e.DiagnosisCode)
		dst = append(dst, `,"at":`...)
		dst = strconv.AppendInt(dst, e.At, 10)
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(r.Encounters))
	for i, l := range sorted(r.Labs, func(a, b LabResult) int {
		return cmp.Or(cmp.Compare(a.At, b.At), strings.Compare(a.Code, b.Code))
	}) {
		dst = appendListSep(dst, i, `,"labs":[`)
		dst = append(dst, `{"code":`...)
		dst = canonjson.AppendString(dst, l.Code)
		dst = append(dst, `,"value":`...)
		if dst, err = canonjson.AppendFloat(dst, l.Value); err != nil {
			return nil, fmt.Errorf("emr: canonicalize record: %w", err)
		}
		dst = append(dst, `,"unit":`...)
		dst = canonjson.AppendString(dst, l.Unit)
		dst = append(dst, `,"at":`...)
		dst = strconv.AppendInt(dst, l.At, 10)
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(r.Labs))
	for i, g := range sorted(r.Genomics, func(a, b GenomicMarker) int { return strings.Compare(a.Gene, b.Gene) }) {
		dst = appendListSep(dst, i, `,"genomics":[`)
		dst = append(dst, `{"gene":`...)
		dst = canonjson.AppendString(dst, g.Gene)
		dst = append(dst, `,"variant":`...)
		dst = canonjson.AppendString(dst, g.Variant)
		dst = append(dst, `,"present":`...)
		dst = strconv.AppendBool(dst, g.Present)
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(r.Genomics))
	for i, v := range sorted(r.Vitals, func(a, b VitalSample) int {
		return cmp.Or(cmp.Compare(a.At, b.At), strings.Compare(a.Kind, b.Kind))
	}) {
		dst = appendListSep(dst, i, `,"vitals":[`)
		dst = append(dst, `{"kind":`...)
		dst = canonjson.AppendString(dst, v.Kind)
		dst = append(dst, `,"value":`...)
		if dst, err = canonjson.AppendFloat(dst, v.Value); err != nil {
			return nil, fmt.Errorf("emr: canonicalize record: %w", err)
		}
		dst = append(dst, `,"at":`...)
		dst = strconv.AppendInt(dst, v.At, 10)
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(r.Vitals))
	for i, c := range sorted(r.Conditions, strings.Compare) {
		dst = appendListSep(dst, i, `,"conditions":[`)
		dst = canonjson.AppendString(dst, c)
	}
	dst = closeList(dst, len(r.Conditions))
	return append(dst, '}'), nil
}

// sorted returns s in the order the canonical form lists it: s itself
// when it is already strictly increasing, which is the one order any
// sort gives it, and otherwise a sorted copy. The copy is sorted with
// slices.SortFunc, whose pattern-defeating quicksort makes the same
// moves as sort.Slice's under the same comparison, so elements that
// compare equal end in the order the canonical form has always given
// them (TestSortedMatchesSortSlice).
func sorted[E any](s []E, cmp func(a, b E) int) []E {
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) >= 0 {
			s = slices.Clone(s)
			slices.SortFunc(s, cmp)
			return s
		}
	}
	return s
}

// appendListSep opens an omitempty list field before its first element
// and separates the later ones.
func appendListSep(dst []byte, i int, open string) []byte {
	if i == 0 {
		return append(dst, open...)
	}
	return append(dst, ',')
}

// closeList closes a list field that held n > 0 elements.
func closeList(dst []byte, n int) []byte {
	if n == 0 {
		return dst
	}
	return append(dst, ']')
}

// Digest returns the hash of the canonical encoding.
func (r *Record) Digest() (cryptoutil.Digest, error) {
	var buf [4 << 10]byte // a generated record's canonical form is under 4 KiB
	d, _, err := r.digest(buf[:0])
	return d, err
}

// digest hashes the canonical encoding, written over buf, and returns
// the buffer for the next record.
func (r *Record) digest(buf []byte) (cryptoutil.Digest, []byte, error) {
	buf, err := r.Canonical(buf[:0])
	if err != nil {
		return cryptoutil.ZeroDigest, buf, err
	}
	return cryptoutil.Sum(buf), buf, nil
}

// DatasetDigest computes a deterministic digest over a set of records
// (sorted by patient ID) — the value anchored on chain when a site
// registers its data set.
func DatasetDigest(records []*Record) (cryptoutil.Digest, error) {
	byID := slices.Clone(records)
	slices.SortFunc(byID, func(a, b *Record) int { return strings.Compare(a.Patient.ID, b.Patient.ID) })
	digests := make([]cryptoutil.Digest, len(byID))
	parts := make([][]byte, len(byID))
	var buf []byte
	for i, r := range byID {
		var err error
		if digests[i], buf, err = r.digest(buf); err != nil {
			return cryptoutil.ZeroDigest, err
		}
		parts[i] = digests[i][:]
	}
	return cryptoutil.SumAll(parts...), nil
}

// Equal reports deep equality via canonical encodings.
func (r *Record) Equal(other *Record) bool {
	if r == nil || other == nil {
		return r == other
	}
	a, err1 := r.Canonical(nil)
	b, err2 := other.Canonical(nil)
	if err1 != nil || err2 != nil {
		return false
	}
	return string(a) == string(b)
}

// Lab codes used by the generator and the disease model.
const (
	LabGlucose = "GLU" // mg/dL
	LabBMI     = "BMI" // kg/m^2
	LabSysBP   = "SBP" // mmHg
	LabHbA1c   = "A1C" // %
	LabLDL     = "LDL" // mg/dL
)

// Vital kinds.
const (
	VitalSteps = "steps"
	VitalHR    = "hr"
	VitalSleep = "sleep_hours"
)

// Condition labels produced by the generator's ground-truth model.
const (
	CondDiabetes = "diabetes"
	CondStroke   = "stroke"
)

// Risk genes of the synthetic disease model.
const (
	GeneDiabetes = "TCF7L2"
	GeneStroke   = "NOTCH3"
)
