package emr

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// FormatFHIR is the legacy-format label for FHIR-lite JSON bundles.
const FormatFHIR = "fhir-lite"

// fhirBundle is a minimal FHIR-shaped bundle: one Patient resource plus
// Encounter / Observation / MolecularSequence / Condition entries.
type fhirBundle struct {
	ResourceType string      `json:"resourceType"` // "Bundle"
	Entry        []fhirEntry `json:"entry"`
}

type fhirEntry struct {
	Resource json.RawMessage `json:"resource"`
}

type fhirResourceHeader struct {
	ResourceType string `json:"resourceType"`
}

type fhirPatient struct {
	ResourceType string `json:"resourceType"` // "Patient"
	ID           string `json:"id"`
	BirthYear    int    `json:"birthYear"`
	Gender       string `json:"gender"`
	Ethnicity    string `json:"ethnicity"`
}

type fhirEncounter struct {
	ResourceType string `json:"resourceType"` // "Encounter"
	ID           string `json:"id"`
	Class        string `json:"class"`
	Reason       string `json:"reasonCode"`
	Period       int64  `json:"period"`
}

type fhirObservation struct {
	ResourceType string  `json:"resourceType"` // "Observation"
	Category     string  `json:"category"`     // "laboratory" | "vital-signs"
	Code         string  `json:"code"`
	Value        float64 `json:"valueQuantity"`
	Unit         string  `json:"unit,omitempty"`
	Effective    int64   `json:"effectiveDateTime"`
}

type fhirSequence struct {
	ResourceType string `json:"resourceType"` // "MolecularSequence"
	Gene         string `json:"gene"`
	Variant      string `json:"variant"`
	Present      bool   `json:"present"`
}

type fhirCondition struct {
	ResourceType string `json:"resourceType"` // "Condition"
	Code         string `json:"code"`
}

// fhirResource is the union of the five resource types' fields, so one
// json.Unmarshal decodes a whole bundle array. No two fields share a
// name, even case-folded, and no name has two types.
type fhirResource struct {
	ResourceType string  `json:"resourceType"`
	ID           string  `json:"id"`
	BirthYear    int     `json:"birthYear"`
	Gender       string  `json:"gender"`
	Ethnicity    string  `json:"ethnicity"`
	Class        string  `json:"class"`
	Reason       string  `json:"reasonCode"`
	Period       int64   `json:"period"`
	Category     string  `json:"category"`
	Code         string  `json:"code"`
	Value        float64 `json:"valueQuantity"`
	Unit         string  `json:"unit"`
	Effective    int64   `json:"effectiveDateTime"`
	Gene         string  `json:"gene"`
	Variant      string  `json:"variant"`
	Present      bool    `json:"present"`
}

type fhirFlatBundle struct {
	ResourceType string `json:"resourceType"`
	Entry        []struct {
		Resource *fhirResource `json:"resource"`
	} `json:"entry"`
}

// record maps a one-pass bundle onto a CDF record, entry by entry as
// ParseFHIR does. ok is false wherever ParseFHIR would fail, and the
// caller then runs it for the exact error. A union field that is
// mistyped but unused by its entry's resource type fails the one-pass
// decode itself, which ParseFHIR then accepts.
func (b *fhirFlatBundle) record() (rec *Record, ok bool) {
	if b.ResourceType != "Bundle" {
		return nil, false
	}
	rec = &Record{}
	sawPatient := false
	for _, e := range b.Entry {
		r := e.Resource
		if r == nil {
			return nil, false
		}
		switch r.ResourceType {
		case "Patient":
			rec.Patient = Patient{ID: r.ID, BirthYear: r.BirthYear, Sex: r.Gender, Ethnicity: r.Ethnicity}
			sawPatient = true
		case "Encounter":
			rec.Encounters = append(rec.Encounters, Encounter{
				ID: r.ID, Type: r.Class, DiagnosisCode: r.Reason, At: r.Period,
			})
		case "Observation":
			switch r.Category {
			case "laboratory":
				rec.Labs = append(rec.Labs, LabResult{Code: r.Code, Value: r.Value, Unit: r.Unit, At: r.Effective})
			case "vital-signs":
				rec.Vitals = append(rec.Vitals, VitalSample{Kind: r.Code, Value: r.Value, At: r.Effective})
			default:
				return nil, false
			}
		case "MolecularSequence":
			rec.Genomics = append(rec.Genomics, GenomicMarker{Gene: r.Gene, Variant: r.Variant, Present: r.Present})
		case "Condition":
			rec.Conditions = append(rec.Conditions, r.Code)
		default:
			return nil, false
		}
	}
	return rec, sawPatient
}

// decodeFHIROnePass decodes a bundle array in one json.Unmarshal. ok is
// false when the strict path must decide instead. A document keysOnce
// cannot count (see there) goes to the strict path before the decode.
func decodeFHIROnePass(data []byte) (out []*Record, ok bool) {
	if bytes.IndexByte(data, '\\') >= 0 || bytes.Contains(data, []byte("ſ")) {
		return nil, false
	}
	var bundles []fhirFlatBundle
	if json.Unmarshal(data, &bundles) != nil {
		return nil, false
	}
	entries := 0
	for i := range bundles {
		entries += len(bundles[i].Entry)
	}
	if !keysOnce(data, len(bundles), entries) {
		return nil, false
	}
	out = make([]*Record, 0, len(bundles))
	for i := range bundles {
		rec, ok := bundles[i].record()
		if !ok {
			return nil, false
		}
		out = append(out, rec)
	}
	return out, true
}

// keysOnce reports whether data names each bundle's "entry" and each
// entry's "resource" exactly once, given how many bundles and entries
// the one-pass decode found. A repeated key is where the two paths
// part: encoding/json decodes the second object into the struct the
// first one filled, while the strict path keeps only the last raw
// value. Every bundle and entry the one-pass decode accepts names its
// key at least once, and counting each quoted "entry" / "resource"
// (case-folded, as encoding/json matches keys) can only over-count, so
// equal counts mean no key repeats. data must hold no backslash and no
// ſ: a key spelled with an escape would escape the count, and so would
// one spelled with a non-ASCII rune that encoding/json folds onto an
// ASCII letter. Of those only ſ (s) and the Kelvin sign (k) exist, and
// neither key has a k, so other non-ASCII bytes (µmol/L, an accented
// name) keep the one pass.
func keysOnce(data []byte, bundles, entries int) bool {
	// With no escapes, the quotes of valid JSON pair up into its strings.
	nEntry, nResource := 0, 0
	for rest := data; ; {
		open := bytes.IndexByte(rest, '"')
		if open < 0 {
			break
		}
		rest = rest[open+1:]
		end := bytes.IndexByte(rest, '"')
		if end < 0 {
			break
		}
		switch s := rest[:end]; {
		case len(s) == len("entry") && bytes.EqualFold(s, []byte("entry")):
			nEntry++
		case len(s) == len("resource") && bytes.EqualFold(s, []byte("resource")):
			nResource++
		}
		rest = rest[end+1:]
	}
	return nEntry == bundles && nResource == entries
}

// EncodeFHIR renders a record as a FHIR-lite JSON bundle.
func EncodeFHIR(r *Record) ([]byte, error) {
	b := fhirBundle{ResourceType: "Bundle"}
	add := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		b.Entry = append(b.Entry, fhirEntry{Resource: raw})
		return nil
	}
	if err := add(fhirPatient{
		ResourceType: "Patient", ID: r.Patient.ID, BirthYear: r.Patient.BirthYear,
		Gender: r.Patient.Sex, Ethnicity: r.Patient.Ethnicity,
	}); err != nil {
		return nil, fmt.Errorf("emr: fhir encode: %w", err)
	}
	for _, e := range r.Encounters {
		if err := add(fhirEncounter{
			ResourceType: "Encounter", ID: e.ID, Class: e.Type, Reason: e.DiagnosisCode, Period: e.At,
		}); err != nil {
			return nil, fmt.Errorf("emr: fhir encode: %w", err)
		}
	}
	for _, l := range r.Labs {
		if err := add(fhirObservation{
			ResourceType: "Observation", Category: "laboratory",
			Code: l.Code, Value: l.Value, Unit: l.Unit, Effective: l.At,
		}); err != nil {
			return nil, fmt.Errorf("emr: fhir encode: %w", err)
		}
	}
	for _, v := range r.Vitals {
		if err := add(fhirObservation{
			ResourceType: "Observation", Category: "vital-signs",
			Code: v.Kind, Value: v.Value, Effective: v.At,
		}); err != nil {
			return nil, fmt.Errorf("emr: fhir encode: %w", err)
		}
	}
	for _, g := range r.Genomics {
		if err := add(fhirSequence{
			ResourceType: "MolecularSequence", Gene: g.Gene, Variant: g.Variant, Present: g.Present,
		}); err != nil {
			return nil, fmt.Errorf("emr: fhir encode: %w", err)
		}
	}
	for _, c := range r.Conditions {
		if err := add(fhirCondition{ResourceType: "Condition", Code: c}); err != nil {
			return nil, fmt.Errorf("emr: fhir encode: %w", err)
		}
	}
	return json.Marshal(&b)
}

// ParseFHIR parses a FHIR-lite bundle back into a CDF record.
func ParseFHIR(data []byte) (*Record, error) {
	var b fhirBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, parseWrap(FormatFHIR, ReasonBadSyntax, err, "bundle")
	}
	if b.ResourceType == "" {
		return nil, parseErr(FormatFHIR, ReasonMissingResourceType, "bundle has no resourceType")
	}
	if b.ResourceType != "Bundle" {
		return nil, parseErr(FormatFHIR, ReasonUnknownResource, "resourceType %q, want Bundle", b.ResourceType)
	}
	rec := &Record{}
	sawPatient := false
	for i, entry := range b.Entry {
		var hdr fhirResourceHeader
		if err := json.Unmarshal(entry.Resource, &hdr); err != nil {
			return nil, parseWrap(FormatFHIR, ReasonBadSyntax, err, "entry %d", i)
		}
		switch hdr.ResourceType {
		case "":
			return nil, parseErr(FormatFHIR, ReasonMissingResourceType, "entry %d has no resourceType", i)
		case "Patient":
			var p fhirPatient
			if err := json.Unmarshal(entry.Resource, &p); err != nil {
				return nil, parseWrap(FormatFHIR, ReasonBadField, err, "patient")
			}
			rec.Patient = Patient{ID: p.ID, BirthYear: p.BirthYear, Sex: p.Gender, Ethnicity: p.Ethnicity}
			sawPatient = true
		case "Encounter":
			var e fhirEncounter
			if err := json.Unmarshal(entry.Resource, &e); err != nil {
				return nil, parseWrap(FormatFHIR, ReasonBadField, err, "encounter")
			}
			rec.Encounters = append(rec.Encounters, Encounter{
				ID: e.ID, Type: e.Class, DiagnosisCode: e.Reason, At: e.Period,
			})
		case "Observation":
			var o fhirObservation
			if err := json.Unmarshal(entry.Resource, &o); err != nil {
				return nil, parseWrap(FormatFHIR, ReasonBadField, err, "observation")
			}
			switch o.Category {
			case "laboratory":
				rec.Labs = append(rec.Labs, LabResult{Code: o.Code, Value: o.Value, Unit: o.Unit, At: o.Effective})
			case "vital-signs":
				rec.Vitals = append(rec.Vitals, VitalSample{Kind: o.Code, Value: o.Value, At: o.Effective})
			default:
				return nil, parseErr(FormatFHIR, ReasonUnknownResource, "observation category %q", o.Category)
			}
		case "MolecularSequence":
			var s fhirSequence
			if err := json.Unmarshal(entry.Resource, &s); err != nil {
				return nil, parseWrap(FormatFHIR, ReasonBadField, err, "sequence")
			}
			rec.Genomics = append(rec.Genomics, GenomicMarker{Gene: s.Gene, Variant: s.Variant, Present: s.Present})
		case "Condition":
			var c fhirCondition
			if err := json.Unmarshal(entry.Resource, &c); err != nil {
				return nil, parseWrap(FormatFHIR, ReasonBadField, err, "condition")
			}
			rec.Conditions = append(rec.Conditions, c.Code)
		default:
			return nil, parseErr(FormatFHIR, ReasonUnknownResource, "unknown resourceType %q", hdr.ResourceType)
		}
	}
	if !sawPatient {
		return nil, parseErr(FormatFHIR, ReasonMissingPatient, "bundle has no Patient resource")
	}
	return rec, nil
}

// Formats lists the supported legacy encodings.
var Formats = []string{FormatHL7, FormatCSV, FormatFHIR}

// EncodeAs renders records in the named legacy format. HL7 and FHIR
// produce one document per record joined by '\n' (HL7) or a JSON array
// (FHIR); CSV produces a single extract.
func EncodeAs(format string, records []*Record, siteID string) ([]byte, error) {
	switch format {
	case FormatHL7:
		var out []byte
		for i, r := range records {
			if i > 0 {
				out = append(out, '\n')
			}
			out = append(out, EncodeHL7(r, siteID)...)
		}
		return out, nil
	case FormatCSV:
		s, err := EncodeCSV(records)
		if err != nil {
			return nil, err
		}
		return []byte(s), nil
	case FormatFHIR:
		bundles := make([]json.RawMessage, 0, len(records))
		for _, r := range records {
			b, err := EncodeFHIR(r)
			if err != nil {
				return nil, err
			}
			bundles = append(bundles, b)
		}
		return json.Marshal(bundles)
	default:
		return nil, parseErr(format, ReasonUnknownFormat, "unknown format %q", format)
	}
}

// DecodeAs parses a legacy document produced by EncodeAs back into CDF
// records — the mapper the monitor node runs when integrating
// heterogeneous sources (Fig. 3).
func DecodeAs(format string, data []byte) ([]*Record, error) {
	switch format {
	case FormatHL7:
		var out []*Record
		start := 0
		for i := 0; i <= len(data); i++ {
			if i == len(data) || data[i] == '\n' {
				if i > start {
					rec, err := ParseHL7(string(data[start:i]))
					if err != nil {
						return nil, err
					}
					out = append(out, rec)
				}
				start = i + 1
			}
		}
		return out, nil
	case FormatCSV:
		return ParseCSV(string(data))
	case FormatFHIR:
		if out, ok := decodeFHIROnePass(data); ok {
			return out, nil
		}
		return decodeFHIRStrict(data)
	default:
		return nil, parseErr(format, ReasonUnknownFormat, "unknown format %q", format)
	}
}

// decodeFHIRStrict decodes a bundle array bundle by bundle through
// ParseFHIR, the per-entry decode: the bundle, then each entry's header,
// then the entry again as its own resource type. It is the reference the
// one-pass decode must agree with, and the path every document the one
// pass refuses takes, so each failure keeps its exact ParseError.
func decodeFHIRStrict(data []byte) ([]*Record, error) {
	var bundles []json.RawMessage
	if err := json.Unmarshal(data, &bundles); err != nil {
		return nil, parseWrap(FormatFHIR, ReasonBadSyntax, err, "bundle array")
	}
	out := make([]*Record, 0, len(bundles))
	for _, b := range bundles {
		rec, err := ParseFHIR(b)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
