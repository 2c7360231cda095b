package emr

import (
	"encoding/json"
	"fmt"
)

// The reference FHIR-lite codec: encoding/json, one json.Marshal per
// resource, bundle and document to encode, four passes over the bytes
// to decode. FuzzEncodeAs holds EncodeFHIR to refEncodeFHIR byte for
// byte; FuzzDecodeAs and the corner tables hold the one-pass decoder to
// refDecodeFHIR, in records and in refusal reasons.

// fhirBundle is a minimal FHIR-shaped bundle: one Patient resource plus
// Encounter / Observation / MolecularSequence / Condition entries.
type fhirBundle struct {
	ResourceType string      `json:"resourceType"` // "Bundle"
	Entry        []fhirEntry `json:"entry"`
}

type fhirEntry struct {
	Resource json.RawMessage `json:"resource"`
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

// refEncodeFHIR renders a record as a FHIR-lite JSON bundle.
func refEncodeFHIR(r *Record) ([]byte, error) {
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

// refEncodeAs renders records in the named legacy format. HL7 and FHIR
// produce one document per record joined by '\n' (HL7) or a JSON array
// (FHIR); CSV produces a single extract.
func refEncodeAs(format string, records []*Record, siteID string) ([]byte, error) {
	switch format {
	case FormatHL7:
		var out []byte
		for i, r := range records {
			if i > 0 {
				out = append(out, '\n')
			}
			out = append(out, refEncodeHL7(r, siteID)...)
		}
		return out, nil
	case FormatCSV:
		s, err := refEncodeCSV(records)
		if err != nil {
			return nil, err
		}
		return []byte(s), nil
	case FormatFHIR:
		bundles := make([]json.RawMessage, 0, len(records))
		for _, r := range records {
			b, err := refEncodeFHIR(r)
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

// refDecodeAs is DecodeAs over the reference decoders.
func refDecodeAs(format string, data []byte) ([]*Record, error) {
	switch format {
	case FormatHL7:
		return refDecodeHL7(data)
	case FormatCSV:
		return refParseCSV(string(data))
	case FormatFHIR:
		return refDecodeFHIR(data)
	}
	return nil, parseErr(format, ReasonUnknownFormat, "unknown format %q", format)
}

type fhirResourceHeader struct {
	ResourceType string `json:"resourceType"`
}

// refParseFHIR is the per-entry decode of one bundle: the bundle, then
// each entry's header, then the entry again as its own resource type.
// It is the reference the one-pass decoder must agree with.
func refParseFHIR(data []byte) (*Record, error) {
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

// refDecodeFHIR decodes a bundle array bundle by bundle through
// refParseFHIR.
func refDecodeFHIR(data []byte) ([]*Record, error) {
	var bundles []json.RawMessage
	if err := json.Unmarshal(data, &bundles); err != nil {
		return nil, parseWrap(FormatFHIR, ReasonBadSyntax, err, "bundle array")
	}
	out := make([]*Record, 0, len(bundles))
	for _, b := range bundles {
		rec, err := refParseFHIR(b)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
