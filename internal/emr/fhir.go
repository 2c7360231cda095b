package emr

import (
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
		return decodeFHIR(data)
	default:
		return nil, parseErr(format, ReasonUnknownFormat, "unknown format %q", format)
	}
}
