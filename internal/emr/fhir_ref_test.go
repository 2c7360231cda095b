package emr

import "encoding/json"

// The reference FHIR-lite decode: encoding/json, four passes over the
// bytes. FuzzDecodeAs and the corner tables hold the one-pass decoder
// to it, in records and in refusal reasons.

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
