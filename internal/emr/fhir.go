package emr

import (
	"fmt"
	"strconv"

	"medchain/internal/canonjson"
)

// FormatFHIR is the legacy-format label for FHIR-lite JSON bundles.
const FormatFHIR = "fhir-lite"

// EncodeFHIR appends a record as a FHIR-lite JSON bundle: one Patient
// resource, then Encounter, laboratory and vital-signs Observation,
// MolecularSequence and Condition resources, in that order. A lab or
// vital value that is NaN or infinite has no JSON form and fails the
// encoding.
func EncodeFHIR(dst []byte, r *Record) ([]byte, error) {
	dst = append(dst, `{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Patient","id":`...)
	dst = canonjson.AppendString(dst, r.Patient.ID)
	dst = append(dst, `,"birthYear":`...)
	dst = strconv.AppendInt(dst, int64(r.Patient.BirthYear), 10)
	dst = append(dst, `,"gender":`...)
	dst = canonjson.AppendString(dst, r.Patient.Sex)
	dst = append(dst, `,"ethnicity":`...)
	dst = canonjson.AppendString(dst, r.Patient.Ethnicity)
	dst = append(dst, "}}"...)
	for _, e := range r.Encounters {
		dst = append(dst, `,{"resource":{"resourceType":"Encounter","id":`...)
		dst = canonjson.AppendString(dst, e.ID)
		dst = append(dst, `,"class":`...)
		dst = canonjson.AppendString(dst, e.Type)
		dst = append(dst, `,"reasonCode":`...)
		dst = canonjson.AppendString(dst, e.DiagnosisCode)
		dst = append(dst, `,"period":`...)
		dst = strconv.AppendInt(dst, e.At, 10)
		dst = append(dst, "}}"...)
	}
	var err error
	for _, l := range r.Labs {
		if dst, err = appendObservation(dst, "laboratory", l.Code, l.Value, l.Unit, l.At); err != nil {
			return nil, err
		}
	}
	for _, v := range r.Vitals {
		if dst, err = appendObservation(dst, "vital-signs", v.Kind, v.Value, "", v.At); err != nil {
			return nil, err
		}
	}
	for _, g := range r.Genomics {
		dst = append(dst, `,{"resource":{"resourceType":"MolecularSequence","gene":`...)
		dst = canonjson.AppendString(dst, g.Gene)
		dst = append(dst, `,"variant":`...)
		dst = canonjson.AppendString(dst, g.Variant)
		dst = append(dst, `,"present":`...)
		dst = strconv.AppendBool(dst, g.Present)
		dst = append(dst, "}}"...)
	}
	for _, c := range r.Conditions {
		dst = append(dst, `,{"resource":{"resourceType":"Condition","code":`...)
		dst = canonjson.AppendString(dst, c)
		dst = append(dst, "}}"...)
	}
	return append(dst, "]}"...), nil
}

// appendObservation appends one Observation entry; an empty unit is
// left out.
func appendObservation(dst []byte, category, code string, value float64, unit string, at int64) ([]byte, error) {
	dst = append(dst, `,{"resource":{"resourceType":"Observation","category":"`...)
	dst = append(dst, category...)
	dst = append(dst, `","code":`...)
	dst = canonjson.AppendString(dst, code)
	dst = append(dst, `,"valueQuantity":`...)
	dst, err := canonjson.AppendFloat(dst, value)
	if err != nil {
		return nil, fmt.Errorf("emr: fhir encode: %w", err)
	}
	if unit != "" {
		dst = append(dst, `,"unit":`...)
		dst = canonjson.AppendString(dst, unit)
	}
	dst = append(dst, `,"effectiveDateTime":`...)
	dst = strconv.AppendInt(dst, at, 10)
	return append(dst, "}}"...), nil
}

// Formats lists the supported legacy encodings.
var Formats = []string{FormatHL7, FormatCSV, FormatFHIR}

// EncodeAs renders records in the named legacy format. HL7 and FHIR
// produce one document per record joined by '\n' (HL7) or a JSON array
// (FHIR); CSV produces a single extract.
func EncodeAs(format string, records []*Record, siteID string) ([]byte, error) {
	out := make([]byte, 0, sizeHint(format, records))
	switch format {
	case FormatHL7:
		for i, r := range records {
			if i > 0 {
				out = append(out, '\n')
			}
			out = EncodeHL7(out, r, siteID)
		}
		return out, nil
	case FormatCSV:
		return EncodeCSV(out, records), nil
	case FormatFHIR:
		out = append(out, '[')
		for i, r := range records {
			if i > 0 {
				out = append(out, ',')
			}
			var err error
			if out, err = EncodeFHIR(out, r); err != nil {
				return nil, err
			}
		}
		return append(out, ']'), nil
	default:
		return nil, parseErr(format, ReasonUnknownFormat, "unknown format %q", format)
	}
}

// sizeHint is about the length of records' encoding in a format, so
// that EncodeAs writes into one buffer: a generated record's segments,
// rows or resources average 38, 50 and 147 bytes.
func sizeHint(format string, records []*Record) int {
	per := 0
	switch format {
	case FormatHL7:
		per = 40
	case FormatCSV:
		per = 56
	case FormatFHIR:
		per = 160
	}
	n := 0
	for _, r := range records {
		n += 2 + len(r.Encounters) + len(r.Labs) + len(r.Genomics) + len(r.Vitals) + len(r.Conditions)
	}
	return n * per
}

// DecodeAs parses a legacy document produced by EncodeAs back into CDF
// records — the mapper the monitor node runs when integrating
// heterogeneous sources (Fig. 3).
func DecodeAs(format string, data []byte) ([]*Record, error) {
	switch format {
	case FormatHL7:
		return decodeHL7(data)
	case FormatCSV:
		return ParseCSV(data)
	case FormatFHIR:
		return decodeFHIR(data)
	default:
		return nil, parseErr(format, ReasonUnknownFormat, "unknown format %q", format)
	}
}
