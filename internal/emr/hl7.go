package emr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// FormatHL7 is the legacy-format label for HL7v2-lite messages.
const FormatHL7 = "hl7v2-lite"

// EncodeHL7 renders a record as an HL7v2-lite pipe-delimited message.
// Segments:
//
//	MSH|^~\&|MEDCHAIN|<siteID>
//	PID|1|<id>|<birthYear>|<sex>|<ethnicity>|<cond1~cond2>
//	PV1|<encID>|<type>|<diagCode>|<at>
//	OBX|<labCode>|<value>|<unit>|<at>
//	GEN|<gene>|<variant>|<0|1>
//	WEA|<kind>|<value>|<at>
func EncodeHL7(r *Record, siteID string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MSH|^~\\&|MEDCHAIN|%s\r", siteID)
	fmt.Fprintf(&sb, "PID|1|%s|%d|%s|%s|%s\r",
		r.Patient.ID, r.Patient.BirthYear, r.Patient.Sex, r.Patient.Ethnicity,
		strings.Join(r.Conditions, "~"))
	for _, e := range r.Encounters {
		fmt.Fprintf(&sb, "PV1|%s|%s|%s|%d\r", e.ID, e.Type, e.DiagnosisCode, e.At)
	}
	for _, l := range r.Labs {
		fmt.Fprintf(&sb, "OBX|%s|%s|%s|%d\r", l.Code, formatFloat(l.Value), l.Unit, l.At)
	}
	for _, g := range r.Genomics {
		present := "0"
		if g.Present {
			present = "1"
		}
		fmt.Fprintf(&sb, "GEN|%s|%s|%s\r", g.Gene, g.Variant, present)
	}
	for _, v := range r.Vitals {
		fmt.Fprintf(&sb, "WEA|%s|%s|%d\r", v.Kind, formatFloat(v.Value), v.At)
	}
	return sb.String()
}

// ParseHL7 parses an HL7v2-lite message back into a CDF record.
func ParseHL7(msg string) (*Record, error) {
	rec := &Record{}
	sawPID := false
	for _, seg := range strings.Split(msg, "\r") {
		if seg == "" {
			continue
		}
		fields := strings.Split(seg, "|")
		switch fields[0] {
		case "MSH":
			// Header; nothing retained.
		case "PID":
			if len(fields) < 6 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "PID needs 6+ fields, got %d", len(fields))
			}
			by, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "PID birth year")
			}
			rec.Patient = Patient{ID: fields[2], BirthYear: by, Sex: fields[4], Ethnicity: fields[5]}
			if len(fields) > 6 && fields[6] != "" {
				rec.Conditions = strings.Split(fields[6], "~")
			}
			sawPID = true
		case "PV1":
			if len(fields) < 5 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "PV1 needs 5 fields, got %d", len(fields))
			}
			at, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "PV1 time")
			}
			rec.Encounters = append(rec.Encounters, Encounter{
				ID: fields[1], Type: fields[2], DiagnosisCode: fields[3], At: at,
			})
		case "OBX":
			if len(fields) < 5 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "OBX needs 5 fields, got %d", len(fields))
			}
			val, err := parseValue(fields[2])
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "OBX value")
			}
			at, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "OBX time")
			}
			rec.Labs = append(rec.Labs, LabResult{Code: fields[1], Value: val, Unit: fields[3], At: at})
		case "GEN":
			if len(fields) < 4 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "GEN needs 4 fields, got %d", len(fields))
			}
			rec.Genomics = append(rec.Genomics, GenomicMarker{
				Gene: fields[1], Variant: fields[2], Present: fields[3] == "1",
			})
		case "WEA":
			if len(fields) < 4 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "WEA needs 4 fields, got %d", len(fields))
			}
			val, err := parseValue(fields[2])
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "WEA value")
			}
			at, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "WEA time")
			}
			rec.Vitals = append(rec.Vitals, VitalSample{Kind: fields[1], Value: val, At: at})
		default:
			return nil, parseErr(FormatHL7, ReasonUnknownSegment, "unknown segment %q", fields[0])
		}
	}
	if !sawPID {
		return nil, parseErr(FormatHL7, ReasonMissingPatient, "message has no PID segment")
	}
	return rec, nil
}

// parseValue reads a lab or vital value. strconv.ParseFloat also reads
// NaN and ±Inf, which no record holds: a record's canonical JSON has no
// form for them, and neither has FHIR-lite.
func parseValue(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("value %q is not finite", s)
	}
	return v, err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
