package emr

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// FormatHL7 is the legacy-format label for HL7v2-lite messages.
const FormatHL7 = "hl7v2-lite"

// EncodeHL7 appends a record as an HL7v2-lite pipe-delimited message.
// Segments:
//
//	MSH|^~\&|MEDCHAIN|<siteID>
//	PID|1|<id>|<birthYear>|<sex>|<ethnicity>|<cond1~cond2>
//	PV1|<encID>|<type>|<diagCode>|<at>
//	OBX|<labCode>|<value>|<unit>|<at>
//	GEN|<gene>|<variant>|<0|1>
//	WEA|<kind>|<value>|<at>
//
// Each segment ends in '\r'. Fields are written as they are: the format
// has no escapes.
func EncodeHL7(dst []byte, r *Record, siteID string) []byte {
	dst = append(dst, "MSH|^~\\&|MEDCHAIN|"...)
	dst = append(dst, siteID...)
	dst = append(dst, "\rPID|1|"...)
	dst = append(dst, r.Patient.ID...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(r.Patient.BirthYear), 10)
	dst = append(dst, '|')
	dst = append(dst, r.Patient.Sex...)
	dst = append(dst, '|')
	dst = append(dst, r.Patient.Ethnicity...)
	dst = append(dst, '|')
	for i, c := range r.Conditions {
		if i > 0 {
			dst = append(dst, '~')
		}
		dst = append(dst, c...)
	}
	dst = append(dst, '\r')
	for _, e := range r.Encounters {
		dst = append(dst, "PV1|"...)
		dst = append(dst, e.ID...)
		dst = append(dst, '|')
		dst = append(dst, e.Type...)
		dst = append(dst, '|')
		dst = append(dst, e.DiagnosisCode...)
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, e.At, 10)
		dst = append(dst, '\r')
	}
	for _, l := range r.Labs {
		dst = append(dst, "OBX|"...)
		dst = append(dst, l.Code...)
		dst = append(dst, '|')
		dst = appendValue(dst, l.Value)
		dst = append(dst, '|')
		dst = append(dst, l.Unit...)
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, l.At, 10)
		dst = append(dst, '\r')
	}
	for _, g := range r.Genomics {
		dst = append(dst, "GEN|"...)
		dst = append(dst, g.Gene...)
		dst = append(dst, '|')
		dst = append(dst, g.Variant...)
		dst = append(dst, '|')
		dst = append(dst, presence(g.Present))
		dst = append(dst, '\r')
	}
	for _, v := range r.Vitals {
		dst = append(dst, "WEA|"...)
		dst = append(dst, v.Kind...)
		dst = append(dst, '|')
		dst = appendValue(dst, v.Value)
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, v.At, 10)
		dst = append(dst, '\r')
	}
	return dst
}

// presence is a marker's present flag as HL7 and CSV write it.
func presence(present bool) byte {
	if present {
		return '1'
	}
	return '0'
}

// decodeHL7 parses one message per non-empty line.
func decodeHL7(data []byte) ([]*Record, error) {
	var out []*Record
	for len(data) > 0 {
		msg, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		if len(msg) == 0 {
			continue
		}
		rec, err := ParseHL7(msg)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// hl7Fields is the most fields any segment reads (PID's seven).
const hl7Fields = 7

// ParseHL7 parses an HL7v2-lite message back into a CDF record. Its
// segments end at '\r'; an empty one is skipped.
func ParseHL7(msg []byte) (*Record, error) {
	rec := &Record{}
	sawPID := false
	var f [hl7Fields][]byte
	for len(msg) > 0 {
		// Split the next segment into fields, keeping the first seven
		// and counting all of them.
		n, start, i := 0, 0, 0
		for ; i < len(msg) && msg[i] != '\r'; i++ {
			if msg[i] == '|' {
				if n < hl7Fields {
					f[n] = msg[start:i]
				}
				n, start = n+1, i+1
			}
		}
		if n < hl7Fields {
			f[n] = msg[start:i]
		}
		n++
		empty := i == 0
		if i < len(msg) {
			i++
		}
		msg = msg[i:]
		if empty {
			continue
		}
		switch string(f[0]) {
		case "MSH":
			// Header; nothing retained.
		case "PID":
			if n < 6 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "PID needs 6+ fields, got %d", n)
			}
			by, err := strconv.Atoi(string(f[3]))
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "PID birth year")
			}
			rec.Patient = Patient{ID: string(f[2]), BirthYear: by, Sex: string(f[4]), Ethnicity: string(f[5])}
			if n > 6 && len(f[6]) > 0 {
				rec.Conditions = split(f[6], '~')
			}
			sawPID = true
		case "PV1":
			if n < 5 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "PV1 needs 5 fields, got %d", n)
			}
			at, err := strconv.ParseInt(string(f[4]), 10, 64)
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "PV1 time")
			}
			rec.Encounters = append(rec.Encounters, Encounter{
				ID: string(f[1]), Type: string(f[2]), DiagnosisCode: string(f[3]), At: at,
			})
		case "OBX":
			if n < 5 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "OBX needs 5 fields, got %d", n)
			}
			val, err := parseValue(f[2])
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "OBX value")
			}
			at, err := strconv.ParseInt(string(f[4]), 10, 64)
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "OBX time")
			}
			rec.Labs = append(rec.Labs, LabResult{Code: string(f[1]), Value: val, Unit: string(f[3]), At: at})
		case "GEN":
			if n < 4 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "GEN needs 4 fields, got %d", n)
			}
			rec.Genomics = append(rec.Genomics, GenomicMarker{
				Gene: string(f[1]), Variant: string(f[2]), Present: string(f[3]) == "1",
			})
		case "WEA":
			if n < 4 {
				return nil, parseErr(FormatHL7, ReasonTruncatedSegment, "WEA needs 4 fields, got %d", n)
			}
			val, err := parseValue(f[2])
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "WEA value")
			}
			at, err := strconv.ParseInt(string(f[3]), 10, 64)
			if err != nil {
				return nil, parseWrap(FormatHL7, ReasonBadField, err, "WEA time")
			}
			rec.Vitals = append(rec.Vitals, VitalSample{Kind: string(f[1]), Value: val, At: at})
		default:
			return nil, parseErr(FormatHL7, ReasonUnknownSegment, "unknown segment %q", f[0])
		}
	}
	if !sawPID {
		return nil, parseErr(FormatHL7, ReasonMissingPatient, "message has no PID segment")
	}
	return rec, nil
}

// split cuts b at every sep into strings, as strings.Split does.
func split(b []byte, sep byte) []string {
	out := make([]string, 0, bytes.Count(b, []byte{sep})+1)
	for {
		i := bytes.IndexByte(b, sep)
		if i < 0 {
			return append(out, string(b))
		}
		out = append(out, string(b[:i]))
		b = b[i+1:]
	}
}

// parseValue reads a lab or vital value. strconv.ParseFloat also reads
// NaN and ±Inf, which no record holds: a record's canonical JSON has no
// form for them, and neither has FHIR-lite.
func parseValue(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("value %q is not finite", b)
	}
	return v, err
}

// appendValue appends a lab or vital value as HL7 and CSV write it.
func appendValue(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
