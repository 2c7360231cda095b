package emr

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// FormatCSV is the legacy-format label for flat CSV extracts.
const FormatCSV = "csv-extract"

// csvHeader is the fixed column layout of the flat extract. Each row
// carries a row_type discriminator; unused columns are empty.
var csvHeader = []string{"row_type", "patient_id", "f1", "f2", "f3", "f4", "f5"}

// EncodeCSV renders records as a flat CSV extract (one file per data
// set, the way legacy warehouse exports look).
func EncodeCSV(records []*Record) (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(csvHeader); err != nil {
		return "", fmt.Errorf("emr: csv header: %w", err)
	}
	for _, r := range records {
		rows := [][]string{{
			"patient", r.Patient.ID,
			strconv.Itoa(r.Patient.BirthYear), r.Patient.Sex, r.Patient.Ethnicity,
			strings.Join(r.Conditions, ";"), "",
		}}
		for _, e := range r.Encounters {
			rows = append(rows, []string{"encounter", r.Patient.ID, e.ID, e.Type, e.DiagnosisCode, strconv.FormatInt(e.At, 10), ""})
		}
		for _, l := range r.Labs {
			rows = append(rows, []string{"lab", r.Patient.ID, l.Code, formatFloat(l.Value), l.Unit, strconv.FormatInt(l.At, 10), ""})
		}
		for _, g := range r.Genomics {
			p := "0"
			if g.Present {
				p = "1"
			}
			rows = append(rows, []string{"genomic", r.Patient.ID, g.Gene, g.Variant, p, "", ""})
		}
		for _, v := range r.Vitals {
			rows = append(rows, []string{"vital", r.Patient.ID, v.Kind, formatFloat(v.Value), strconv.FormatInt(v.At, 10), "", ""})
		}
		if err := w.WriteAll(rows); err != nil {
			return "", fmt.Errorf("emr: csv rows: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", fmt.Errorf("emr: csv flush: %w", err)
	}
	return buf.String(), nil
}

// ParseCSV parses a flat CSV extract back into CDF records, preserving
// patient order of first appearance.
func ParseCSV(data string) ([]*Record, error) {
	r := csv.NewReader(strings.NewReader(data))
	r.FieldsPerRecord = len(csvHeader)
	header, err := r.Read()
	if err != nil {
		return nil, parseWrap(FormatCSV, ReasonBadHeader, err, "read header")
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, parseErr(FormatCSV, ReasonBadHeader, "header column %d is %q, want %q", i, header[i], h)
		}
	}
	byID := make(map[string]*Record)
	var order []string
	get := func(id string) *Record {
		if rec, ok := byID[id]; ok {
			return rec
		}
		rec := &Record{}
		byID[id] = rec
		order = append(order, id)
		return rec
	}
	for line := 2; ; line++ {
		row, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, parseWrap(FormatCSV, ReasonBadSyntax, err, "line %d", line)
		}
		// encoding/csv passes arbitrary bytes through; refuse cells that
		// are not valid UTF-8 rather than index garbled text.
		for col, cell := range row {
			if !utf8.ValidString(cell) {
				return nil, parseErr(FormatCSV, ReasonNotUTF8, "line %d column %d is not valid UTF-8", line, col)
			}
		}
		id := row[1]
		rec := get(id)
		switch row[0] {
		case "patient":
			by, err := strconv.Atoi(row[2])
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d birth year", line)
			}
			rec.Patient = Patient{ID: id, BirthYear: by, Sex: row[3], Ethnicity: row[4]}
			if row[5] != "" {
				rec.Conditions = strings.Split(row[5], ";")
			}
		case "encounter":
			at, err := strconv.ParseInt(row[5], 10, 64)
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d encounter time", line)
			}
			rec.Encounters = append(rec.Encounters, Encounter{ID: row[2], Type: row[3], DiagnosisCode: row[4], At: at})
		case "lab":
			val, err := parseValue(row[3])
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d lab value", line)
			}
			at, err := strconv.ParseInt(row[5], 10, 64)
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d lab time", line)
			}
			rec.Labs = append(rec.Labs, LabResult{Code: row[2], Value: val, Unit: row[4], At: at})
		case "genomic":
			rec.Genomics = append(rec.Genomics, GenomicMarker{Gene: row[2], Variant: row[3], Present: row[4] == "1"})
		case "vital":
			val, err := parseValue(row[3])
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d vital value", line)
			}
			at, err := strconv.ParseInt(row[4], 10, 64)
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d vital time", line)
			}
			rec.Vitals = append(rec.Vitals, VitalSample{Kind: row[2], Value: val, At: at})
		default:
			return nil, parseErr(FormatCSV, ReasonUnknownSegment, "line %d: unknown row type %q", line, row[0])
		}
	}
	out := make([]*Record, 0, len(order))
	for _, id := range order {
		rec := byID[id]
		if rec.Patient.ID == "" {
			return nil, parseErr(FormatCSV, ReasonMissingPatient, "patient %q has rows but no patient row", id)
		}
		out = append(out, rec)
	}
	return out, nil
}
