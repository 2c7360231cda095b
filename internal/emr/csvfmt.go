package emr

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// FormatCSV is the legacy-format label for flat CSV extracts.
const FormatCSV = "csv-extract"

// csvHeader is the fixed column layout of the flat extract. Each row
// carries a row_type discriminator; unused columns are empty.
var csvHeader = []string{"row_type", "patient_id", "f1", "f2", "f3", "f4", "f5"}

// csvHeaderRow is the header as the extract's first line.
const csvHeaderRow = "row_type,patient_id,f1,f2,f3,f4,f5\n"

// EncodeCSV appends records as a flat CSV extract (one file per data
// set, the way legacy warehouse exports look), with the quoting
// encoding/csv's Writer applies: a field is quoted when it holds a
// comma, a quote, '\r' or '\n', starts with a Unicode space, or is `\.`;
// inside quotes a quote is doubled. Rows end in '\n'.
func EncodeCSV(dst []byte, records []*Record) []byte {
	dst = append(dst, csvHeaderRow...)
	for _, r := range records {
		dst = append(dst, "patient,"...)
		idStart := len(dst)
		dst = appendCSVField(dst, r.Patient.ID)
		// Every row of the record repeats its ID field as written here.
		id := dst[idStart:len(dst):len(dst)]
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Patient.BirthYear), 10)
		dst = append(dst, ',')
		dst = appendCSVField(dst, r.Patient.Sex)
		dst = append(dst, ',')
		dst = appendCSVField(dst, r.Patient.Ethnicity)
		dst = append(dst, ',')
		start := len(dst)
		for i, c := range r.Conditions {
			if i > 0 {
				dst = append(dst, ';')
			}
			dst = append(dst, c...)
		}
		dst = quoteCSVField(dst, start)
		dst = append(dst, ",\n"...)
		for _, e := range r.Encounters {
			dst = appendCSVRow(dst, "encounter,", id)
			dst = appendCSVField(dst, e.ID)
			dst = append(dst, ',')
			dst = appendCSVField(dst, e.Type)
			dst = append(dst, ',')
			dst = appendCSVField(dst, e.DiagnosisCode)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, e.At, 10)
			dst = append(dst, ",\n"...)
		}
		for _, l := range r.Labs {
			dst = appendCSVRow(dst, "lab,", id)
			dst = appendCSVField(dst, l.Code)
			dst = append(dst, ',')
			dst = appendValue(dst, l.Value)
			dst = append(dst, ',')
			dst = appendCSVField(dst, l.Unit)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, l.At, 10)
			dst = append(dst, ",\n"...)
		}
		for _, g := range r.Genomics {
			dst = appendCSVRow(dst, "genomic,", id)
			dst = appendCSVField(dst, g.Gene)
			dst = append(dst, ',')
			dst = appendCSVField(dst, g.Variant)
			dst = append(dst, ',', presence(g.Present))
			dst = append(dst, ",,\n"...)
		}
		for _, v := range r.Vitals {
			dst = appendCSVRow(dst, "vital,", id)
			dst = appendCSVField(dst, v.Kind)
			dst = append(dst, ',')
			dst = appendValue(dst, v.Value)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, v.At, 10)
			dst = append(dst, ",,\n"...)
		}
	}
	return dst
}

// appendCSVRow starts a row: its type, then the written ID field.
func appendCSVRow(dst []byte, rowType string, id []byte) []byte {
	dst = append(dst, rowType...)
	dst = append(dst, id...)
	return append(dst, ',')
}

// appendCSVField appends one field, quoted if it needs to be.
func appendCSVField(dst []byte, field string) []byte {
	start := len(dst)
	return quoteCSVField(append(dst, field...), start)
}

// quoteCSVField quotes the field dst[start:] in place if it needs
// quotes.
func quoteCSVField(dst []byte, start int) []byte {
	field := dst[start:]
	if !csvNeedsQuotes(field) {
		return dst
	}
	quotes := bytes.Count(field, []byte{'"'})
	end := len(dst)
	dst = slices.Grow(dst, quotes+2)[:end+quotes+2]
	// Move the field right from its last byte back, doubling quotes.
	w := len(dst) - 1
	dst[w] = '"'
	for r := end - 1; r >= start; r-- {
		w--
		dst[w] = dst[r]
		if dst[r] == '"' {
			w--
			dst[w] = '"'
		}
	}
	dst[start] = '"'
	return dst
}

// csvQuoted marks the bytes that make encoding/csv's Writer quote a
// field wherever they stand.
var csvQuoted = [256]bool{'\n': true, '\r': true, '"': true, ',': true}

// csvNeedsQuotes is encoding/csv's Writer rule for a comma separator.
func csvNeedsQuotes(field []byte) bool {
	if len(field) == 0 {
		return false
	}
	if string(field) == `\.` {
		return true
	}
	for _, c := range field {
		if csvQuoted[c] {
			return true
		}
	}
	if c := field[0]; c < utf8.RuneSelf {
		return c == ' ' || '\t' <= c && c <= '\r'
	}
	r, _ := utf8.DecodeRune(field)
	return unicode.IsSpace(r)
}

// ParseCSV parses a flat CSV extract back into CDF records, preserving
// patient order of first appearance. It reads the extract as
// encoding/csv's Reader does with seven fields a record: blank lines
// are skipped, "\r\n" reads as '\n', a final '\r' is dropped, and a
// quoted field may span lines. Cells that are not valid UTF-8 are
// refused.
func ParseCSV(data []byte) ([]*Record, error) {
	p := csvParser{data: data}
	header, err := p.record()
	if err != nil {
		return nil, parseWrap(FormatCSV, ReasonBadHeader, err, "read header")
	}
	for i, h := range csvHeader {
		if string(header[i]) != h {
			return nil, parseErr(FormatCSV, ReasonBadHeader, "header column %d is %q, want %q", i, header[i], h)
		}
	}
	// Records in order of first appearance, their IDs, and each ID's
	// place in that order.
	order, ids := []*Record{}, []string(nil)
	byID := make(map[string]int)
	for line := 2; ; line++ {
		row, err := p.record()
		if err == errCSVEnd {
			break
		}
		if err != nil {
			return nil, parseWrap(FormatCSV, ReasonBadSyntax, err, "line %d", line)
		}
		for col, cell := range row {
			if !utf8.Valid(cell) {
				return nil, parseErr(FormatCSV, ReasonNotUTF8, "line %d column %d is not valid UTF-8", line, col)
			}
		}
		at, ok := byID[string(row[1])]
		if !ok {
			at = len(order)
			id := string(row[1])
			byID[id] = at
			order, ids = append(order, &Record{}), append(ids, id)
		}
		rec := order[at]
		switch string(row[0]) {
		case "patient":
			by, err := strconv.Atoi(string(row[2]))
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d birth year", line)
			}
			rec.Patient = Patient{ID: ids[at], BirthYear: by, Sex: string(row[3]), Ethnicity: string(row[4])}
			if len(row[5]) > 0 {
				rec.Conditions = split(row[5], ';')
			}
		case "encounter":
			at, err := strconv.ParseInt(string(row[5]), 10, 64)
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d encounter time", line)
			}
			rec.Encounters = append(rec.Encounters, Encounter{
				ID: string(row[2]), Type: string(row[3]), DiagnosisCode: string(row[4]), At: at,
			})
		case "lab":
			val, err := parseValue(row[3])
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d lab value", line)
			}
			at, err := strconv.ParseInt(string(row[5]), 10, 64)
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d lab time", line)
			}
			rec.Labs = append(rec.Labs, LabResult{Code: string(row[2]), Value: val, Unit: string(row[4]), At: at})
		case "genomic":
			rec.Genomics = append(rec.Genomics, GenomicMarker{
				Gene: string(row[2]), Variant: string(row[3]), Present: string(row[4]) == "1",
			})
		case "vital":
			val, err := parseValue(row[3])
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d vital value", line)
			}
			at, err := strconv.ParseInt(string(row[4]), 10, 64)
			if err != nil {
				return nil, parseWrap(FormatCSV, ReasonBadField, err, "line %d vital time", line)
			}
			rec.Vitals = append(rec.Vitals, VitalSample{Kind: string(row[2]), Value: val, At: at})
		default:
			return nil, parseErr(FormatCSV, ReasonUnknownSegment, "line %d: unknown row type %q", line, row[0])
		}
	}
	for i, rec := range order {
		if rec.Patient.ID == "" {
			return nil, parseErr(FormatCSV, ReasonMissingPatient, "patient %q has rows but no patient row", ids[i])
		}
	}
	return order, nil
}

// The errors csvParser.record returns.
var (
	errCSVEnd        = errors.New("end of extract")
	errCSVBareQuote  = errors.New(`bare " in non-quoted field`)
	errCSVQuote      = errors.New(`extraneous or missing " in quoted field`)
	errCSVFieldCount = errors.New("wrong number of fields")
)

// csvParser reads one record at a time from an extract.
type csvParser struct {
	data   []byte
	pos    int
	fields [7][]byte // the record's fields, while it has no more than seven
	quoted []byte    // the unquoted text of the record's quoted fields
}

// line returns the next line without its end: a '\n', or "\r\n", or the
// end of the input, before which one '\r' is dropped. nl reports a
// '\n' end; ok is false at the end of the input.
func (p *csvParser) line() (body []byte, nl, ok bool) {
	if p.pos == len(p.data) {
		return nil, false, false
	}
	rest := p.data[p.pos:]
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		body, nl, p.pos = rest[:i], true, p.pos+i+1
	} else {
		body, p.pos = rest, len(p.data)
	}
	if n := len(body); n > 0 && body[n-1] == '\r' {
		body = body[:n-1]
	}
	return body, nl, true
}

// record reads the next record and returns its seven fields, which
// stay valid until the next call: errCSVEnd when no record is left, or
// the syntax error that stopped it.
func (p *csvParser) record() ([][]byte, error) {
	var line []byte
	var nl bool
	for {
		body, end, ok := p.line()
		if !ok {
			return nil, errCSVEnd
		}
		if len(body) > 0 {
			line, nl = body, end
			break
		}
	}
	p.quoted = p.quoted[:0]
	n := 0
	add := func(f []byte) {
		if n < len(p.fields) {
			p.fields[n] = f
		}
		n++
	}
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = line[:i]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return nil, errCSVBareQuote
			}
			add(field)
			if i < 0 {
				break
			}
			line = line[i+1:]
			continue
		}
		// A quoted field: its text collects in p.quoted. A later
		// field's append never writes over it, even when it moves
		// p.quoted.
		line = line[1:]
		start := len(p.quoted)
		last := false
		for {
			if i := bytes.IndexByte(line, '"'); i >= 0 {
				p.quoted = append(p.quoted, line[:i]...)
				line = line[i+1:]
				if len(line) > 0 && line[0] == '"' {
					p.quoted = append(p.quoted, '"')
					line = line[1:]
					continue
				}
				switch {
				case len(line) == 0:
					last = true
				case line[0] == ',':
					line = line[1:]
				default:
					return nil, errCSVQuote
				}
				break
			}
			if len(line) == 0 && !nl {
				return nil, errCSVQuote // the input ends inside the quotes
			}
			p.quoted = append(p.quoted, line...)
			if nl {
				p.quoted = append(p.quoted, '\n')
			}
			line, nl, _ = p.line()
		}
		add(p.quoted[start:])
		if last {
			break
		}
	}
	if n != len(p.fields) {
		return nil, errCSVFieldCount
	}
	return p.fields[:], nil
}
