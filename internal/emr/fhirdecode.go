package emr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The FHIR-lite decoder reads a document in one pass over its bytes and
// builds records as it goes. It refuses what encoding/json refuses, and
// gives each defect the reason a typed decode would give it: the whole
// document's syntax first, then bundle by bundle the bundle's own
// fields, its resourceType, its entries in order, and its Patient.
// A bundle, entry or resource object that repeats a key, compared as
// encoding/json matches keys to fields (unescaped, then case-folded),
// is a syntax error: encoding/json would merge the two values.

// maxFHIRDepth is encoding/json's nesting limit.
const maxFHIRDepth = 10000

// The keys each object level reads. Every other key is skipped.
var (
	bundleKeys   = [][]byte{[]byte("resourceType"), []byte("entry")}
	entryKeys    = [][]byte{[]byte("resource")}
	resourceKeys = [][]byte{
		[]byte("resourceType"), []byte("id"), []byte("birthYear"), []byte("gender"),
		[]byte("ethnicity"), []byte("class"), []byte("reasonCode"), []byte("period"),
		[]byte("category"), []byte("code"), []byte("valueQuantity"), []byte("unit"),
		[]byte("effectiveDateTime"), []byte("gene"), []byte("variant"), []byte("present"),
	}
)

// Indices into bundleKeys and resourceKeys.
const (
	bResourceType = iota
	bEntry
)

const (
	rResourceType = iota
	rID
	rBirthYear
	rGender
	rEthnicity
	rClass
	rReasonCode
	rPeriod
	rCategory
	rCode
	rValueQuantity
	rUnit
	rEffective
	rGene
	rVariant
	rPresent
)

// Object levels, each with its own set of unknown keys seen.
const (
	levelBundle = iota
	levelEntry
	levelResource
)

// fhirValue locates one scalar value in the document.
type fhirValue struct {
	// kind is '"' (string), '0' (number), 't', 'f', 'n', '{' or '[',
	// and 0 for a key the object does not hold.
	kind byte
	// plain: a string with no escape and valid UTF-8, whose body is
	// its text.
	plain bool
	// start and end bound a string's body or a number's text.
	start, end int
}

// stringOrNull reports whether v decodes into a Go string: a string,
// null, or no value at all.
func (v fhirValue) stringOrNull() bool {
	return v.kind == '"' || v.kind == 'n' || v.kind == 0
}

// fhirDecoder holds one decode. The first syntax error sticks: it moves
// pos to the end of the input, so every later read finds nothing and
// every loop ends, and the decode's results are dropped.
type fhirDecoder struct {
	data  []byte
	pos   int
	depth int    // containers open at pos
	stack []byte // closers of the containers skipValue holds open
	buf   []byte // the last unescaped string
	fold  []byte // the last case-folded unknown key
	bad   string // the syntax error
	first error  // the first refusal, in bundle order
	// unknown holds the folded unknown keys of the open object at each level.
	unknown [3]map[string]struct{}
}

// decodeFHIR decodes a FHIR-lite document, a JSON array of bundles, into
// one record per bundle. A top-level null holds no bundles.
func decodeFHIR(data []byte) ([]*Record, error) {
	d := fhirDecoder{data: data}
	out := d.bundles()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseFHIR parses one FHIR-lite bundle back into a CDF record.
func ParseFHIR(data []byte) (*Record, error) {
	d := fhirDecoder{data: data}
	d.skipWS()
	rec := d.bundle(0)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return rec, nil
}

// finish checks that only whitespace follows the document's value and
// returns the decode's refusal, if any.
func (d *fhirDecoder) finish() error {
	if d.skipWS(); d.pos < len(d.data) {
		d.fail("invalid character %q after the top-level value", d.data[d.pos])
	}
	if d.bad != "" {
		return parseErr(FormatFHIR, ReasonBadSyntax, "%s", d.bad)
	}
	return d.first
}

// fail records a syntax error at pos, unless one is recorded, and ends
// the input.
func (d *fhirDecoder) fail(format string, args ...any) {
	if d.bad == "" {
		d.bad = fmt.Sprintf("byte %d: ", d.pos) + fmt.Sprintf(format, args...)
	}
	d.pos = len(d.data)
}

// refuse records a semantic defect unless an earlier one is recorded.
func (d *fhirDecoder) refuse(err error) {
	if d.first == nil {
		d.first = err
	}
}

func (d *fhirDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *fhirDecoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// bundles decodes the top-level array.
func (d *fhirDecoder) bundles() []*Record {
	d.skipWS()
	out := []*Record{}
	switch d.peek() {
	case '[':
	case 'n':
		d.literal("null")
		return out
	default:
		d.refuse(parseErr(FormatFHIR, ReasonBadSyntax, "document is not an array of bundles"))
		d.skipValue()
		return nil
	}
	d.enter()
	for i := 0; d.next(']', i); i++ {
		if rec := d.bundle(i); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// bundle decodes bundle bi at pos. It returns nil, with the refusal
// recorded, when the bundle is defective.
func (d *fhirDecoder) bundle(bi int) *Record {
	switch d.peek() {
	case '{':
	case 'n':
		d.refuse(parseErr(FormatFHIR, ReasonMissingResourceType, "bundle %d has no resourceType", bi))
		d.literal("null")
		return nil
	default:
		d.refuse(parseErr(FormatFHIR, ReasonBadSyntax, "bundle %d is not an object", bi))
		d.skipValue()
		return nil
	}
	d.enter()
	d.clearUnknown(levelBundle)
	rec := &Record{}
	var (
		seen       uint32
		rt         fhirValue
		mistyped   string // the first field of the wrong JSON type
		entryErr   error  // the first defective entry's refusal
		sawPatient bool
	)
	for n := 0; d.next('}', n); n++ {
		switch d.key(bundleKeys, &seen, levelBundle) {
		case bResourceType:
			if rt = d.value(); !rt.stringOrNull() && mistyped == "" {
				mistyped = "resourceType is not a string"
			}
		case bEntry:
			switch d.peek() {
			case '[':
				bad, err := d.entries(bi, rec, &sawPatient)
				if mistyped == "" {
					mistyped = bad
				}
				if entryErr == nil {
					entryErr = err
				}
			case 'n':
				d.literal("null")
			default:
				d.skipValue()
				if mistyped == "" {
					mistyped = "entry is not an array"
				}
			}
		default:
			d.skipValue()
		}
	}
	switch t := d.text(rt); {
	case mistyped != "":
		d.refuse(parseErr(FormatFHIR, ReasonBadSyntax, "bundle %d: %s", bi, mistyped))
	case len(t) == 0:
		d.refuse(parseErr(FormatFHIR, ReasonMissingResourceType, "bundle %d has no resourceType", bi))
	case string(t) != "Bundle":
		d.refuse(parseErr(FormatFHIR, ReasonUnknownResource, "bundle %d: resourceType %q, want Bundle", bi, t))
	case entryErr != nil:
		d.refuse(entryErr)
	case !sawPatient:
		d.refuse(parseErr(FormatFHIR, ReasonMissingPatient, "bundle %d has no Patient resource", bi))
	default:
		return rec
	}
	return nil
}

// entries decodes a bundle's entry array into rec. mistyped names an
// element that is neither an object nor null; err is the first
// defective entry's refusal.
func (d *fhirDecoder) entries(bi int, rec *Record, sawPatient *bool) (mistyped string, err error) {
	d.enter()
	for ei := 0; d.next(']', ei); ei++ {
		var e error
		switch d.peek() {
		case '{':
			e = d.entry(bi, ei, rec, sawPatient)
		case 'n':
			d.literal("null")
			e = parseErr(FormatFHIR, ReasonBadSyntax, "bundle %d entry %d is null", bi, ei)
		default:
			d.skipValue()
			if mistyped == "" {
				mistyped = fmt.Sprintf("entry %d is not an object", ei)
			}
		}
		if err == nil {
			err = e
		}
	}
	return mistyped, err
}

// entry decodes one entry object and its resource into rec.
func (d *fhirDecoder) entry(bi, ei int, rec *Record, sawPatient *bool) (err error) {
	d.enter()
	d.clearUnknown(levelEntry)
	var seen uint32
	for n := 0; d.next('}', n); n++ {
		if d.key(entryKeys, &seen, levelEntry) < 0 {
			d.skipValue()
			continue
		}
		switch d.peek() {
		case '{':
			err = d.resource(bi, ei, rec, sawPatient)
		case 'n':
			d.literal("null")
			err = parseErr(FormatFHIR, ReasonMissingResourceType, "bundle %d entry %d has no resourceType", bi, ei)
		default:
			d.skipValue()
			err = parseErr(FormatFHIR, ReasonBadSyntax, "bundle %d entry %d: resource is not an object", bi, ei)
		}
	}
	if seen == 0 {
		err = parseErr(FormatFHIR, ReasonBadSyntax, "bundle %d entry %d has no resource", bi, ei)
	}
	return err
}

// resource decodes one resource object. Its fields may come in any
// order, so it notes where each value is and maps them once the object
// closes and its resourceType is known.
func (d *fhirDecoder) resource(bi, ei int, rec *Record, sawPatient *bool) error {
	d.enter()
	d.clearUnknown(levelResource)
	var (
		seen uint32
		v    [rPresent + 1]fhirValue
	)
	for n := 0; d.next('}', n); n++ {
		if f := d.key(resourceKeys, &seen, levelResource); f >= 0 {
			v[f] = d.value()
		} else {
			d.skipValue()
		}
	}
	return d.mapResource(bi, ei, &v, rec, sawPatient)
}

// mapResource maps one resource's fields onto rec, as encoding/json
// decodes them into the resource type's struct: a field the type does
// not own is ignored, null leaves a field zero, and a value of the
// wrong JSON type, or a number the field cannot hold, is a bad field.
func (d *fhirDecoder) mapResource(bi, ei int, v *[rPresent + 1]fhirValue, rec *Record, sawPatient *bool) error {
	if !v[rResourceType].stringOrNull() {
		return parseErr(FormatFHIR, ReasonBadSyntax, "bundle %d entry %d: resourceType is not a string", bi, ei)
	}
	ok := true
	switch t := d.text(v[rResourceType]); string(t) {
	case "":
		return parseErr(FormatFHIR, ReasonMissingResourceType, "bundle %d entry %d has no resourceType", bi, ei)
	case "Patient":
		p := Patient{
			ID:        d.str(v[rID], &ok),
			BirthYear: int(d.integer(v[rBirthYear], strconv.IntSize, &ok)),
			Sex:       d.str(v[rGender], &ok),
			Ethnicity: d.str(v[rEthnicity], &ok),
		}
		if !ok {
			break
		}
		rec.Patient = p
		*sawPatient = true
	case "Encounter":
		e := Encounter{
			ID:            d.str(v[rID], &ok),
			Type:          d.str(v[rClass], &ok),
			DiagnosisCode: d.str(v[rReasonCode], &ok),
			At:            d.integer(v[rPeriod], 64, &ok),
		}
		if !ok {
			break
		}
		rec.Encounters = append(rec.Encounters, e)
	case "Observation":
		// Read the category before any other string: each reuses buf.
		cat := d.text(v[rCategory])
		lab, vital := string(cat) == "laboratory", string(cat) == "vital-signs"
		ok = v[rCategory].stringOrNull()
		code, value, unit, at := d.str(v[rCode], &ok), d.float(v[rValueQuantity], &ok), d.str(v[rUnit], &ok), d.integer(v[rEffective], 64, &ok)
		switch {
		case !ok:
		case lab:
			rec.Labs = append(rec.Labs, LabResult{Code: code, Value: value, Unit: unit, At: at})
		case vital:
			rec.Vitals = append(rec.Vitals, VitalSample{Kind: code, Value: value, At: at})
		default:
			return parseErr(FormatFHIR, ReasonUnknownResource, "bundle %d entry %d: observation category %q", bi, ei, d.str(v[rCategory], &ok))
		}
	case "MolecularSequence":
		g := GenomicMarker{Gene: d.str(v[rGene], &ok), Variant: d.str(v[rVariant], &ok), Present: d.boolean(v[rPresent], &ok)}
		if !ok {
			break
		}
		rec.Genomics = append(rec.Genomics, g)
	case "Condition":
		c := d.str(v[rCode], &ok)
		if !ok {
			break
		}
		rec.Conditions = append(rec.Conditions, c)
	default:
		return parseErr(FormatFHIR, ReasonUnknownResource, "bundle %d entry %d: unknown resourceType %q", bi, ei, t)
	}
	if !ok {
		return parseErr(FormatFHIR, ReasonBadField, "bundle %d entry %d: a %s field has the wrong type", bi, ei, d.text(v[rResourceType]))
	}
	return nil
}

// str, integer, float and boolean read one field's value. A value they
// cannot read clears ok.
func (d *fhirDecoder) str(v fhirValue, ok *bool) string {
	if !v.stringOrNull() {
		*ok = false
	}
	return string(d.text(v))
}

func (d *fhirDecoder) integer(v fhirValue, bits int, ok *bool) int64 {
	switch v.kind {
	case 0, 'n':
		return 0
	case '0':
		if n, err := strconv.ParseInt(string(d.data[v.start:v.end]), 10, bits); err == nil {
			return n
		}
	}
	*ok = false
	return 0
}

func (d *fhirDecoder) float(v fhirValue, ok *bool) float64 {
	switch v.kind {
	case 0, 'n':
		return 0
	case '0':
		if f, err := strconv.ParseFloat(string(d.data[v.start:v.end]), 64); err == nil {
			return f
		}
	}
	*ok = false
	return 0
}

func (d *fhirDecoder) boolean(v fhirValue, ok *bool) bool {
	switch v.kind {
	case 0, 'n', 'f':
		return false
	case 't':
		return true
	}
	*ok = false
	return false
}

// text returns a string value's decoded bytes, valid until the next
// call, and nil for any other value.
func (d *fhirDecoder) text(v fhirValue) []byte {
	if v.kind != '"' {
		return nil
	}
	if v.plain {
		return d.data[v.start:v.end]
	}
	d.buf = appendUnquoted(d.buf[:0], d.data[v.start:v.end])
	return d.buf
}

// clearUnknown forgets the unknown keys of the last object at level.
func (d *fhirDecoder) clearUnknown(level int) {
	if len(d.unknown[level]) > 0 {
		clear(d.unknown[level])
	}
}

// key reads an object key and the colon after it, and returns the index
// of the key in keys, or -1 for a key the level does not read. A key the
// object already holds is a syntax error.
func (d *fhirDecoder) key(keys [][]byte, seen *uint32, level int) int {
	start := d.pos
	k := d.text(d.scanString())
	f := -1
	// Most keys match a name exactly; folding is for the rest.
	for i, name := range keys {
		if bytes.Equal(k, name) {
			f = i
			break
		}
	}
	for i := 0; f < 0 && i < len(keys); i++ {
		if bytes.EqualFold(k, keys[i]) {
			f = i
		}
	}
	if f >= 0 {
		if *seen&(1<<f) != 0 {
			d.pos = start
			d.fail("repeated key %q", keys[f])
		}
		*seen |= 1 << f
	} else {
		m := d.unknown[level]
		if m == nil {
			m = make(map[string]struct{})
			d.unknown[level] = m
		}
		d.fold = appendFoldedKey(d.fold[:0], k)
		if _, dup := m[string(d.fold)]; dup {
			d.pos = start
			d.fail("repeated key %q", k)
		}
		m[string(d.fold)] = struct{}{}
	}
	d.colon()
	return f
}

// colon reads the colon after an object key.
func (d *fhirDecoder) colon() {
	if d.skipWS(); d.peek() != ':' {
		d.fail("missing colon after object key")
		return
	}
	d.pos++
	d.skipWS()
}

// enter opens the array or object at pos.
func (d *fhirDecoder) enter() {
	if d.depth == maxFHIRDepth {
		d.fail("nested deeper than %d", maxFHIRDepth)
		return
	}
	d.depth++
	d.pos++
	d.skipWS()
}

// next steps to member n of the container open at pos, past the comma
// before it. It reports false once it has read the closer, and on a
// syntax error.
func (d *fhirDecoder) next(closer byte, n int) bool {
	d.skipWS()
	c := d.peek()
	switch {
	case d.pos == len(d.data):
		d.fail("unexpected end of input")
	case c == closer:
		d.pos++
		d.depth--
	case n == 0:
		return true
	case c == ',':
		d.pos++
		d.skipWS()
		return true
	default:
		d.fail("want ',' or %q, got %q", closer, c)
	}
	return false
}

// value reads the value at pos. An array or object is checked and
// skipped, and only its kind is returned.
func (d *fhirDecoder) value() fhirValue {
	switch c := d.peek(); c {
	case '"':
		return d.scanString()
	case 't':
		d.literal("true")
		return fhirValue{kind: c}
	case 'f':
		d.literal("false")
		return fhirValue{kind: c}
	case 'n':
		d.literal("null")
		return fhirValue{kind: c}
	case '{', '[':
		d.skipValue()
		return fhirValue{kind: c}
	default:
		return d.scanNumber()
	}
}

// skipValue checks the syntax of the value at pos and steps past it.
// It holds the containers it opens on a stack rather than recursing, so
// deep nesting costs no call stack.
func (d *fhirDecoder) skipValue() {
	base := len(d.stack)
	for {
		// A value starts at pos.
		switch c := d.peek(); c {
		case '{', '[':
			if d.enter(); d.bad != "" {
				return
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if d.peek() != closer {
				d.stack = append(d.stack, closer)
				if c == '{' {
					d.skipKey()
				}
				continue
			}
			d.pos++
			d.depth--
		default:
			d.value()
		}
		// A value ended: close what it ended, or step to the next member.
		for {
			if len(d.stack) == base || d.bad != "" {
				return
			}
			closer := d.stack[len(d.stack)-1]
			if !d.next(closer, 1) {
				d.stack = d.stack[:len(d.stack)-1]
				continue
			}
			if closer == '}' {
				d.skipKey()
			}
			break
		}
	}
}

// skipKey reads a key the decode does not look at, and its colon.
func (d *fhirDecoder) skipKey() {
	d.scanString()
	d.colon()
}

func (d *fhirDecoder) literal(lit string) {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.fail("invalid literal, want %s", lit)
		return
	}
	d.pos += len(lit)
}

// plainByte marks the bytes a string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// specialBytes marks the high bit of each byte of x that is a control
// character, a quote, a backslash or non-ASCII. A borrow can mark a byte
// above a marked one, never below, so the lowest mark is exact.
func specialBytes(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	q, b := x^('"'*ones), x^('\\'*ones)
	return ((x-0x20*ones)&^x | (q-ones)&^q | (b-ones)&^b | x) & highs
}

// scanString reads the string at pos.
func (d *fhirDecoder) scanString() fhirValue {
	data := d.data
	if d.peek() != '"' {
		d.fail("want a string")
		return fhirValue{}
	}
	start := d.pos + 1
	i := start
	escaped, ascii := false, true
	for {
		// Eight bytes at a time: stop at the first byte that is not plain.
		for ; i+8 <= len(data); i += 8 {
			if m := specialBytes(binary.LittleEndian.Uint64(data[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
		}
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			d.pos = i
			d.fail("unterminated string")
			return fhirValue{}
		}
		switch c := data[i]; {
		case c == '"':
			plain := !escaped && (ascii || utf8.Valid(data[start:i]))
			d.pos = i + 1
			return fhirValue{kind: '"', plain: plain, start: start, end: i}
		case c == '\\':
			escaped = true
			if i+1 < len(data) {
				switch data[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
					continue
				case 'u':
					if i+6 <= len(data) && hex4(data[i+2:i+6]) >= 0 {
						i += 6
						continue
					}
				}
			}
			d.pos = i
			d.fail("invalid escape in string")
			return fhirValue{}
		case c < 0x20:
			d.pos = i
			d.fail("control character %q in string", c)
			return fhirValue{}
		default:
			ascii = false
			i++
		}
	}
}

// scanNumber reads the number at pos, in JSON's grammar.
func (d *fhirDecoder) scanNumber() fhirValue {
	data, i := d.data, d.pos
	digits := func() bool {
		n := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	ok := i < len(data) && data[i] == '0'
	if ok {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(data) && data[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		ok = digits()
	}
	if !ok {
		d.pos = i
		d.fail("invalid value")
		return fhirValue{}
	}
	v := fhirValue{kind: '0', start: d.pos, end: i}
	d.pos = i
	return v
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnquoted appends the text of a checked string body, as
// encoding/json decodes it: escapes resolved, and each byte of invalid
// UTF-8 and each unpaired surrogate read as U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(s[i+2:])); dec != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// appendFoldedKey appends k with each rune replaced by the least rune
// that case-folds to it, so two keys are equal under bytes.EqualFold
// exactly when their folded forms are equal.
func appendFoldedKey(dst, k []byte) []byte {
	for i := 0; i < len(k); {
		if c := k[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(k[i:])
		for {
			next := unicode.SimpleFold(r)
			if next <= r {
				r = next
				break
			}
			r = next
		}
		dst = utf8.AppendRune(dst, r)
		i += size
	}
	return dst
}
