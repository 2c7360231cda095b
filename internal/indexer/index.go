// Package indexer implements the chain-tailing EMR indexer of the
// off-chain data plane: a crawler that reads committed blocks by height
// (Indexer.CatchUp; DESIGN.md "Reading the chain"), fetches the record
// blobs each ManifestsAnchored event names from the
// content-addressed blob stores, extracts typed fields from any of the
// three legacy encodings (HL7v2-lite, CSV extract, FHIR-lite), and
// maintains a searchable inverted index the query service uses for
// candidate selection — so a cohort query touches only the blobs that
// can match instead of decoding an entire corpus.
//
// The index is deterministic: rebuilding it from a full chain replay
// (Rebuild) yields a state bit-identical to one maintained by
// incremental tailing over the same event stream — the invariant the
// sim oracle checks — and blobs decode on every core but install in
// event order, so the parallelism never shows in it. Freshness is
// measurable: the index tracks the highest chain height it has fully
// processed, and the lag against the node's tip is the staleness bound
// a reader must tolerate.
package indexer

import (
	"encoding/json"
	"sort"
	"sync"

	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
)

// Doc is one indexed record: its chain anchor (dataset, record ID,
// manifest root, anchor height) plus the typed fields extracted from
// the decoded blob. Field slices are sorted and deduplicated so two
// docs built from the same blob compare equal byte-for-byte.
type Doc struct {
	Dataset string            `json:"dataset"`
	Record  string            `json:"record"`
	Format  string            `json:"format"`
	Root    cryptoutil.Digest `json:"root"`
	// Height is the chain height of the anchoring batch.
	Height uint64 `json:"height"`

	PatientID  string   `json:"patient_id"`
	BirthYear  int      `json:"birth_year"`
	Sex        string   `json:"sex"`
	Conditions []string `json:"conditions,omitempty"`
	LabCodes   []string `json:"lab_codes,omitempty"`
	// Genes lists genomic markers reported present.
	Genes []string `json:"genes,omitempty"`
}

func docKey(dataset, record string) string { return dataset + "\x00" + record }

// terms are the posting-list keys a doc contributes to.
func (d *Doc) terms() []string {
	out := make([]string, 0, 1+len(d.Conditions)+len(d.LabCodes)+len(d.Genes))
	if d.Sex != "" {
		out = append(out, "sex:"+d.Sex)
	}
	for _, c := range d.Conditions {
		out = append(out, "cond:"+c)
	}
	for _, l := range d.LabCodes {
		out = append(out, "lab:"+l)
	}
	for _, g := range d.Genes {
		out = append(out, "gene:"+g)
	}
	return out
}

// Index is the searchable store: docs keyed by (dataset, record), an
// inverted posting map derived from them, counters for skipped
// (malformed/missing) records, and the indexed chain height. All of it
// except the derived postings is canonical state covered by Digest.
type Index struct {
	mu       sync.RWMutex
	docs     map[string]*Doc
	postings map[string]map[string]struct{}
	skips    map[string]int
	height   uint64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		docs:     make(map[string]*Doc),
		postings: make(map[string]map[string]struct{}),
		skips:    make(map[string]int),
	}
}

// normalize sorts and dedups a doc's term slices in place.
func normalize(ss []string) []string {
	if len(ss) == 0 {
		return nil
	}
	sort.Strings(ss)
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// Add installs (or replaces) a doc. The index owns the doc afterwards.
func (ix *Index) Add(d *Doc) {
	d.Conditions = normalize(d.Conditions)
	d.LabCodes = normalize(d.LabCodes)
	d.Genes = normalize(d.Genes)
	key := docKey(d.Dataset, d.Record)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.docs[key]; ok {
		for _, t := range old.terms() {
			delete(ix.postings[t], key)
		}
	}
	ix.docs[key] = d
	for _, t := range d.terms() {
		p, ok := ix.postings[t]
		if !ok {
			p = make(map[string]struct{})
			ix.postings[t] = p
		}
		p[key] = struct{}{}
	}
}

// Skip counts a record that could not be indexed, by stable reason.
func (ix *Index) Skip(reason string) {
	ix.mu.Lock()
	ix.skips[reason]++
	ix.mu.Unlock()
}

// ObserveHeight advances the indexed chain height (monotone).
func (ix *Index) ObserveHeight(h uint64) {
	ix.mu.Lock()
	if h > ix.height {
		ix.height = h
	}
	ix.mu.Unlock()
}

// Height returns the highest chain height the index has processed.
func (ix *Index) Height() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.height
}

// Docs returns the indexed document count.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Doc returns a copy of one indexed doc.
func (ix *Index) Doc(dataset, record string) (Doc, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, ok := ix.docs[docKey(dataset, record)]
	if !ok {
		return Doc{}, false
	}
	return *d, true
}

// SkipCounts returns a copy of the per-reason skip counters.
func (ix *Index) SkipCounts() map[string]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[string]int, len(ix.skips))
	for k, v := range ix.skips {
		out[k] = v
	}
	return out
}

// Skipped returns the total skipped-record count.
func (ix *Index) Skipped() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, v := range ix.skips {
		n += v
	}
	return n
}

// Query is the index-level selection the query service compiles a
// vector into. Zero fields are unconstrained.
type Query struct {
	Dataset   string `json:"dataset,omitempty"`
	Condition string `json:"condition,omitempty"`
	LabCode   string `json:"lab_code,omitempty"`
	Sex       string `json:"sex,omitempty"`
	// MinAge/MaxAge bound age at emr.ReferenceYear (0 = unbounded) —
	// the same convention analytics.CohortParams uses.
	MinAge int `json:"min_age,omitempty"`
	MaxAge int `json:"max_age,omitempty"`
}

// MatchDoc reports whether an indexed doc satisfies the query.
func (q Query) MatchDoc(d *Doc) bool {
	if q.Dataset != "" && d.Dataset != q.Dataset {
		return false
	}
	age := emr.ReferenceYear - d.BirthYear
	if q.MinAge > 0 && age < q.MinAge {
		return false
	}
	if q.MaxAge > 0 && age > q.MaxAge {
		return false
	}
	if q.Sex != "" && d.Sex != q.Sex {
		return false
	}
	if q.Condition != "" && !containsSorted(d.Conditions, q.Condition) {
		return false
	}
	if q.LabCode != "" && !containsSorted(d.LabCodes, q.LabCode) {
		return false
	}
	return true
}

// MatchRecord applies the same predicate to a decoded record — the
// oracle the sim uses to check that index answers agree with a direct
// scan of the blobs.
func (q Query) MatchRecord(r *emr.Record) bool {
	age := r.Patient.Age(emr.ReferenceYear)
	if q.MinAge > 0 && age < q.MinAge {
		return false
	}
	if q.MaxAge > 0 && age > q.MaxAge {
		return false
	}
	if q.Sex != "" && r.Patient.Sex != q.Sex {
		return false
	}
	if q.Condition != "" && !r.HasCondition(q.Condition) {
		return false
	}
	if q.LabCode != "" {
		found := false
		for _, l := range r.Labs {
			if l.Code == q.LabCode {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func containsSorted(ss []string, s string) bool {
	i := sort.SearchStrings(ss, s)
	return i < len(ss) && ss[i] == s
}

// narrowestFor picks the smallest posting list among the query's
// terms. Caller holds ix.mu. hasTerm is false when the query has no
// indexable term and selection must scan all docs.
func (ix *Index) narrowestFor(q Query) (narrowest map[string]struct{}, hasTerm bool) {
	for _, t := range (&Doc{Sex: q.Sex,
		Conditions: termList(q.Condition),
		LabCodes:   termList(q.LabCode)}).terms() {
		hasTerm = true
		p := ix.postings[t]
		if narrowest == nil || len(p) < len(narrowest) {
			narrowest = p
		}
	}
	return narrowest, hasTerm
}

// Candidates returns copies of the docs matching the query, sorted by
// (dataset, record). Selection starts from the narrowest posting list
// among the query's terms; a term with no postings short-circuits to
// none, and a query with no indexable term scans all docs.
func (ix *Index) Candidates(q Query) []Doc {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	narrowest, hasTerm := ix.narrowestFor(q)
	var out []Doc
	match := func(key string) {
		if d, ok := ix.docs[key]; ok && q.MatchDoc(d) {
			out = append(out, *d)
		}
	}
	if hasTerm {
		for key := range narrowest {
			match(key)
		}
	} else {
		for key := range ix.docs {
			match(key)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Record < out[j].Record
	})
	return out
}

func termList(s string) []string {
	if s == "" {
		return nil
	}
	return []string{s}
}

// Count returns how many indexed docs match the query. Unlike
// Candidates it never copies or sorts docs — counting stays
// O(narrowest posting list) regardless of how many docs match, which
// is what keeps IntentCount cheap on large corpora.
func (ix *Index) Count(q Query) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	narrowest, hasTerm := ix.narrowestFor(q)
	n := 0
	count := func(key string) {
		if d, ok := ix.docs[key]; ok && q.MatchDoc(d) {
			n++
		}
	}
	if hasTerm {
		for key := range narrowest {
			count(key)
		}
	} else {
		for key := range ix.docs {
			count(key)
		}
	}
	return n
}

// SkipCount is one exported skip counter.
type SkipCount struct {
	Reason string `json:"reason"`
	Count  int    `json:"count"`
}

// Export is the canonical serialized form: docs sorted by key, skip
// counters sorted by reason, and the indexed height. Two indexes with
// equal Exports answer every query identically.
type Export struct {
	Height uint64      `json:"height"`
	Docs   []Doc       `json:"docs,omitempty"`
	Skips  []SkipCount `json:"skips,omitempty"`
}

// Export snapshots the canonical state.
func (ix *Index) Export() *Export {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ex := &Export{Height: ix.height}
	keys := make([]string, 0, len(ix.docs))
	for k := range ix.docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ex.Docs = append(ex.Docs, *ix.docs[k])
	}
	reasons := make([]string, 0, len(ix.skips))
	for r := range ix.skips {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		ex.Skips = append(ex.Skips, SkipCount{Reason: r, Count: ix.skips[r]})
	}
	return ex
}

// Digest hashes the canonical export — the bit-identity the sim oracle
// compares between a tailed index and a full-replay rebuild.
func (ix *Index) Digest() cryptoutil.Digest {
	raw, err := json.Marshal(ix.Export())
	if err != nil {
		// Export contains only marshalable types; this cannot happen.
		panic("indexer: export marshal: " + err.Error())
	}
	return cryptoutil.Sum(raw)
}
