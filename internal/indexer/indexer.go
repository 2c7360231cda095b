package indexer

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"medchain/internal/blob"
	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/ledger"
	"medchain/internal/par"
)

// Errors.
var (
	// ErrRootMismatch: the blob store's manifest root does not match the
	// root anchored on chain — the bytes are not the anchored bytes.
	ErrRootMismatch = errors.New("indexer: blob root does not match anchored root")
	// ErrNoStore: no blob store is attached for the dataset.
	ErrNoStore = errors.New("indexer: no blob store for dataset")
	// errEmptyBlob: a blob decoded to zero records.
	errEmptyBlob = errors.New("indexer: blob decodes to no records")
)

// Stable skip reasons the indexer counts beyond the emr decode codes
// (which appear prefixed as "decode:<reason>").
const (
	SkipMissingBlob  = "missing-blob"
	SkipRootMismatch = "root-mismatch"
	SkipEmptyBlob    = "empty-blob"
	SkipBadEvent     = "bad-event"
)

// FetchFunc resolves an anchored record to its blob bytes and their
// encoding. Implementations must verify the bytes against the anchored
// root (return ErrRootMismatch when they differ) and surface typed
// blob errors for missing chunks/manifests. The indexer calls it from
// GOMAXPROCS goroutines at once, so it must be safe for concurrent use.
type FetchFunc func(dataset, record string, root cryptoutil.Digest) (data []byte, format string, err error)

// StoreFetcher builds a FetchFunc over per-dataset blob stores. The
// blob layer verifies chunk content-addresses and the manifest root on
// every read; the fetcher additionally pins the local manifest root to
// the root anchored on chain. It is safe for concurrent use when lookup
// is: blob.Store reads under its read lock.
func StoreFetcher(lookup func(dataset string) *blob.Store) FetchFunc {
	return func(dataset, record string, root cryptoutil.Digest) ([]byte, string, error) {
		bs := lookup(dataset)
		if bs == nil {
			return nil, "", fmt.Errorf("%w: %q", ErrNoStore, dataset)
		}
		m, err := bs.Manifest(record)
		if err != nil {
			return nil, "", err
		}
		if m.Root != root {
			return nil, "", fmt.Errorf("%w: local %s, anchored %s", ErrRootMismatch, m.Root.Short(), root.Short())
		}
		data, _, err := bs.Get(record)
		if err != nil {
			return nil, "", err
		}
		return data, m.Format, nil
	}
}

// DocFrom decodes one anchored blob and extracts its typed fields.
// Decode failures return the emr.ParseError unchanged so callers can
// count the stable reason.
func DocFrom(dataset, record, format string, root cryptoutil.Digest, height uint64, data []byte) (*Doc, error) {
	recs, err := emr.DecodeAs(format, data)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errEmptyBlob
	}
	r := recs[0]
	d := &Doc{
		Dataset: dataset, Record: record, Format: format, Root: root, Height: height,
		PatientID: r.Patient.ID, BirthYear: r.Patient.BirthYear, Sex: r.Patient.Sex,
		Conditions: append([]string(nil), r.Conditions...),
	}
	for _, l := range r.Labs {
		d.LabCodes = append(d.LabCodes, l.Code)
	}
	for _, g := range r.Genomics {
		if g.Present {
			d.Genes = append(d.Genes, g.Gene)
		}
	}
	return d, nil
}

// Indexer is the crawler/extractor pipeline: events in, docs (or
// counted skips) out. It expects each committed event once — what
// CatchUp's cursor, Rebuild's single pass and any other reader of
// Node.Committed deliver — and is safe for concurrent callers.
type Indexer struct {
	ix    *Index
	fetch FetchFunc

	mu sync.Mutex
}

// New builds an indexer writing into ix.
func New(ix *Index, fetch FetchFunc) *Indexer {
	return &Indexer{ix: ix, fetch: fetch}
}

// Index returns the underlying index.
func (x *Indexer) Index() *Index { return x.ix }

// HandleEvent processes one committed event synchronously. Every event
// advances the indexed height (the block it came from is, by
// definition, committed); only ManifestsAnchored events carry work.
func (x *Indexer) HandleEvent(rec chain.EventRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.absorbLocked(jobsOf(nil, rec), rec.Height)
}

// job is one anchored entry to fetch, verify and decode, or a bad event
// whose skip is already known (skip != "").
type job struct {
	dataset, format string
	entry           contract.ManifestEntry
	height          uint64
	skip            string
}

// jobsOf appends the work one committed event carries.
func jobsOf(jobs []job, rec chain.EventRecord) []job {
	if rec.Event.Topic != "ManifestsAnchored" {
		return jobs
	}
	var ev contract.ManifestsAnchored
	if err := json.Unmarshal(rec.Event.Data, &ev); err != nil {
		return append(jobs, job{skip: SkipBadEvent})
	}
	for _, e := range ev.Entries {
		jobs = append(jobs, job{dataset: ev.Dataset, format: ev.Format, entry: e, height: rec.Height})
	}
	return jobs
}

// absorbLocked runs the jobs on GOMAXPROCS workers, then installs every
// doc or skip in job (= event) order and only then marks height as
// indexed. The result is the serial fold's: the last anchor of a
// re-anchored record wins, and no reader sees a height before the docs
// it covers. Caller holds x.mu.
func (x *Indexer) absorbLocked(jobs []job, height uint64) {
	docs := make([]*Doc, len(jobs))
	par.ForEachN(len(jobs), 0, func(i int) {
		if jobs[i].skip == "" {
			docs[i], jobs[i].skip = x.run(jobs[i])
		}
	})
	for i, d := range docs {
		if d != nil {
			x.ix.Add(d)
		} else {
			x.ix.Skip(jobs[i].skip)
		}
	}
	x.ix.ObserveHeight(height)
}

// run fetches, verifies and decodes one anchored entry: the doc, or the
// reason it is skipped. It touches no index state.
func (x *Indexer) run(j job) (*Doc, string) {
	data, format, err := x.fetch(j.dataset, j.entry.Record, j.entry.Root)
	if err != nil {
		if errors.Is(err, ErrRootMismatch) || errors.Is(err, blob.ErrManifestMismatch) {
			return nil, SkipRootMismatch
		}
		return nil, SkipMissingBlob
	}
	if format == "" {
		format = j.format
	}
	doc, err := DocFrom(j.dataset, j.entry.Record, format, j.entry.Root, j.height, data)
	if err != nil {
		if errors.Is(err, errEmptyBlob) {
			return nil, SkipEmptyBlob
		}
		return nil, "decode:" + emr.ReasonOf(err)
	}
	return doc, ""
}

// CatchUp absorbs the blocks committed above the indexed height from the
// node's chain (DESIGN.md "Reading the chain") and marks as indexed the
// height that read went through — never a tip read afterwards, which a
// block committed in between would make a claim about unread events.
// The read only collects jobs; they run once it is done.
func (x *Indexer) CatchUp(node *chain.Node) {
	x.mu.Lock()
	defer x.mu.Unlock()
	var jobs []job
	through := node.Committed(x.ix.Height(), func(blk *ledger.Block, receipts []*contract.Receipt) {
		for _, r := range receipts {
			for _, ev := range r.Events {
				jobs = jobsOf(jobs, chain.EventRecord{Height: blk.Header.Height, TxID: r.TxID, Event: ev})
			}
		}
	})
	x.absorbLocked(jobs, through)
}

// Lag returns the freshness pair: the indexed height and the node's
// chain height. Their difference is how many committed blocks the
// index has not yet absorbed.
func (x *Indexer) Lag(node *chain.Node) (indexed, tip uint64) {
	return x.ix.Height(), node.Height()
}

// Rebuild constructs an index from a full replay of the committed
// event stream — the oracle's reference path. Feeding the same events
// (and final height) that an incrementally-tailed index absorbed must
// produce a bit-identical Export/Digest.
func Rebuild(events []chain.EventRecord, fetch FetchFunc, height uint64) *Index {
	var jobs []job
	for _, rec := range events {
		jobs = jobsOf(jobs, rec)
		height = max(height, rec.Height)
	}
	ix := NewIndex()
	New(ix, fetch).absorbLocked(jobs, height)
	return ix
}
