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
// blob errors for missing chunks/manifests.
type FetchFunc func(dataset, record string, root cryptoutil.Digest) (data []byte, format string, err error)

// StoreFetcher builds a FetchFunc over per-dataset blob stores. The
// blob layer verifies chunk content-addresses and the manifest root on
// every read; the fetcher additionally pins the local manifest root to
// the root anchored on chain.
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
	x.handleLocked(rec)
}

func (x *Indexer) handleLocked(rec chain.EventRecord) {
	defer x.ix.ObserveHeight(rec.Height)
	if rec.Event.Topic != "ManifestsAnchored" {
		return
	}
	var ev contract.ManifestsAnchored
	if err := json.Unmarshal(rec.Event.Data, &ev); err != nil {
		x.ix.Skip(SkipBadEvent)
		return
	}
	for _, e := range ev.Entries {
		x.indexEntry(ev.Dataset, ev.Format, e, rec.Height)
	}
}

func (x *Indexer) indexEntry(dataset, evFormat string, e contract.ManifestEntry, height uint64) {
	data, format, err := x.fetch(dataset, e.Record, e.Root)
	if err != nil {
		if errors.Is(err, ErrRootMismatch) || errors.Is(err, blob.ErrManifestMismatch) {
			x.ix.Skip(SkipRootMismatch)
		} else {
			x.ix.Skip(SkipMissingBlob)
		}
		return
	}
	if format == "" {
		format = evFormat
	}
	doc, err := DocFrom(dataset, e.Record, format, e.Root, height, data)
	if err != nil {
		if errors.Is(err, errEmptyBlob) {
			x.ix.Skip(SkipEmptyBlob)
		} else {
			x.ix.Skip("decode:" + emr.ReasonOf(err))
		}
		return
	}
	x.ix.Add(doc)
}

// CatchUp absorbs the blocks committed above the indexed height from the
// node's chain (DESIGN.md "Reading the chain") and marks as indexed the
// height that read went through — never a tip read afterwards, which a
// block committed in between would make a claim about unread events.
func (x *Indexer) CatchUp(node *chain.Node) {
	x.mu.Lock()
	defer x.mu.Unlock()
	through := node.Committed(x.ix.Height(), func(blk *ledger.Block, receipts []*contract.Receipt) {
		for _, r := range receipts {
			for _, ev := range r.Events {
				x.handleLocked(chain.EventRecord{Height: blk.Header.Height, TxID: r.TxID, Event: ev})
			}
		}
	})
	x.ix.ObserveHeight(through)
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
	ix := NewIndex()
	x := New(ix, fetch)
	for _, rec := range events {
		x.HandleEvent(rec)
	}
	ix.ObserveHeight(height)
	return ix
}
