package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"medchain/internal/analytics"
	"medchain/internal/blob"
	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/emr"
	"medchain/internal/indexer"
	"medchain/internal/ledger"
	"medchain/internal/offchain"
	"medchain/internal/query"
	"medchain/internal/store"
)

// ErrNoIndex: the platform was built without Config.Index.
var ErrNoIndex = errors.New("core: off-chain index not enabled (Config.Index)")

// anchorTxChunk bounds how many register_manifests transactions one
// block carries, keeping large ingests inside the bounded
// mempool's comfort zone.
const anchorTxChunk = 128

// setupDataPlane builds the off-chain data plane: one content-addressed
// blob store per site holding every record as an individually-fetchable
// blob (each site speaks one of the three legacy encodings), manifest
// batches anchored on chain by the site owners, and a chain-tailing
// indexer caught up to the tip.
func (p *Platform) setupDataPlane() error {
	p.blobStores = make(map[string]*blob.Store, len(p.sites))
	p.siteFormat = make(map[string]string, len(p.sites))
	for i, site := range p.sites {
		format := emr.Formats[i%len(emr.Formats)]
		p.siteFormat[site.ID()] = format
		bs, err := blob.Open(store.NewMemFS(), "blobs", 0)
		if err != nil {
			return err
		}
		site.AttachBlobStore(bs)
		p.blobStores[site.ID()+"/emr"] = bs
		if err := p.anchorBlobs(site.ID(), site.LocalRecords()); err != nil {
			return err
		}
	}
	stores := p.blobStores
	p.idx = indexer.New(indexer.NewIndex(), indexer.StoreFetcher(func(dataset string) *blob.Store {
		return stores[dataset]
	}))
	p.SyncIndex()
	return nil
}

// anchorBlobs encodes each record in the site's format, writes it into
// the site's blob store, and anchors the manifests on chain in batches
// signed by the site owner.
func (p *Platform) anchorBlobs(siteID string, recs []*emr.Record) error {
	bs := p.blobStores[siteID+"/emr"]
	if bs == nil {
		return fmt.Errorf("core: no blob store for site %q", siteID)
	}
	format := p.siteFormat[siteID]
	entries := make([]contract.ManifestEntry, 0, len(recs))
	for _, r := range recs {
		data, err := emr.EncodeAs(format, []*emr.Record{r}, siteID)
		if err != nil {
			return err
		}
		m, err := bs.Put(r.Patient.ID, format, data)
		if err != nil {
			return err
		}
		entries = append(entries, contract.ManifestEntry{Record: r.Patient.ID, Root: m.Root})
	}
	owner, err := p.Acquire("site-owner-" + siteID)
	if err != nil {
		return err
	}
	var calls []call
	for start := 0; start < len(entries); start += contract.MaxManifestBatch {
		batch := entries[start:min(start+contract.MaxManifestBatch, len(entries))]
		calls = append(calls, call{from: owner, typ: ledger.TxData, method: "register_manifests", args: contract.RegisterManifestsArgs{
			Dataset: siteID + "/emr", Format: format,
			BatchRoot: contract.ManifestBatchRoot(batch), Entries: batch,
		}})
	}
	for len(calls) > 0 {
		chunk := calls[:min(anchorTxChunk, len(calls))]
		if err := p.mustTransact("anchor manifests", chunk...); err != nil {
			return err
		}
		calls = calls[len(chunk):]
	}
	return nil
}

// IngestBlobs writes new records into a site's blob store and anchors
// their manifests on chain — the sustained-ingest path (E15). The
// index does NOT advance until it reads the new blocks (SyncIndex),
// which is exactly the freshness lag the data plane's staleness
// contract exposes.
func (p *Platform) IngestBlobs(siteID string, recs []*emr.Record) error {
	if p.idx == nil {
		return ErrNoIndex
	}
	return p.anchorBlobs(siteID, recs)
}

// Indexer returns the chain-tailing indexer (nil unless Config.Index).
func (p *Platform) Indexer() *indexer.Indexer { return p.idx }

// SyncIndex catches the index up to the best running node's committed
// tip; with the whole cluster down it stays where it is.
func (p *Platform) SyncIndex() {
	if n := p.cluster.Best(); p.idx != nil && n != nil {
		p.idx.CatchUp(n)
	}
}

// IndexedResult is the outcome of an index-routed query, including the
// freshness pair every index answer is relative to: the answer covers
// the chain up to IndexedHeight; blocks (IndexedHeight, ChainHeight]
// are not yet reflected.
type IndexedResult struct {
	// Vector is the compiled query.
	Vector *query.Vector `json:"vector"`
	// Count is the matching-record count (for fetch/summary: after
	// decoding the candidate blobs).
	Count int `json:"count"`
	// Candidates is how many index docs were selected for blob fetch
	// (0 for pure-index counts).
	Candidates int `json:"candidates"`
	// Summary is the lab summary (IntentSummary only).
	Summary *analytics.Summary `json:"summary,omitempty"`
	// Records are the fetched records (IntentFetch only).
	Records []*emr.Record `json:"records,omitempty"`
	// BlobsFetched counts authorized blob reads performed.
	BlobsFetched int `json:"blobs_fetched"`
	// IndexedHeight / ChainHeight / Lag are the freshness triple.
	IndexedHeight uint64 `json:"indexed_height"`
	ChainHeight   uint64 `json:"chain_height"`
	Lag           uint64 `json:"lag"`
	// Elapsed is the end-to-end query time.
	Elapsed time.Duration `json:"elapsed"`
}

// QueryIndexed answers a natural-language query through the off-chain
// index: candidate selection runs against the index, and only for
// fetch/summary intents are the selected candidates' blobs read —
// through on-chain access authorizations, by the sites that host them.
// A summary leaves each site as its count and lab summary, pooled here;
// counts never touch a blob at all.
func (p *Platform) QueryIndexed(requester *Account, q string) (*IndexedResult, error) {
	if p.idx == nil {
		return nil, ErrNoIndex
	}
	v, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &IndexedResult{Vector: v}
	tip := p.cluster.Best()
	if tip == nil {
		return nil, chain.ErrStopped // no freshness pair to answer against
	}
	res.IndexedHeight, res.ChainHeight = p.idx.Lag(tip)
	if res.ChainHeight > res.IndexedHeight {
		res.Lag = res.ChainHeight - res.IndexedHeight
	}
	iq := v.IndexQuery()
	switch v.Intent {
	case query.IntentCount:
		res.Count = p.idx.Index().Count(iq)
	case query.IntentSummary, query.IntentFetch:
		cands := p.idx.Index().Candidates(iq)
		res.Candidates = len(cands)
		op := offchain.Request{Op: offchain.OpFetch}
		if v.Intent == query.IntentSummary {
			op = offchain.Request{Op: offchain.OpSummarise, LabCode: v.LabCode}
		}
		replies, err := p.readCandidates(requester, v.Purpose, op, cands)
		if err != nil {
			return nil, err
		}
		res.BlobsFetched = len(cands)
		parts := make([]*analytics.Summary, len(replies))
		for i, r := range replies {
			res.Count += r.Count
			res.Records = append(res.Records, r.Records...)
			parts[i] = r.Summary
		}
		if v.Intent == query.IntentSummary {
			s, err := analytics.PoolSummaries(parts)
			if err != nil {
				return nil, fmt.Errorf("core: no %q values among %d candidates: %w", v.LabCode, res.Count, err)
			}
			res.Summary = s
		}
	default:
		return nil, fmt.Errorf("core: intent %q does not route through the index", v.Intent)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// readCandidates asks the chain for one read grant per dataset the
// candidate docs fall in, then dispatches one request per dataset — op
// under that grant, over the dataset's candidate record IDs — to the
// hosting sites. Replies come back in dataset order. Typed blob errors
// propagate so a missing blob is distinguishable from a policy denial.
func (p *Platform) readCandidates(requester *Account, purpose string, op offchain.Request, cands []indexer.Doc) ([]offchain.Reply, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	byDataset := make(map[string][]string)
	datasets := make([]string, 0, 4)
	for _, d := range cands {
		if _, ok := byDataset[d.Dataset]; !ok {
			datasets = append(datasets, d.Dataset)
		}
		byDataset[d.Dataset] = append(byDataset[d.Dataset], d.Record)
	}
	sort.Strings(datasets)

	// One request_access per participating dataset.
	asks := make([]contract.RequestAccessArgs, len(datasets))
	for i, ds := range datasets {
		asks[i] = contract.RequestAccessArgs{Resource: "data:" + ds, Action: contract.ActionRead, Purpose: purpose}
	}
	grants, denials, _, err := authorize(p, accessAuth, requester, asks)
	if err != nil {
		return nil, err
	}
	reqs := make([]offchain.Request, len(datasets))
	for i, ds := range datasets {
		if grants[i] == nil {
			return nil, fmt.Errorf("%w: %s: %s", ErrDenied, ds, denials[i])
		}
		reqs[i] = op
		reqs[i].Access, reqs[i].Records = grants[i], byDataset[ds]
	}
	replies, errs := p.runner.Dispatch(reqs)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", datasets[i], err)
		}
	}
	return replies, nil
}
