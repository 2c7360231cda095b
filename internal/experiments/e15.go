package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"medchain/internal/blob"
	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/core"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/indexer"
	"medchain/internal/store"
	"medchain/internal/vm"
)

// --- E15: off-chain data plane — index freshness and query speedup ---
//
// The content-addressed blob store moves EMR payloads off chain; only
// per-record manifests are anchored. A chain-tailing indexer extracts
// typed fields from the anchored blobs into an inverted index that
// answers candidate selection without touching a single blob. E15
// measures the two costs that design trades against each other:
//
//   - freshness: under sustained ingest (blobs written + manifests
//     anchored round after round), how far behind the chain tip the
//     index falls before a tail catch-up, and what catch-up costs. The
//     lag is the staleness window every index answer is relative to —
//     the data plane reports it with every query rather than hiding it;
//   - query latency vs corpus size: cohort queries answered from the
//     index versus a full scan that fetches and decodes every anchored
//     blob. The index answer must win by a widening factor as the
//     corpus grows — at the largest corpus (>= 100k records in the full
//     sweep) by at least 10x — while agreeing exactly with the scan.
//
// The freshness leg runs on a live platform (real chain, real anchor
// transactions). The corpus leg builds the index by replaying
// fabricated anchor events over a real blob store, so corpus size is
// bounded by encode/decode throughput rather than consensus.

// e15Config is the data-plane experiment.
type e15Config struct {
	// IngestRounds / IngestBatch shape the sustained ingest: rounds of
	// IngestBatch fresh records each.
	IngestRounds int
	IngestBatch  int
	// CorpusSizes are the record counts swept in the query-latency leg.
	CorpusSizes []int
	// QueryRepeats averages the index-side query latency.
	QueryRepeats int
}

var e15Sizes = [...]e15Config{
	Full:  {IngestRounds: 4, IngestBatch: 60, CorpusSizes: []int{5_000, 25_000, 100_000}, QueryRepeats: 100},
	Quick: {IngestRounds: 2, IngestBatch: 40, CorpusSizes: []int{500, 2_000}, QueryRepeats: 20},
}

// The live freshness platform.
const (
	e15Sites           = 2
	e15PatientsPerSite = 40
)

// e15FreshnessRow is one sustained-ingest round.
type e15FreshnessRow struct {
	// Round is 1-based.
	Round int
	// Ingested is the records anchored this round.
	Ingested int
	// ChainHeight / IndexedBefore are the heights right after the
	// round's anchors committed, before the index tailed them; Lag is
	// their difference — the staleness window.
	ChainHeight   uint64
	IndexedBefore uint64
	Lag           uint64
	// SyncElapsed is the tail catch-up cost; Docs the corpus after it.
	SyncElapsed time.Duration
	Docs        int
}

// e15QueryRow is one corpus size in the query-latency sweep.
type e15QueryRow struct {
	// Records is the corpus size; Docs what the rebuilt index holds.
	Records int
	Docs    int
	// BuildElapsed is the full index rebuild (fetch + decode + extract
	// for every anchored blob).
	BuildElapsed time.Duration
	// IndexAvg / ScanAvg are the mean per-query latencies over the
	// panel: answered from the index vs a full decode-and-match scan
	// of every blob.
	IndexAvg time.Duration
	ScanAvg  time.Duration
	// Speedup is ScanAvg / IndexAvg.
	Speedup float64
	// Mismatches counts query answers where index and scan disagreed
	// (must be zero).
	Mismatches int
}

// e15Queries is the cohort panel both legs answer.
var e15Queries = []indexer.Query{
	{Condition: emr.CondDiabetes},
	{Condition: emr.CondStroke, MinAge: 40, MaxAge: 75},
	{Sex: emr.SexFemale, LabCode: emr.LabGlucose},
}

// e15Freshness runs the sustained-ingest leg on a live platform.
func e15Freshness(cfg e15Config, seed int64) ([]e15FreshnessRow, error) {
	p, err := core.NewPlatform(core.Config{
		Sites:           e15Sites,
		PatientsPerSite: e15PatientsPerSite,
		Seed:            seed,
		KeySeed:         fmt.Sprintf("e15-%d", seed),
		Index:           true,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: e15 freshness: %w", err)
	}
	defer p.Close()

	rows := make([]e15FreshnessRow, 0, cfg.IngestRounds)
	nextID := 1_000_000
	for round := 1; round <= cfg.IngestRounds; round++ {
		recs := emr.NewGenerator(emr.GenConfig{
			Seed:     seed + int64(round)*104_729,
			Patients: cfg.IngestBatch,
			StartID:  nextID,
		}).Generate()
		nextID += cfg.IngestBatch
		site := fmt.Sprintf("site-%d", round%e15Sites)
		if err := p.IngestBlobs(site, recs); err != nil {
			return nil, fmt.Errorf("experiments: e15 round %d: %w", round, err)
		}
		indexed, tip := p.Indexer().Lag(p.Cluster().Node(0))
		row := e15FreshnessRow{
			Round: round, Ingested: len(recs),
			ChainHeight: tip, IndexedBefore: indexed,
		}
		if tip > indexed {
			row.Lag = tip - indexed
		}
		start := time.Now()
		p.SyncIndex()
		row.SyncElapsed = time.Since(start)
		row.Docs = p.Indexer().Index().Docs()
		rows = append(rows, row)
	}
	return rows, nil
}

// e15Corpus writes n records as per-record blobs (formats interleaved)
// and fabricates the anchor event stream an indexer would tail.
func e15Corpus(n int, seed int64) (*blob.Store, []chain.EventRecord, error) {
	bs, err := blob.Open(store.NewMemFS(), "blobs", 0)
	if err != nil {
		return nil, nil, err
	}
	const dataset = "corpus/emr"
	recs := emr.NewGenerator(emr.GenConfig{Seed: seed, Patients: n}).Generate()
	entries := make([]contract.ManifestEntry, 0, n)
	for i, r := range recs {
		format := emr.Formats[i%len(emr.Formats)]
		data, err := emr.EncodeAs(format, []*emr.Record{r}, dataset)
		if err != nil {
			return nil, nil, err
		}
		m, err := bs.Put(r.Patient.ID, format, data)
		if err != nil {
			return nil, nil, err
		}
		entries = append(entries, contract.ManifestEntry{Record: r.Patient.ID, Root: m.Root})
	}

	var events []chain.EventRecord
	var setRoot cryptoutil.Digest
	count := 0
	for start, batch := 0, 1; start < len(entries); start, batch = start+contract.MaxManifestBatch, batch+1 {
		end := start + contract.MaxManifestBatch
		if end > len(entries) {
			end = len(entries)
		}
		part := entries[start:end]
		br := contract.ManifestBatchRoot(part)
		setRoot = cryptoutil.SumAll(setRoot[:], br[:])
		count += len(part)
		data, err := json.Marshal(contract.ManifestsAnchored{
			Dataset: dataset, BatchRoot: br, Entries: part,
			Batch: batch, Count: count, SetRoot: setRoot,
		})
		if err != nil {
			return nil, nil, err
		}
		events = append(events, chain.EventRecord{
			Height: uint64(batch),
			TxID:   cryptoutil.Sum([]byte(fmt.Sprintf("e15-anchor-%d-%d", seed, batch))),
			Event:  vm.Event{Topic: "ManifestsAnchored", Data: data},
		})
	}
	return bs, events, nil
}

// e15QueryScaling runs the query-latency leg across corpus sizes.
func e15QueryScaling(cfg e15Config, seed int64) ([]e15QueryRow, error) {
	rows := make([]e15QueryRow, 0, len(cfg.CorpusSizes))
	for _, n := range cfg.CorpusSizes {
		bs, events, err := e15Corpus(n, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: e15 corpus %d: %w", n, err)
		}
		fetch := indexer.StoreFetcher(func(string) *blob.Store { return bs })

		start := time.Now()
		ix := indexer.Rebuild(events, fetch, uint64(len(events)))
		row := e15QueryRow{Records: n, Docs: ix.Docs(), BuildElapsed: time.Since(start)}

		// Full scan: fetch + decode every anchored blob, match on the
		// complete record — the only way to answer without an index.
		scan := func(q indexer.Query) (int, time.Duration) {
			s := time.Now()
			matched := 0
			for _, er := range events {
				var ev contract.ManifestsAnchored
				if json.Unmarshal(er.Event.Data, &ev) != nil {
					continue
				}
				for _, ent := range ev.Entries {
					data, m, err := bs.Get(ent.Record)
					if err != nil {
						continue
					}
					recs, err := emr.DecodeAs(m.Format, data)
					if err != nil || len(recs) == 0 {
						continue
					}
					if q.MatchRecord(recs[0]) {
						matched++
					}
				}
			}
			return matched, time.Since(s)
		}

		var indexTotal, scanTotal time.Duration
		for _, q := range e15Queries {
			s := time.Now()
			got := 0
			for r := 0; r < cfg.QueryRepeats; r++ {
				got = ix.Count(q)
			}
			indexTotal += time.Since(s) / time.Duration(cfg.QueryRepeats)
			want, dur := scan(q)
			scanTotal += dur
			if got != want {
				row.Mismatches++
			}
		}
		row.IndexAvg = indexTotal / time.Duration(len(e15Queries))
		row.ScanAvg = scanTotal / time.Duration(len(e15Queries))
		if row.IndexAvg > 0 {
			row.Speedup = float64(row.ScanAvg) / float64(row.IndexAvg)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// verifyE15 enforces the data-plane acceptance bars. Timing-sensitive
// bars are limited to the ratio (speedup), never absolute latency.
func verifyE15(cfg e15Config, fresh []e15FreshnessRow, queries []e15QueryRow) error {
	if len(fresh) == 0 || len(queries) == 0 {
		return fmt.Errorf("experiments: e15 produced no rows")
	}
	for _, r := range fresh {
		if r.Lag == 0 {
			return fmt.Errorf("experiments: e15 round %d: no freshness lag after ingest — anchors did not outrun the tail", r.Round)
		}
	}
	last := fresh[len(fresh)-1]
	wantDocs := e15Sites*e15PatientsPerSite + cfg.IngestRounds*cfg.IngestBatch
	if last.Docs != wantDocs {
		return fmt.Errorf("experiments: e15: %d docs after final sync, want %d", last.Docs, wantDocs)
	}
	for _, r := range queries {
		if r.Mismatches != 0 {
			return fmt.Errorf("experiments: e15 corpus %d: %d index/scan disagreements", r.Records, r.Mismatches)
		}
		if r.Docs != r.Records {
			return fmt.Errorf("experiments: e15 corpus %d: index holds %d docs", r.Records, r.Docs)
		}
	}
	if top := queries[len(queries)-1]; top.Speedup < 10 {
		return fmt.Errorf("experiments: e15 corpus %d: index speedup %.1fx < 10x over full scan", top.Records, top.Speedup)
	}
	return nil
}

var e15FreshnessColumns = []column[e15FreshnessRow]{
	{"round", func(r e15FreshnessRow) string { return fmt.Sprint(r.Round) }},
	{"ingested", func(r e15FreshnessRow) string { return fmt.Sprint(r.Ingested) }},
	{"chainH", func(r e15FreshnessRow) string { return fmt.Sprint(r.ChainHeight) }},
	{"indexedH", func(r e15FreshnessRow) string { return fmt.Sprint(r.IndexedBefore) }},
	{"lag", func(r e15FreshnessRow) string { return fmt.Sprint(r.Lag) }},
	{"sync", func(r e15FreshnessRow) string { return fmtDur(r.SyncElapsed) }},
	{"docs", func(r e15FreshnessRow) string { return fmt.Sprint(r.Docs) }},
}

var e15QueryColumns = []column[e15QueryRow]{
	{"records", func(r e15QueryRow) string { return fmt.Sprint(r.Records) }},
	{"docs", func(r e15QueryRow) string { return fmt.Sprint(r.Docs) }},
	{"build", func(r e15QueryRow) string { return fmtDur(r.BuildElapsed) }},
	{"index", func(r e15QueryRow) string { return fmtDur(r.IndexAvg) }},
	{"scan", func(r e15QueryRow) string { return fmtDur(r.ScanAvg) }},
	{"speedup", func(r e15QueryRow) string { return fmt.Sprintf("%.0fx", r.Speedup) }},
	{"mismatch", func(r e15QueryRow) string { return fmt.Sprint(r.Mismatches) }},
}

func runE15(size Size, seed int64) ([]Table, error) {
	cfg := e15Sizes[size]
	fresh, err := e15Freshness(cfg, seed)
	if err != nil {
		return nil, err
	}
	queries, err := e15QueryScaling(cfg, seed)
	if err != nil {
		return nil, err
	}
	return []Table{
		tabulate("E15a index freshness under sustained ingest (live chain; lag = blocks the index trails the tip before catch-up)", fresh, e15FreshnessColumns),
		tabulate("E15b cohort-query latency: inverted index vs full blob decode-and-scan (per-query mean over the panel)", queries, e15QueryColumns),
	}, verifyE15(cfg, fresh, queries)
}
