package core

import (
	"errors"
	"testing"

	"medchain/internal/blob"
	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/emr"
	"medchain/internal/indexer"
	"medchain/internal/store"
)

// indexedPlatform builds a platform with the off-chain data plane up
// and a fully-granted researcher.
func indexedPlatform(t *testing.T, sites, patients int) (*Platform, *Account) {
	t.Helper()
	p, err := NewPlatform(Config{
		Sites:           sites,
		PatientsPerSite: patients,
		Seed:            42,
		KeySeed:         "test/" + t.Name(),
		Index:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	researcher, err := p.Acquire("researcher")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.GrantAll(researcher, []contract.Action{
		contract.ActionRead, contract.ActionExecute,
	}, ""); err != nil {
		t.Fatal(err)
	}
	// The grant block advances the chain past the index; tail it so
	// freshness assertions below are deterministic.
	p.SyncIndex()
	return p, researcher
}

// allRecords collects every site's records (test oracle only).
func allRecords(t *testing.T, p *Platform) []*emr.Record {
	t.Helper()
	var out []*emr.Record
	for _, site := range p.Sites() {
		if err := site.Evaluate(func(rr []*emr.Record) error {
			out = append(out, rr...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestQueryIndexedCountMatchesScan(t *testing.T) {
	p, researcher := indexedPlatform(t, 2, 40)

	for _, q := range []string{
		"how many patients with diabetes",
		"count patients with diabetes aged 50-70",
		"how many women with stroke",
	} {
		res, err := p.QueryIndexed(researcher, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		iq := res.Vector.IndexQuery()
		want := 0
		for _, r := range allRecords(t, p) {
			if iq.MatchRecord(r) {
				want++
			}
		}
		if res.Count != want {
			t.Fatalf("%q: index count %d, direct scan %d", q, res.Count, want)
		}
		if res.BlobsFetched != 0 {
			t.Fatalf("%q: count touched %d blobs", q, res.BlobsFetched)
		}
		if res.Lag != 0 || res.IndexedHeight != res.ChainHeight {
			t.Fatalf("%q: stale after setup: indexed %d chain %d", q, res.IndexedHeight, res.ChainHeight)
		}
		if res.ChainHeight == 0 {
			t.Fatal("chain height 0 after bootstrap + anchoring")
		}
	}
}

func TestQueryIndexedFetchAndSummary(t *testing.T) {
	p, researcher := indexedPlatform(t, 2, 30)

	res, err := p.QueryIndexed(researcher, "fetch records of women with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 || res.Count != len(res.Records) {
		t.Fatalf("fetch: count %d, records %d", res.Count, len(res.Records))
	}
	if res.BlobsFetched != res.Candidates {
		t.Fatalf("fetched %d blobs for %d candidates", res.BlobsFetched, res.Candidates)
	}
	iq := res.Vector.IndexQuery()
	for _, r := range res.Records {
		if !iq.MatchRecord(r) {
			t.Fatalf("fetched record %s does not match the query", r.Patient.ID)
		}
	}

	sum, err := p.QueryIndexed(researcher, "average glucose for patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Summary == nil || sum.Summary.N == 0 {
		t.Fatalf("summary empty: %+v", sum.Summary)
	}
	if sum.Summary.N < sum.Count {
		t.Fatalf("summary over %d values from %d matching records", sum.Summary.N, sum.Count)
	}
}

func TestIngestFreshnessLag(t *testing.T) {
	p, researcher := indexedPlatform(t, 1, 20)

	before, err := p.QueryIndexed(researcher, "how many patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}

	// New admissions: anchored on chain, but the index has not tailed
	// the new blocks yet — the lag must be visible.
	recs := emr.NewGenerator(emr.GenConfig{Seed: 7, Patients: 25, StartID: 10_000}).Generate()
	if err := p.IngestBlobs("site-0", recs); err != nil {
		t.Fatal(err)
	}
	indexed, tip := p.Indexer().Lag(p.Cluster().Node(0))
	if indexed >= tip {
		t.Fatalf("no freshness lag after ingest: indexed %d tip %d", indexed, tip)
	}

	p.SyncIndex()
	indexed, tip = p.Indexer().Lag(p.Cluster().Node(0))
	if indexed != tip {
		t.Fatalf("lag survives SyncIndex: indexed %d tip %d", indexed, tip)
	}
	after, err := p.QueryIndexed(researcher, "how many patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if after.Count <= before.Count {
		t.Fatalf("ingest did not grow the cohort: %d -> %d", before.Count, after.Count)
	}
}

func TestQueryIndexedMissingBlob(t *testing.T) {
	p, researcher := indexedPlatform(t, 1, 20)

	// The site loses its blobs (fresh empty store): the index still
	// selects candidates, but the authorized fetch must surface the
	// typed blob error, not a silent miss.
	empty, err := blob.Open(store.NewMemFS(), "blobs", 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Sites()[0].AttachBlobStore(empty)

	_, err = p.QueryIndexed(researcher, "fetch records of patients with diabetes")
	if !errors.Is(err, blob.ErrManifestMissing) {
		t.Fatalf("err = %v, want blob.ErrManifestMissing", err)
	}
}

func TestQueryIndexedRequiresIndex(t *testing.T) {
	p, researcher := testPlatform(t, 1, 10)
	if _, err := p.QueryIndexed(researcher, "how many patients with diabetes"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v, want ErrNoIndex", err)
	}
	if err := p.IngestBlobs("site-0", nil); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("ingest err = %v, want ErrNoIndex", err)
	}
	if _, err := p.Query(researcher, "how many patients with diabetes"); err != nil {
		t.Fatalf("un-indexed platform must still answer via RunTransformed: %v", err)
	}
}

// rebuiltIndex replays node's committed events from genesis into a fresh
// index over the platform's blob stores — the reference a live index
// must equal.
func rebuiltIndex(p *Platform, node *chain.Node) *indexer.Index {
	stores := make(map[string]*blob.Store)
	for _, site := range p.Sites() {
		stores[site.ID()+"/emr"] = site.BlobStore()
	}
	fetch := indexer.StoreFetcher(func(ds string) *blob.Store { return stores[ds] })
	return indexer.Rebuild(node.EventsSince(0), fetch, node.Height())
}

// TestIndexFollowsTheCommittedChain holds the index to the chain, not
// to one replica of it and not to a height read after the events:
//
//   - One goroutine commits register_manifests blocks while this one
//     calls CatchUp in a loop; afterwards the live index is digest-equal
//     to a rebuild from the committed events. (CatchUp used to mark
//     node.Height(), read after the events were snapshotted, as indexed:
//     a block committed in between was never read. 50 of 50 runs failed
//     at dd72d03.)
//   - With node 0 stopped and the quorum intact, an ingest is still
//     indexed and queryable and the freshness pair is the best running
//     node's (SyncIndex and QueryIndexed read Node(0)).
func TestIndexFollowsTheCommittedChain(t *testing.T) {
	p, researcher := indexedPlatform(t, 4, 4)
	recs := emr.NewGenerator(emr.GenConfig{Seed: 7, Patients: 60, StartID: 10_000}).Generate()
	node := p.Cluster().Node(0)
	ingested := make(chan error, 1)
	go func() {
		for _, r := range recs[:30] {
			if err := p.IngestBlobs("site-1", []*emr.Record{r}); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()
	for committing := true; committing; {
		select {
		case err := <-ingested:
			if err != nil {
				t.Fatal(err)
			}
			committing = false
		default:
		}
		p.Indexer().CatchUp(node)
	}
	live := p.Indexer().Index()
	if want := rebuiltIndex(p, node); live.Digest() != want.Digest() {
		t.Fatalf("live index (%d docs @%d) differs from a rebuild of the committed events (%d docs @%d)",
			live.Docs(), live.Height(), want.Docs(), want.Height())
	}

	p.Cluster().StopNode(0)
	before, err := p.QueryIndexed(researcher, "how many patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IngestBlobs("site-2", recs[30:]); err != nil {
		t.Fatal(err)
	}
	tip := p.Cluster().Best().Height()
	if tip <= node.Height() {
		t.Fatalf("the ingest did not pass stopped node 0: tip %d, node 0 at %d", tip, node.Height())
	}
	stale, err := p.QueryIndexed(researcher, "how many patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	if stale.ChainHeight != tip || stale.Lag == 0 {
		t.Fatalf("freshness with node 0 down: %+v, tip %d", stale, tip)
	}
	p.SyncIndex()
	after, err := p.QueryIndexed(researcher, "how many patients with diabetes")
	if err != nil {
		t.Fatal(err)
	}
	matching := 0
	for _, r := range recs[30:] {
		if after.Vector.IndexQuery().MatchRecord(r) {
			matching++
		}
	}
	if matching == 0 || after.Count != before.Count+matching || after.IndexedHeight != tip || after.Lag != 0 {
		t.Fatalf("after SyncIndex with node 0 down: count %d -> %d (%d ingested records match), indexed %d of %d",
			before.Count, after.Count, matching, after.IndexedHeight, tip)
	}
	if indexed, chainTip := p.Indexer().Lag(p.Cluster().Best()); indexed != tip || chainTip != tip {
		t.Fatalf("Lag = %d/%d, tip %d", indexed, chainTip, tip)
	}
	if want := rebuiltIndex(p, p.Cluster().Best()); live.Digest() != want.Digest() {
		t.Fatalf("live index differs from a rebuild on the best node (%d docs vs %d)", live.Docs(), want.Docs())
	}
}
