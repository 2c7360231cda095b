package indexer

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"medchain/internal/chain"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/emr"
	"medchain/internal/ledger"
	"medchain/internal/vm"
)

// blobsByRoot is a content-addressed FetchFunc: each anchored root names
// its own bytes, so one record re-anchored with new bytes fetches each
// version by the root its anchor names. A root mapped to a nil blob
// fails as a root mismatch; an unknown root is a missing blob. It is
// read-only once built, so safe for concurrent fetches.
type blobsByRoot map[cryptoutil.Digest]*rootBlob

type rootBlob struct {
	data   []byte
	format string
}

func (b blobsByRoot) fetch(_, record string, root cryptoutil.Digest) ([]byte, string, error) {
	blob, ok := b[root]
	switch {
	case !ok:
		return nil, "", fmt.Errorf("no blob for %q", record)
	case blob == nil:
		return nil, "", fmt.Errorf("%w: %q", ErrRootMismatch, record)
	}
	return blob.data, blob.format, nil
}

// put stores data under its digest and returns the anchor naming it.
func (b blobsByRoot) put(record, format string, data []byte) contract.ManifestEntry {
	root := cryptoutil.Sum(data)
	b[root] = &rootBlob{data: data, format: format}
	return contract.ManifestEntry{Record: record, Root: root}
}

// encoded puts generated record i of the cohort under record ID id.
func (b blobsByRoot) encoded(t testing.TB, recs []*emr.Record, i int, id string) contract.ManifestEntry {
	t.Helper()
	format := emr.Formats[i%len(emr.Formats)]
	data, err := emr.EncodeAs(format, recs[i:i+1], "site-0")
	if err != nil {
		t.Fatal(err)
	}
	return b.put(id, format, data)
}

// anchorBlocks registers dataset "ds" on a one-node chain and commits
// each element of blocks as one block, one register_manifests
// transaction per batch in it. It returns the node and the height each
// block committed at.
func anchorBlocks(t *testing.T, blocks [][][]contract.ManifestEntry) (*chain.Node, []uint64) {
	t.Helper()
	cluster, err := chain.NewCluster(chain.ClusterConfig{Nodes: 1, KeySeed: "absorb-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	node := cluster.Node(0)
	owner, err := cryptoutil.DeriveKeyPair("absorb-owner")
	if err != nil {
		t.Fatal(err)
	}
	nonce := uint64(0)
	submit := func(method string, args any) {
		raw, err := json.Marshal(args)
		if err != nil {
			t.Fatal(err)
		}
		tx := &ledger.Transaction{Type: ledger.TxData, Nonce: nonce, Method: method, Args: raw, Timestamp: int64(nonce) + 1}
		nonce++
		if err := tx.Sign(owner); err != nil {
			t.Fatal(err)
		}
		if err := node.SubmitLocal(tx); err != nil {
			t.Fatal(err)
		}
	}
	commit := func() uint64 {
		if _, err := cluster.CommitAll(); err != nil {
			t.Fatal(err)
		}
		return node.Height()
	}
	submit("register_dataset", contract.RegisterDatasetArgs{
		ID: "ds", Digest: cryptoutil.Sum([]byte("ds")), Schema: "cdf/v1", Records: 1, SiteID: "site-0",
	})
	commit()
	var heights []uint64
	for _, batches := range blocks {
		before := node.Height()
		for _, b := range batches {
			submit("register_manifests", contract.RegisterManifestsArgs{
				Dataset: "ds", BatchRoot: contract.ManifestBatchRoot(b), Entries: b,
			})
		}
		if h := commit(); h != before+1 {
			t.Fatalf("%d batches committed in blocks %d..%d, want one block", len(batches), before+1, h)
		}
		heights = append(heights, node.Height())
	}
	return node, heights
}

// withProcs runs fn at each GOMAXPROCS value and restores the setting.
func withProcs(procs []int, fn func(p int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

func TestRebuildMatchesSerialFold(t *testing.T) {
	recs := emr.NewGenerator(emr.GenConfig{Seed: 5, Patients: 12}).Generate()
	blobs := blobsByRoot{}
	healthy := func(i int) contract.ManifestEntry { return blobs.encoded(t, recs, i, recs[i].Patient.ID) }
	// "R" is anchored three times, each time with other bytes and in
	// another format; the index must end with the third. The second
	// (FHIR, the slowest decode) and the third (HL7, the fastest) are
	// adjacent jobs, so an install in completion order ends with the
	// second.
	r1, r2, r3 := blobs.encoded(t, recs, 10, "R"), blobs.encoded(t, recs, 11, "R"), blobs.encoded(t, recs, 9, "R")
	missing := contract.ManifestEntry{Record: "GHOST", Root: cryptoutil.Sum([]byte("ghost"))}
	mismatch := contract.ManifestEntry{Record: "SWAPPED", Root: cryptoutil.Sum([]byte("swapped"))}
	blobs[mismatch.Root] = nil
	malformed := blobs.put("BROKEN", emr.FormatFHIR, []byte(`[{"resourceType":"Bundle","entry":[{"resource":{"resourceType":"Device"}}]}]`))

	node, heights := anchorBlocks(t, [][][]contract.ManifestEntry{
		{{r1, healthy(0), missing, healthy(1)}},
		{{healthy(2), mismatch, r2}, {r3}},
		{{malformed, healthy(4)}, {healthy(5), healthy(6)}, {healthy(3)}},
		{{healthy(7), healthy(8)}},
	})
	events := node.EventsSince(0)

	// The same stream with an undecodable anchor event in the middle,
	// which only a hand-made stream can carry.
	doctored := append([]chain.EventRecord(nil), events[:len(events)/2]...)
	doctored = append(doctored, chain.EventRecord{
		Height: events[len(events)/2].Height, TxID: cryptoutil.Sum([]byte("bad")),
		Event: vm.Event{Topic: "ManifestsAnchored", Data: []byte(`{"entries":`)},
	})
	doctored = append(doctored, events[len(events)/2:]...)

	for _, stream := range []struct {
		name   string
		events []chain.EventRecord
	}{{"chain", events}, {"with-bad-event", doctored}} {
		t.Run(stream.name, func(t *testing.T) {
			var serial cryptoutil.Digest
			withProcs([]int{1}, func(int) {
				x := New(NewIndex(), blobs.fetch)
				for _, rec := range stream.events {
					x.HandleEvent(rec)
				}
				x.Index().ObserveHeight(node.Height())
				serial = x.Index().Digest()
			})
			withProcs([]int{1, 2, 8}, func(p int) {
				ix := Rebuild(stream.events, blobs.fetch, node.Height())
				if ix.Digest() != serial {
					t.Fatalf("GOMAXPROCS=%d: rebuild digest differs from the serial fold", p)
				}
				d, ok := ix.Doc("ds", "R")
				if !ok || d.Root != r3.Root || d.Height != heights[1] {
					t.Fatalf("GOMAXPROCS=%d: re-anchored record holds root %s at height %d, want the last anchor %s at %d",
						p, d.Root.Short(), d.Height, r3.Root.Short(), heights[1])
				}
				want := map[string]int{SkipMissingBlob: 1, SkipRootMismatch: 1, "decode:" + emr.ReasonUnknownResource: 1}
				if stream.name == "with-bad-event" {
					want[SkipBadEvent] = 1
				}
				if got := ix.SkipCounts(); fmt.Sprint(got) != fmt.Sprint(want) || ix.Docs() != 10 {
					t.Fatalf("GOMAXPROCS=%d: %d docs, skips %v; want 10 docs, skips %v", p, ix.Docs(), got, want)
				}
			})
			if stream.name != "chain" {
				return
			}
			withProcs([]int{1, 2, 8}, func(p int) {
				x := New(NewIndex(), blobs.fetch)
				x.CatchUp(node)
				if x.Index().Digest() != serial {
					t.Fatalf("GOMAXPROCS=%d: catch-up digest differs from the serial fold", p)
				}
			})
		})
	}
}

// TestCatchUpNeverClaimsUninstalledDocs reads the index while CatchUp
// absorbs a multi-block batch whose blocks each carry several anchor
// events: whenever a reader sees indexed height h, every record
// anchored at or below h is already in the index.
func TestCatchUpNeverClaimsUninstalledDocs(t *testing.T) {
	const perBatch, batchesPerBlock, blocks = 12, 3, 5
	recs := emr.NewGenerator(emr.GenConfig{Seed: 9, Patients: perBatch * batchesPerBlock * blocks}).Generate()
	blobs := blobsByRoot{}
	var plan [][][]contract.ManifestEntry
	for b, i := 0, 0; b < blocks; b++ {
		var block [][]contract.ManifestEntry
		for k := 0; k < batchesPerBlock; k++ {
			var batch []contract.ManifestEntry
			for n := 0; n < perBatch; n, i = n+1, i+1 {
				batch = append(batch, blobs.encoded(t, recs, i, recs[i].Patient.ID))
			}
			block = append(block, batch)
		}
		plan = append(plan, block)
	}
	node, heights := anchorBlocks(t, plan)

	x := New(NewIndex(), blobs.fetch)
	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				indexed, _ := x.Lag(node)
				want := 0
				for b, h := range heights {
					if h <= indexed {
						want += len(plan[b]) * perBatch
					}
				}
				if got := x.Index().Count(Query{Dataset: "ds"}); got < want {
					t.Errorf("indexed height %d claims %d records, index holds %d", indexed, want, got)
					return
				}
				reads.Add(1)
			}
		}()
	}
	x.CatchUp(node)
	done.Store(true)
	wg.Wait()
	if got, want := x.Index().Docs(), len(recs); got != want {
		t.Fatalf("catch-up indexed %d docs, want %d", got, want)
	}
	if reads.Load() == 0 {
		t.Fatal("no reader ran during catch-up")
	}
}
