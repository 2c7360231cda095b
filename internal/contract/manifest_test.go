package contract

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

func manifestEntries(n int) []ManifestEntry {
	out := make([]ManifestEntry, n)
	for i := range out {
		out[i] = ManifestEntry{
			Record: fmt.Sprintf("P%05d", i),
			Root:   cryptoutil.Sum([]byte(fmt.Sprintf("blob-%d", i))),
		}
	}
	return out
}

func anchorManifests(t testing.TB, s *State, owner *cryptoutil.KeyPair, dataset string, entries []ManifestEntry) *Receipt {
	t.Helper()
	return apply(t, s, tx(t, owner, ledger.TxData, "register_manifests", RegisterManifestsArgs{
		Dataset: dataset, Format: "hl7", BatchRoot: ManifestBatchRoot(entries), Entries: entries,
	}))
}

func TestRegisterManifests(t *testing.T) {
	s := NewState()
	owner := key(t, "hospital-A")
	registerDataset(t, s, owner, "hospA/emr", "site-A")

	entries := manifestEntries(3)
	r := mustOK(t, anchorManifests(t, s, owner, "hospA/emr", entries))
	if len(r.Events) != 1 || r.Events[0].Topic != "ManifestsAnchored" {
		t.Fatalf("events = %+v, want one ManifestsAnchored", r.Events)
	}
	var ev ManifestsAnchored
	if err := json.Unmarshal(r.Events[0].Data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Dataset != "hospA/emr" || ev.Batch != 1 || ev.Count != 3 || len(ev.Entries) != 3 {
		t.Fatalf("event payload wrong: %+v", ev)
	}
	if ev.BatchRoot != ManifestBatchRoot(entries) {
		t.Fatal("event batch root does not cover entries")
	}

	ms, ok := s.ManifestSetOf("hospA/emr")
	if !ok {
		t.Fatal("manifest set not stored")
	}
	if ms.Count != 3 || ms.Batches != 1 || ms.Root != ev.SetRoot {
		t.Fatalf("accumulator wrong: %+v", ms)
	}

	// Second batch rolls the set root forward.
	more := manifestEntries(2)
	mustOK(t, anchorManifests(t, s, owner, "hospA/emr", more))
	ms2, _ := s.ManifestSetOf("hospA/emr")
	if ms2.Count != 5 || ms2.Batches != 2 {
		t.Fatalf("accumulator after batch 2: %+v", ms2)
	}
	want := cryptoutil.SumAll(ms.Root[:], func() []byte { d := ManifestBatchRoot(more); return d[:] }())
	if ms2.Root != want {
		t.Fatal("rolling root does not chain batch roots in order")
	}
	if got := s.ManifestSets(); len(got) != 1 || got[0] != "hospA/emr" {
		t.Fatalf("ManifestSets = %v", got)
	}
}

func TestRegisterManifestsDenied(t *testing.T) {
	s := NewState()
	owner := key(t, "hospital-A")
	stranger := key(t, "mallory")
	registerDataset(t, s, owner, "hospA/emr", "site-A")
	entries := manifestEntries(2)

	cases := []struct {
		name string
		tx   *ledger.Transaction
		want string
	}{
		{"non-owner", tx(t, stranger, ledger.TxData, "register_manifests", RegisterManifestsArgs{
			Dataset: "hospA/emr", BatchRoot: ManifestBatchRoot(entries), Entries: entries,
		}), "not the owner"},
		{"unknown dataset", tx(t, owner, ledger.TxData, "register_manifests", RegisterManifestsArgs{
			Dataset: "nope", BatchRoot: ManifestBatchRoot(entries), Entries: entries,
		}), "not found"},
		{"empty batch", tx(t, owner, ledger.TxData, "register_manifests", RegisterManifestsArgs{
			Dataset: "hospA/emr",
		}), "empty manifest batch"},
		{"oversized batch", tx(t, owner, ledger.TxData, "register_manifests", RegisterManifestsArgs{
			Dataset: "hospA/emr", BatchRoot: ManifestBatchRoot(manifestEntries(MaxManifestBatch + 1)),
			Entries: manifestEntries(MaxManifestBatch + 1),
		}), "batch cap"},
		{"empty record ID", tx(t, owner, ledger.TxData, "register_manifests", RegisterManifestsArgs{
			Dataset:   "hospA/emr",
			BatchRoot: ManifestBatchRoot([]ManifestEntry{{Record: ""}}),
			Entries:   []ManifestEntry{{Record: ""}},
		}), "empty record ID"},
		{"forged batch root", tx(t, owner, ledger.TxData, "register_manifests", RegisterManifestsArgs{
			Dataset: "hospA/emr", BatchRoot: cryptoutil.Sum([]byte("forged")), Entries: entries,
		}), "does not cover"},
	}
	for _, tc := range cases {
		r := apply(t, s, tc.tx)
		if r.OK() || !strings.Contains(r.Err, tc.want) {
			t.Fatalf("%s: err=%q want contains %q", tc.name, r.Err, tc.want)
		}
		if len(r.Events) != 0 {
			t.Fatalf("%s: denied anchor emitted events", tc.name)
		}
	}
	if _, ok := s.ManifestSetOf("hospA/emr"); ok {
		t.Fatal("denied anchors mutated the accumulator")
	}
}

// TestManifestSetCloneExportRoot pins the accumulator into the three
// replication paths that history shows are easy to miss: Clone,
// Export/ImportState, and the state root.
func TestManifestSetCloneExportRoot(t *testing.T) {
	s := NewState()
	owner := key(t, "hospital-A")
	registerDataset(t, s, owner, "hospA/emr", "site-A")
	before := s.Root()
	mustOK(t, anchorManifests(t, s, owner, "hospA/emr", manifestEntries(4)))
	if s.Root() == before {
		t.Fatal("anchoring manifests did not change the state root")
	}

	c := s.Clone()
	if c.Root() != s.Root() {
		t.Fatal("clone root diverges")
	}
	ms, ok := c.ManifestSetOf("hospA/emr")
	if !ok || ms.Count != 4 {
		t.Fatalf("clone lost the manifest set: %+v ok=%v", ms, ok)
	}
	// Mutating the clone must not leak back.
	mustOK(t, anchorManifests(t, c, owner, "hospA/emr", manifestEntries(1)))
	if orig, _ := s.ManifestSetOf("hospA/emr"); orig.Count != 4 {
		t.Fatal("clone mutation leaked into the original")
	}

	raw, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	var ex StateExport
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	imported := ImportState(&ex)
	if imported.Root() != s.Root() {
		t.Fatal("export/import round trip changed the state root")
	}
}

// TestManifestAccessSet pins the declared footprint: the dataset is
// read (ownership check), the accumulator written, and a payload that
// fails to decode declares nothing.
func TestManifestAccessSet(t *testing.T) {
	owner := key(t, "hospital-A")
	entries := manifestEntries(1)
	good := tx(t, owner, ledger.TxData, "register_manifests", RegisterManifestsArgs{
		Dataset: "hospA/emr", BatchRoot: ManifestBatchRoot(entries), Entries: entries,
	})
	acc := AccessSetOf(good)
	wantR, wantW := KeyDataset("hospA/emr"), KeyManifestSet("hospA/emr")
	if len(acc.Reads) != 1 || acc.Reads[0] != wantR {
		t.Fatalf("reads = %v, want [%v]", acc.Reads, wantR)
	}
	if len(acc.Writes) != 1 || acc.Writes[0] != wantW {
		t.Fatalf("writes = %v, want [%v]", acc.Writes, wantW)
	}

	bad := tx(t, owner, ledger.TxData, "register_manifests", nil)
	bad.Args = []byte("{not json")
	if acc := AccessSetOf(bad); len(acc.Touched()) != 0 {
		t.Fatalf("undecodable anchor args declared %s", acc)
	}
}
