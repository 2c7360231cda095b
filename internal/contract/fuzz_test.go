package contract

import (
	"encoding/json"
	"testing"
)

// FuzzImportState feeds arbitrary bytes through the snapshot decoder:
// whatever json.Unmarshal accepts as a StateExport (duplicate or
// colliding keys, nil pointers, orphan VM storage) must import without
// panicking, and the imported state must be a fixed point of
// Export → ImportState — a node that recovers from its own snapshot has
// to land on the root it had.
func FuzzImportState(f *testing.F) {
	golden, err := json.Marshal(allKindsExport(f))
	if err != nil {
		f.Fatal(err)
	}
	nilHeavy := []byte(`{"datasets":[{},{}],"trials":[{"reports":[{}]}],"policies":[{"policy":{"grants":[{}]}}],` +
		`"evidence":[{}],"deployed":[{}],"vm_storage":[{"pairs":[{}]},{"address":"00000000000000000000000000000000000000ff"}],"cross_config":null,` +
		`"shard_dir":[{}],"shard_roots":[{}],"cross_out":[{}],"cross_in":[{}],"fl_rounds":[{"contributions":[{}]}],` +
		`"routing":{"current":null,"pending":{}}}`)
	for _, seed := range [][]byte{golden, []byte(`{}`), nilHeavy} {
		if err := json.Unmarshal(seed, new(StateExport)); err != nil {
			f.Fatalf("seed does not decode: %v", err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ex StateExport
		if json.Unmarshal(data, &ex) != nil {
			return
		}
		s := ImportState(&ex)
		root := s.Root()
		if again := ImportState(s.Export()).Root(); again != root {
			t.Fatalf("re-imported root %s, first import %s", again, root)
		}
	})
}
