package contract_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"medchain/internal/contract"
	"medchain/internal/contract/fixtures"
)

var updateReceipts = flag.Bool("update-receipts", false, "rewrite testdata/receipts.golden from this build's receipts")

// TestGoldenReceipts holds every fixture's receipt — gas, error text and
// events, as JSON — to the bytes recorded at commit 3a8ffcb, the last
// one where each method decoded its own arguments. Gas is charged, or
// not, before the decode; cross methods check the shard config and
// invoke looks the contract up before either reports an undecodable
// payload: an edit that reorders any of that changes a line here.
func TestGoldenReceipts(t *testing.T) {
	const path = "testdata/receipts.golden"
	var got bytes.Buffer
	for _, c := range fixtures.New(t).Cases {
		r, err := c.On.Clone().Apply(c.Tx, fixtures.Height, fixtures.Now)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		switch c.Variant {
		case fixtures.OK:
			if !r.OK() {
				t.Errorf("%s: failed: %s", c.Name, r.Err)
			}
		case fixtures.Fail, fixtures.Undecodable:
			if r.OK() {
				t.Errorf("%s: succeeded", c.Name)
			}
		}
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(c.Name + "\t")
		got.Write(line)
		got.WriteByte('\n')
	}
	if *updateReceipts {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d receipts, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("receipt drifted from the golden file\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// TestEveryMethodWired is the method-exhaustive wiring property, the
// sibling of TestEveryKindWired: every entry of the method table has a
// succeeding, a failing and an undecodable fixture, and for each
//
//   - running it on a snapshot of its declared footprint and merging
//     the writes back equals applying it directly, receipt and root;
//   - on a rooted state the incremental root equals one rebuilt from
//     the export, so the footprint covers what the handler wrote;
//   - the undecodable variant writes nothing, leaves the root where it
//     was and says ErrBadArgs (gas is TestGoldenReceipts' business).
//
// An entry added to the table without fixtures fails here.
func TestEveryMethodWired(t *testing.T) {
	set := fixtures.New(t)
	for _, on := range []*contract.State{set.Empty, set.Member, set.Coord, set.CoordPending} {
		on.Root() // rooted, as a live node's state always is
	}
	byMethod := map[string]map[string]fixtures.Case{}
	for _, c := range set.Cases {
		name := contract.MethodOf(contract.Prepare(c.Tx))
		if byMethod[name] == nil {
			byMethod[name] = map[string]fixtures.Case{}
		}
		if _, dup := byMethod[name][c.Variant]; !dup {
			byMethod[name][c.Variant] = c
		}
	}
	for _, name := range contract.MethodNames() {
		for _, variant := range []string{fixtures.OK, fixtures.Fail, fixtures.Undecodable} {
			if _, ok := byMethod[name][variant]; !ok {
				t.Errorf("method %s has no %q fixture", name, variant)
			}
		}
	}
	for _, c := range set.Cases {
		t.Run(c.Name, func(t *testing.T) {
			call := contract.Prepare(c.Tx)
			acc := call.Access()

			direct := c.On.Clone()
			want, err := direct.Apply(c.Tx, fixtures.Height, fixtures.Now)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Root() != contract.ImportState(direct.Export()).Root() {
				t.Fatalf("incremental root differs from a rebuild: the handler wrote outside %s", acc)
			}

			merged := c.On.Clone()
			snap := contract.NewVersions(merged).SnapshotAt(0, acc)
			got, err := snap.Run(call, fixtures.Height, fixtures.Now)
			if err != nil {
				t.Fatal(err)
			}
			merged.AdoptSpeculative([]contract.SpecWrite{{Snap: snap, Acc: acc}}, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("receipt on a snapshot of %s:\n got %+v\nwant %+v", acc, got, want)
			}
			if merged.Root() != direct.Root() {
				t.Fatalf("snapshot → run → merge over %s ends on another root than Apply", acc)
			}

			switch c.Variant {
			case fixtures.OK:
				if direct.Root() == c.On.Root() && len(acc.Writes) > 0 {
					t.Fatal("case vacuous: a succeeding transaction left the root where it was")
				}
			case fixtures.Undecodable:
				if len(acc.Writes) != 0 && contract.MethodOf(call) != "invoke/" {
					t.Fatalf("undecodable arguments declare writes: %s", acc)
				}
				if direct.Root() != c.On.Root() {
					t.Fatal("undecodable arguments changed the root")
				}
				if !strings.Contains(want.Err, contract.ErrBadArgs.Error()) {
					t.Fatalf("undecodable arguments: %q, want ErrBadArgs", want.Err)
				}
			}
		})
	}
}
