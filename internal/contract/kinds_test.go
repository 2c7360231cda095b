package contract

import (
	"encoding/json"
	"testing"

	"medchain/internal/cryptoutil"
	"medchain/internal/vm"
)

// kindCase is one keyKind's row in TestEveryKindWired: the key that
// names its object, how to place one object in a state, and an in-place
// mutation that reaches into the object's nested reference fields (so a
// shallow copy anywhere in the wiring shows up as a leak).
type kindCase struct {
	key    StateKey
	put    func(*State)
	mutate func(*State)
	// virtual marks the registry key: it owns no object, so a write
	// snapshot of it is empty and merging it changes nothing.
	virtual bool
}

func kindCases() map[keyKind]kindCase {
	addr, other := cryptoutil.NamedAddress("kind-a"), cryptoutil.NamedAddress("kind-b")
	evKey := evidenceKey("double-vote", 3, addr)
	return map[keyKind]kindCase{
		kindDataset: {KeyDataset("d"),
			func(s *State) { s.datasets["d"] = &Dataset{ID: "d", Owner: addr, Version: 1} },
			func(s *State) { s.datasets["d"].Version++ }, false},
		kindTool: {KeyTool("t"),
			func(s *State) { s.tools["t"] = &Tool{ID: "t", Owner: addr} },
			func(s *State) { s.tools["t"].Owner = other }, false},
		kindPolicy: {KeyPolicy("data:d"),
			func(s *State) {
				s.policies["data:d"] = &Policy{Owner: addr, Grants: []Grant{{Grantee: other, Actions: []Action{ActionRead}}}}
			},
			func(s *State) { s.policies["data:d"].Grants[0].Actions[0] = ActionShare }, false},
		kindTrial: {KeyTrial("n"),
			func(s *State) {
				s.trials["n"] = &Trial{ID: "n", Sponsor: addr, PrimaryOutcomes: []string{"o"},
					Reports: []OutcomeReport{{Outcomes: []string{"o"}}}}
			},
			func(s *State) { s.trials["n"].Reports[0].Outcomes[0] = "switched" }, false},
		kindAnchor: {KeyAnchor("l"),
			func(s *State) { s.anchors["l"] = &Anchor{Label: "l", By: addr} },
			func(s *State) { s.anchors["l"].By = other }, false},
		kindManifest: {KeyManifestSet("d"),
			func(s *State) { s.manifestSets["d"] = &ManifestSet{Dataset: "d", Count: 1, Batches: 1} },
			func(s *State) { s.manifestSets["d"].Count++ }, false},
		kindEvidence: {KeyEvidence(evKey),
			func(s *State) {
				s.evidence[evKey] = &EvidenceRecord{Kind: "double-vote", Height: 3, Offender: addr,
					Reporter: other, Evidence: json.RawMessage(`{"n":1}`)}
			},
			func(s *State) { s.evidence[evKey].Evidence[5] = '2' }, false},
		kindCrossCfg: {KeyCrossConfig,
			func(s *State) { s.crossCfg = &CrossShardConfig{ShardID: "shard-0", Shards: 2, Coordinator: addr} },
			func(s *State) { s.crossCfg.Shards++ }, false},
		kindShardDir: {KeyShardInfo("shard-0"),
			func(s *State) {
				s.shardDir["shard-0"] = &ShardInfo{ID: "shard-0", Gateway: addr, Committee: []cryptoutil.Address{addr}}
			},
			func(s *State) { s.shardDir["shard-0"].Committee[0] = other }, false},
		kindRouting: {KeyRouting,
			func(s *State) {
				s.routing = &RoutingTable{Current: &RoutingEpoch{Epoch: 1, Shards: []string{"shard-0"}}}
			},
			func(s *State) { s.routing.Current.Shards[0] = "shard-9" }, false},
		kindShardRoot: {KeyShardRoot("shard-0", 4),
			func(s *State) {
				s.shardRoots[rootKey("shard-0", 4)] = &ShardRoot{Shard: "shard-0", Height: 4, Root: cryptoutil.Sum([]byte("r")), By: addr}
			},
			func(s *State) { s.shardRoots[rootKey("shard-0", 4)].By = other }, false},
		kindCrossOut: {KeyCrossOut("x"),
			func(s *State) {
				s.crossOut["x"] = &CrossPrepare{Status: CrossPending,
					Record: CrossRecord{ID: "x", Kind: CrossFLRound, From: addr, Payload: json.RawMessage(`{"n":1}`)}}
			},
			func(s *State) { s.crossOut["x"].Record.Payload[5] = '2' }, false},
		kindCrossIn: {KeyCrossIn("shard-0", "x"),
			func(s *State) {
				s.crossIn[crossInKey("shard-0", "x")] = &CrossResolution{ID: "x", SourceShard: "shard-0", Kind: CrossFLRound}
			},
			func(s *State) { s.crossIn[crossInKey("shard-0", "x")].Applied = true }, false},
		kindFLRound: {KeyFLRound("r"),
			func(s *State) {
				s.flRounds["r"] = &FLRound{Round: "r", Aggregate: []float64{1},
					Contributions: []FLContribution{{Shard: "shard-0", From: addr, Weights: []float64{1}, Samples: 1}}}
			},
			func(s *State) { s.flRounds["r"].Contributions[0].Weights[0] = 2 }, false},
		kindVM: {KeyVM(addr),
			func(s *State) {
				s.deployed[addr] = &Deployed{Address: addr, Owner: other, Name: "c", Code: []byte{1}, Kind: KindVM}
				s.vmStorage[addr] = vm.NewMemStorage()
				s.vmStorage[addr].Set([]byte("k"), []byte("v"))
			},
			func(s *State) { s.vmStorage[addr].Set([]byte("k"), []byte("w")) }, false},
		kindRegistry: {KeyRegistry,
			func(s *State) {
				s.datasets["d"] = &Dataset{ID: "d", Owner: addr}
				s.tools["t"] = &Tool{ID: "t", Owner: addr}
			},
			func(s *State) { s.datasets["d"].Version++ }, true},
		kindSeq: {KeySeq,
			func(s *State) { s.requestSeq = 7 },
			func(s *State) { s.requestSeq++ }, false},
	}
}

// TestEveryKindWired is the kind-exhaustive wiring property: every
// keyKind has a descriptor, and one object of that kind survives Clone,
// Export → JSON → ImportState and a read snapshot root-equal, is
// isolated from mutation of the copy, and travels through a write
// snapshot → mutate → MergeSpeculative back into the base. A kind added
// to the const block without a descriptor, or without a row here, fails.
func TestEveryKindWired(t *testing.T) {
	cases := kindCases()
	empty := NewState().Root()
	for k := keyKind(1); k < numKinds; k++ {
		if kinds[k] == nil {
			t.Fatalf("keyKind %d has no descriptor in kinds", k)
		}
		tc, ok := cases[k]
		if !ok {
			t.Errorf("kind %s has no wiring case", k)
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			if tc.key.kind != k {
				t.Fatalf("case key %v is not of kind %s", tc.key, k)
			}
			s := NewState()
			tc.put(s)
			root := s.Root()
			if root == empty {
				t.Fatal("the object does not reach Root")
			}

			c := s.Clone()
			if c.Root() != root {
				t.Fatal("Clone lost or altered the object")
			}
			tc.mutate(c)
			want := c.Root()
			if want == root {
				t.Fatal("case vacuous: the mutation does not change the root")
			}
			if s.Root() != root {
				t.Fatal("mutating the clone leaked into the source")
			}

			body, err := json.Marshal(s.Export())
			if err != nil {
				t.Fatal(err)
			}
			var ex StateExport
			if err := json.Unmarshal(body, &ex); err != nil {
				t.Fatal(err)
			}
			imported := ImportState(&ex)
			if imported.Root() != root {
				t.Fatal("Export → ImportState lost or altered the object")
			}
			tc.mutate(imported)
			if imported.Root() != want {
				t.Fatal("the imported object is not live")
			}

			if shared := NewVersions(s).SnapshotAt(0, AccessSet{Reads: []StateKey{tc.key}}); shared.Root() != root {
				t.Fatal("a read snapshot does not see the object")
			}
			acc := AccessSet{Writes: []StateKey{tc.key}}
			snap := NewVersions(s).SnapshotAt(0, acc)
			if tc.virtual {
				if snap.Root() != empty {
					t.Fatal("a write of the virtual key copied objects")
				}
				s.MergeSpeculative(snap, acc)
				if s.Root() != root {
					t.Fatal("merging the virtual key changed the base")
				}
				return
			}
			if snap.Root() != root {
				t.Fatal("a write snapshot does not carry the object")
			}
			tc.mutate(snap)
			if s.Root() != root {
				t.Fatal("mutating the write snapshot leaked into the base")
			}
			s.MergeSpeculative(snap, acc)
			if s.Root() != want {
				t.Fatal("MergeSpeculative did not adopt the written object")
			}
		})
	}
}
