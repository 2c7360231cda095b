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

// poke runs a direct table write on s and drops s's root tree, which
// cannot know about it.
func poke(s *State, write func(*State)) {
	write(s)
	s.invalidateRoot()
}

// TestEveryKindWired is the kind-exhaustive wiring property: every
// keyKind has a descriptor, and one object of that kind survives Clone,
// Export → JSON → ImportState and a read snapshot root-equal, is
// isolated from mutation of the copy, travels through a write
// snapshot → mutate → AdoptSpeculative back into the base, and proves
// against the root. A kind added to the const block without a
// descriptor, or without a row here, fails. Leak checks read freshRoot:
// the kept tree would not show a write that reached s behind its back.
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
			poke(s, tc.put)
			root := s.Root()
			if root == empty {
				t.Fatal("the object does not reach Root")
			}
			checkProof(t, s, tc)

			c := s.Clone()
			if c.Root() != root {
				t.Fatal("Clone lost or altered the object")
			}
			poke(c, tc.mutate)
			want := c.Root()
			if want == root {
				t.Fatal("case vacuous: the mutation does not change the root")
			}
			if freshRoot(s) != root {
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
			poke(imported, tc.mutate)
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
				s.AdoptSpeculative([]SpecWrite{{Snap: snap, Acc: acc}}, nil)
				if s.Root() != root {
					t.Fatal("merging the virtual key changed the base")
				}
				return
			}
			if snap.Root() != root {
				t.Fatal("a write snapshot does not carry the object")
			}
			poke(snap, tc.mutate)
			if freshRoot(s) != root {
				t.Fatal("mutating the write snapshot leaked into the base")
			}
			s.AdoptSpeculative([]SpecWrite{{Snap: snap, Acc: acc}}, nil)
			if s.Root() != want {
				t.Fatal("AdoptSpeculative did not adopt the written object, or did not mark it")
			}
		})
	}
}

// checkProof is TestEveryKindWired's inclusion-proof leg: the case's
// object proves against s's root, and the proof stops verifying after a
// one-byte change to the leaf, the key, a sibling or the root. A key
// with no object behind it — the virtual registry key, or the case's
// key on an empty state — is refused.
func checkProof(t *testing.T, s *State, tc kindCase) {
	t.Helper()
	root := s.Root()
	proof, ok := s.Prove(tc.key)
	if tc.virtual {
		if ok {
			t.Fatal("the virtual key, which owns no object, proved")
		}
		return
	}
	if !ok || !VerifyStateProof(root, tc.key, proof) {
		t.Fatalf("the object does not prove against Root (found %v)", ok)
	}
	if _, ok := NewState().Prove(tc.key); ok != (tc.key == KeySeq) {
		t.Fatalf("Prove on an empty state = %v", ok)
	}
	tampered := func(edit func(p *StateProof, root *cryptoutil.Digest, k *StateKey)) bool {
		p := &StateProof{Leaf: append([]byte(nil), proof.Leaf...), Bucket: append([]StateLeaf(nil), proof.Bucket...),
			Path: append([]cryptoutil.Digest(nil), proof.Path...)}
		r, k := root, tc.key
		edit(p, &r, &k)
		return VerifyStateProof(r, k, p)
	}
	for name, edit := range map[string]func(*StateProof, *cryptoutil.Digest, *StateKey){
		"leaf":     func(p *StateProof, _ *cryptoutil.Digest, _ *StateKey) { p.Leaf[len(p.Leaf)-1] ^= 1 },
		"key":      func(_ *StateProof, _ *cryptoutil.Digest, k *StateKey) { k.id += "x" },
		"sibling":  func(p *StateProof, _ *cryptoutil.Digest, _ *StateKey) { p.Path[rootDepth/2][0] ^= 1 },
		"root":     func(_ *StateProof, r *cryptoutil.Digest, _ *StateKey) { r[0] ^= 1 },
		"path cut": func(p *StateProof, _ *cryptoutil.Digest, _ *StateKey) { p.Path = p.Path[1:] },
	} {
		if tampered(edit) {
			t.Errorf("the proof still verifies after a change to the %s", name)
		}
	}
}
