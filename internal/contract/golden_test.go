package contract

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"medchain/internal/consensus"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
)

// relayApply proves rec under a single-leaf root relayed onto dst at
// the record's source height, then applies it there at height.
func relayApply(t testing.TB, dst *State, coord, sender *cryptoutil.KeyPair, rec CrossRecord, height uint64) {
	t.Helper()
	tree := merkle.New([][]byte{rec.Leaf()})
	anchor(t, dst, coord, rec.SourceShard, rec.SourceHeight, tree.Root())
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	mustOK(t, applyAt(t, dst, tx(t, sender, ledger.TxCross, "apply", CrossApplyArgs{Record: rec, Proof: proof}), height))
}

// unsignedEvidenceArgs is evidenceArgs without the two ECDSA signatures
// (randomized, so they would make the golden bytes differ per run). The
// contract checks evidence structurally; auditors verify signatures.
func unsignedEvidenceArgs(t testing.TB, offender cryptoutil.Address, height uint64) ReportEvidenceArgs {
	t.Helper()
	ev := consensus.Evidence{
		Kind: consensus.EvidenceDoubleVote, Height: height, Offender: offender,
		FirstVote:  &consensus.Vote{Height: height, Block: cryptoutil.Sum([]byte("fork-a")), Voter: offender},
		SecondVote: &consensus.Vote{Height: height, Block: cryptoutil.Sum([]byte("fork-b")), Voter: offender},
	}
	enc, err := ev.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return ReportEvidenceArgs{Kind: string(ev.Kind), Height: height, Offender: offender, Evidence: enc}
}

// allKindsExport scripts one export with at least one object of every
// state kind. Everything except the coordination-chain tables is
// produced by Apply on member shard "shard-1"; a chain is either a
// member or the coordinator, so the shard directory, the routing epochs
// and a gateway-anchored root are scripted on a coordination state and
// grafted in through the export.
func allKindsExport(t testing.TB) *StateExport {
	t.Helper()
	coordKey, owner, peer := key(t, "gold-coord"), key(t, "gold-owner"), key(t, "gold-peer")
	m := initShard(t, "shard-1", coordKey.Address())
	other := initShard(t, "shard-0", coordKey.Address())

	// Data, analytics, policy and the request counter.
	registerDataset(t, m, owner, "gold/emr", "site-1")
	mustOK(t, apply(t, m, tx(t, owner, ledger.TxData, "update_dataset", RegisterDatasetArgs{
		ID: "gold/emr", Digest: cryptoutil.Sum([]byte("v2")), Records: 120,
	})))
	mustOK(t, apply(t, m, tx(t, owner, ledger.TxAnalytics, "register_tool", RegisterToolArgs{
		ID: "km@1", Digest: cryptoutil.Sum([]byte("km")), Description: "kaplan-meier",
	})))
	for _, res := range []string{"data:gold/emr", "tool:km@1"} {
		mustOK(t, apply(t, m, tx(t, owner, ledger.TxData, "grant", GrantArgs{
			Resource: res, Grantee: peer.Address(), Actions: []Action{ActionRead, ActionExecute},
			Purpose: "research", ExpiresAt: 5000, MaxUses: 4,
		})))
	}
	mustOK(t, apply(t, m, tx(t, peer, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:gold/emr", Action: ActionRead, Purpose: "research",
	})))
	mustOK(t, apply(t, m, tx(t, peer, ledger.TxAnalytics, "request_run", RequestRunArgs{
		Tool: "km@1", Dataset: "gold/emr", Purpose: "research",
	})))
	mustOK(t, anchorManifests(t, m, owner, "gold/emr", manifestEntries(3)))

	// Trial with every nested slice populated.
	mustOK(t, apply(t, m, tx(t, owner, ledger.TxTrial, "register_trial", RegisterTrialArgs{
		ID: "NCT-GOLD", ProtocolDigest: cryptoutil.Sum([]byte("protocol")),
		PrimaryOutcomes: []string{"mortality", "hba1c"},
	})))
	mustOK(t, apply(t, m, tx(t, peer, ledger.TxTrial, "enroll", EnrollArgs{Trial: "NCT-GOLD", Patient: "P-1", Site: "site-1"})))
	mustOK(t, apply(t, m, tx(t, owner, ledger.TxTrial, "report_outcomes", ReportOutcomesArgs{
		Trial: "NCT-GOLD", Outcomes: []string{"mortality"}, ResultsDigest: cryptoutil.Sum([]byte("results")),
	})))
	mustOK(t, apply(t, m, tx(t, peer, ledger.TxTrial, "adverse_event", AdverseEventArgs{
		Trial: "NCT-GOLD", Patient: "P-1", Description: "headache", Severity: 2, Site: "site-1",
	})))

	// Anchor, evidence, and a VM contract with storage.
	mustOK(t, apply(t, m, tx(t, owner, ledger.TxAnchor, "", AnchorArgs{Label: "gold/protocol", Digest: cryptoutil.Sum([]byte("doc"))})))
	mustOK(t, apply(t, m, tx(t, peer, ledger.TxAudit, "report_evidence", unsignedEvidenceArgs(t, key(t, "gold-offender").Address(), 7))))
	mustOK(t, apply(t, m, deployTx(t, owner, 0, "counter", counterSrc)))
	invoke := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: DeployedAddress(owner.Address(), 0), Timestamp: 1}
	if err := invoke.Sign(owner); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, m, invoke))

	// Outbound: a pending transfer (frozen dataset) and a settled consent.
	prepareTransfer(t, m, owner, "gold/out", "shard-0", 2, 100)
	consent, _ := json.Marshal(GrantArgs{Resource: "data:gold/remote", Grantee: peer.Address(), Actions: []Action{ActionShare}})
	mustOK(t, applyAt(t, m, tx(t, owner, ledger.TxCross, "prepare", CrossPrepareArgs{
		ID: "consent-1", Kind: CrossConsent, DestShard: "shard-0", DestExpiry: 100, Payload: consent,
	}), 3))
	res := CrossResolution{
		ID: "consent-1", SourceShard: "shard-1", DestShard: "shard-0", Kind: CrossConsent,
		Resource: "data:gold/remote", Reason: "contract: not found", DestHeight: 4,
	}
	resTree := merkle.New([][]byte{res.Leaf()})
	anchor(t, m, coordKey, "shard-0", 4, resTree.Root())
	resProof, _ := resTree.Prove(0)
	mustOK(t, applyAt(t, m, tx(t, coordKey, ledger.TxCross, "resolve", CrossResolveArgs{Resolution: res, Proof: resProof}), 5))

	// Inbound: a transferred dataset and two FL contributions.
	rec, _ := prepareTransfer(t, other, peer, "gold/in", "shard-1", 2, 100)
	relayApply(t, m, coordKey, peer, rec, 6)
	for i, shard := range []*State{other, initShard(t, "shard-2", coordKey.Address())} {
		fl, _ := json.Marshal(CrossFLPayload{Round: "round-1", Weights: []float64{0.25 * float64(i+1), -1.5}, Samples: 10 * (i + 1)})
		r := mustOK(t, applyAt(t, shard, tx(t, peer, ledger.TxCross, "prepare", CrossPrepareArgs{
			ID: "fl-1", Kind: CrossFLRound, DestShard: "shard-1", DestExpiry: 100, Payload: fl,
		}), 3))
		var flRec CrossRecord
		if err := json.Unmarshal(r.Events[0].Data, &flRec); err != nil {
			t.Fatal(err)
		}
		relayApply(t, m, coordKey, peer, flRec, 7)
	}

	// Coordination-chain tables: a committee directory entry with a
	// renewed lease, a committed epoch and a pending one.
	gw0, gw1 := key(t, "gold-gw0"), key(t, "gold-gw1")
	coord := initShard(t, CoordShardID, coordKey.Address())
	registerShard(t, coord, coordKey, "shard-0", gw0.Address(), []cryptoutil.Address{gw0.Address(), gw1.Address()}, 6)
	registerShard(t, coord, coordKey, "shard-1", gw1.Address(), nil, 0)
	mustOK(t, applyAt(t, coord, tx(t, gw0, ledger.TxCross, "anchor_root", AnchorRootArgs{
		Shard: "shard-0", Height: 9, Root: cryptoutil.Sum([]byte("root-9")),
	}), 4))
	for _, step := range []struct {
		method string
		args   any
	}{
		{"begin_epoch", BeginEpochArgs{Epoch: 1, Shards: []string{"shard-0", "shard-1"}}},
		{"commit_epoch", CommitEpochArgs{Epoch: 1}},
		{"begin_epoch", BeginEpochArgs{Epoch: 2, Shards: []string{"shard-1"}}},
	} {
		mustOK(t, apply(t, coord, tx(t, coordKey, ledger.TxCross, step.method, step.args)))
	}

	ex, cx := m.Export(), coord.Export()
	ex.ShardDir, ex.Routing = cx.ShardDir, cx.Routing
	ex.ShardRoots = append(ex.ShardRoots, cx.ShardRoots...)
	return ex
}

// Golden values of the all-kinds state. Root bytes are what every
// replica votes on and the export JSON is the on-disk snapshot format,
// so a change to either constant is a consensus or storage format
// break, not a refactor. goldenExportSum was recorded at commit d74dfbb
// (the last one with hand-wired per-kind Export) and has not changed
// since. goldenRoot was re-recorded when the flat whole-state hash
// ("v1", 1eaf4496…) gave way to the bucketed hash tree of root.go:
// it is the root under RootFormat "medchain/state-root/v2", and the
// storage engine refuses data directories written under another format.
const (
	goldenRoot      = "f38bffbdf8037593a03d6c62052a3aba5b1f737183a25aab2666183a74c4cf1e"
	goldenExportSum = "293a11b67c26e564a6c4350038a92b6b380ed04f98618b35b90c3841d40229fd"
)

func TestGoldenRootAndExport(t *testing.T) {
	ex := allKindsExport(t)
	for name, n := range map[string]int{
		"datasets": len(ex.Datasets), "tools": len(ex.Tools), "trials": len(ex.Trials),
		"anchors": len(ex.Anchors), "evidence": len(ex.Evidence), "policies": len(ex.Policies),
		"deployed": len(ex.Deployed), "vm_storage": len(ex.VMStorage), "manifest_sets": len(ex.ManifestSets),
		"shard_dir": len(ex.ShardDir), "shard_roots": len(ex.ShardRoots), "cross_out": len(ex.CrossOut),
		"cross_in": len(ex.CrossIn), "fl_rounds": len(ex.FLRounds), "request_seq": int(ex.RequestSeq),
	} {
		if n == 0 {
			t.Errorf("fixture vacuous: export has no %s", name)
		}
	}
	if ex.CrossConfig == nil || ex.Routing == nil || ex.Routing.Current == nil || ex.Routing.Pending == nil {
		t.Fatal("fixture vacuous: export lacks the cross config or a routing epoch")
	}
	s := ImportState(ex)
	if got := s.Root().String(); got != goldenRoot {
		t.Errorf("Root() = %s, want %s", got, goldenRoot)
	}
	body, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != goldenExportSum {
		t.Errorf("sha256(json(Export())) = %s, want %s", got, goldenExportSum)
	}
}
