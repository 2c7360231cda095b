// Package fixtures scripts the transactions the contract-method tests
// share: over four small states, one succeeding, one failing and one
// undecodable transaction for every native method, plus the cases that
// pin which check a method makes first (gas before the decode, the
// shard config before the decode, the contract lookup before the
// decode). TestGoldenReceipts holds their receipts to recorded bytes,
// TestEveryMethodWired requires one per method, and the parexec fuzzer
// seeds from them — which is why this is a package and not a test file.
// Transactions are unsigned: the state machine never checks signatures,
// and ECDSA's randomness would make recorded bytes differ per run.
package fixtures

import (
	"encoding/base64"
	"encoding/json"
	"testing"

	"medchain/internal/consensus"
	"medchain/internal/contract"
	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
	"medchain/internal/vm"
)

// Every case executes at this height and timestamp.
const (
	Height = 10
	Now    = 1000
)

// Variants every listed method has exactly one of.
const (
	OK          = "ok"
	Fail        = "fail"
	Undecodable = "undecodable"
)

// Case is one transaction over one base state.
type Case struct {
	// Name is "<type>/<method>/<variant>".
	Name string
	// Variant is OK, Fail, Undecodable, or a free-form label for an
	// extra case of the same method.
	Variant string
	// On is the state the case runs over; clone it first.
	On *contract.State
	Tx *ledger.Transaction
}

// Set is the scripted states and the cases over them.
type Set struct {
	// Empty has nothing; Member is shard "shard-1" with datasets, a
	// tool, a trial, an anchor, evidence, a VM contract, two pending
	// outbound transfers and two relayed shard-0 roots; Coord is the
	// coordination chain with two registered shards and one committed
	// epoch; CoordPending is Coord with epoch 2 begun.
	Empty, Member, Coord, CoordPending *contract.State
	Cases                              []Case
}

// counterSrc increments storage key "count" and emits "Counted".
const counterSrc = `
	PUSHB "count"
	SLOAD
	DUP
	LEN
	JZ init
	BTOI
	PUSHI 1
	ADD
	JMP store
init:
	POP
	PUSHI 1
store:
	ITOB
	PUSHB "count"
	SWAP
	SSTORE
	PUSHB "Counted"
	PUSHB "ok"
	EMIT
	HALT
`

type script struct {
	t     testing.TB
	nonce uint64
	set   *Set
}

// tx builds an unsigned transaction; nonces count up across the script
// so every transaction has its own ID and deploy address.
func (sc *script) tx(from cryptoutil.Address, typ ledger.TxType, method string, args any) *ledger.Transaction {
	sc.nonce++
	return &ledger.Transaction{Type: typ, From: from, Nonce: sc.nonce, Method: method, Args: raw(sc.t, args), Timestamp: 1}
}

// setup applies a transaction that must succeed.
func (sc *script) setup(s *contract.State, height uint64, tx *ledger.Transaction) *contract.Receipt {
	r, err := s.Apply(tx, height, Now)
	if err != nil || !r.OK() {
		sc.t.Fatalf("fixtures: setup %s/%s: %v %+v", tx.Type, tx.Method, err, r)
	}
	return r
}

func (sc *script) add(variant string, on *contract.State, tx *ledger.Transaction) {
	method := tx.Method
	if method == "" {
		method = "-"
	}
	sc.set.Cases = append(sc.set.Cases, Case{
		Name: string(tx.Type) + "/" + method + "/" + variant, Variant: variant, On: on, Tx: tx,
	})
}

// pair adds a method's succeeding and failing case.
func (sc *script) pair(on *contract.State, ok, fail *ledger.Transaction) {
	sc.add(OK, on, ok)
	sc.add(Fail, on, fail)
}

func raw(t testing.TB, v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("fixtures: %v", err)
	}
	return b
}

// proofs builds one tree over leaves and returns its root and the
// inclusion proof of every leaf.
func proofs(t testing.TB, leaves [][]byte) (cryptoutil.Digest, []*merkle.Proof) {
	tree := merkle.New(leaves)
	out := make([]*merkle.Proof, len(leaves))
	for i := range leaves {
		p, err := tree.Prove(i)
		if err != nil {
			t.Fatalf("fixtures: %v", err)
		}
		out[i] = p
	}
	return tree.Root(), out
}

// New scripts the set. Every call builds fresh states.
func New(t testing.TB) *Set {
	t.Helper()
	sc := &script{t: t, set: &Set{}}
	var (
		owner    = cryptoutil.NamedAddress("fx-owner")
		peer     = cryptoutil.NamedAddress("fx-peer")
		stranger = cryptoutil.NamedAddress("fx-stranger")
		coord    = cryptoutil.NamedAddress("fx-coord")
		gw0      = cryptoutil.NamedAddress("fx-gw0")
		gw1      = cryptoutil.NamedAddress("fx-gw1")
		digest   = cryptoutil.Sum([]byte("fx"))
		code     = base64.StdEncoding.EncodeToString(vm.MustAssemble(counterSrc))
	)
	dataset := func(id string) *ledger.Transaction {
		return sc.tx(owner, ledger.TxData, "register_dataset", contract.RegisterDatasetArgs{
			ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1", Records: 100, SiteID: "site-1",
		})
	}
	evidence := func(offender cryptoutil.Address, height uint64) contract.ReportEvidenceArgs {
		ev := consensus.Evidence{
			Kind: consensus.EvidenceDoubleVote, Height: height, Offender: offender,
			FirstVote:  &consensus.Vote{Height: height, Block: cryptoutil.Sum([]byte("fork-a")), Voter: offender},
			SecondVote: &consensus.Vote{Height: height, Block: cryptoutil.Sum([]byte("fork-b")), Voter: offender},
		}
		enc, err := ev.Encode()
		if err != nil {
			t.Fatalf("fixtures: %v", err)
		}
		return contract.ReportEvidenceArgs{Kind: string(ev.Kind), Height: height, Offender: offender, Evidence: enc}
	}

	// --- the member shard ---
	empty := contract.NewState()
	m := contract.NewState()
	initMember := sc.tx(owner, ledger.TxCross, "init", contract.InitCrossArgs{ShardID: "shard-1", Shards: 2, Coordinator: coord})
	sc.setup(m, 1, initMember)
	for _, id := range []string{"ds", "ds-out", "ds-moving"} {
		sc.setup(m, 1, dataset(id))
	}
	sc.setup(m, 1, sc.tx(owner, ledger.TxAnalytics, "register_tool", contract.RegisterToolArgs{ID: "tool", Digest: digest}))
	sc.setup(m, 1, sc.tx(owner, ledger.TxData, "grant", contract.GrantArgs{
		Resource: "data:ds", Grantee: peer, Actions: []contract.Action{contract.ActionRead, contract.ActionExecute},
	}))
	sc.setup(m, 1, sc.tx(owner, ledger.TxAnalytics, "grant", contract.GrantArgs{
		Resource: "tool:tool", Grantee: peer, Actions: []contract.Action{contract.ActionExecute},
	}))
	sc.setup(m, 1, sc.tx(owner, ledger.TxTrial, "register_trial", contract.RegisterTrialArgs{
		ID: "NCT-1", ProtocolDigest: digest, PrimaryOutcomes: []string{"mortality"},
	}))
	sc.setup(m, 1, sc.tx(peer, ledger.TxTrial, "enroll", contract.EnrollArgs{Trial: "NCT-1", Patient: "P-1", Site: "site-1"}))
	sc.setup(m, 1, sc.tx(owner, ledger.TxAnchor, "", contract.AnchorArgs{Label: "doc", Digest: digest}))
	sc.setup(m, 1, sc.tx(peer, ledger.TxAudit, "report_evidence", evidence(stranger, 7)))
	deploy := sc.tx(owner, ledger.TxDeploy, "deploy", contract.DeployArgs{Name: "counter", Code: code})
	sc.setup(m, 1, deploy)
	counter := contract.DeployedAddress(owner, deploy.Nonce)
	sc.setup(m, 3, sc.tx(owner, ledger.TxCross, "prepare", contract.CrossPrepareArgs{
		ID: "out-1", Kind: contract.CrossTransfer, DestShard: "shard-0", DestExpiry: 100,
		Payload: raw(t, contract.CrossTransferPayload{Dataset: "ds-moving"}),
	}))
	sc.setup(m, 3, sc.tx(owner, ledger.TxCross, "prepare", contract.CrossPrepareArgs{
		ID: "out-2", Kind: contract.CrossConsent, DestShard: "shard-0", DestExpiry: 100,
		Payload: raw(t, contract.GrantArgs{Resource: "data:remote", Grantee: peer, Actions: []contract.Action{contract.ActionShare}}),
	}))

	// Records prepared on shard-0 at its height 2, all under one root.
	inbound := func(id string, kind contract.CrossKind, from cryptoutil.Address, expiry uint64, payload json.RawMessage) contract.CrossRecord {
		return contract.CrossRecord{
			ID: id, Kind: kind, SourceShard: "shard-0", DestShard: "shard-1", From: from,
			SourceHeight: 2, DestExpiry: expiry, Payload: payload,
		}
	}
	consent := raw(t, contract.GrantArgs{Resource: "data:ds", Grantee: stranger, Actions: []contract.Action{contract.ActionRead}})
	recs := []contract.CrossRecord{
		inbound("in-consent", contract.CrossConsent, owner, 100, consent),
		inbound("in-refused", contract.CrossConsent, stranger, 100, consent),
		inbound("in-transfer", contract.CrossTransfer, peer, 100, raw(t, contract.CrossTransferPayload{
			Dataset: "ds-in", Digest: digest, Schema: "cdf/v1", Records: 9, SiteID: "site-0", Version: 3,
		})),
		inbound("in-fl", contract.CrossFLRound, peer, 100, raw(t, contract.CrossFLPayload{Round: "r1", Weights: []float64{0.5, -1}, Samples: 10})),
		inbound("in-expired", contract.CrossTransfer, peer, 5, raw(t, contract.CrossTransferPayload{Dataset: "ds-late"})),
		inbound("in-badpayload", contract.CrossTransfer, peer, 100, json.RawMessage(`{"dataset":7}`)),
		inbound("in-badpayload-expired", contract.CrossConsent, peer, 5, json.RawMessage(`7`)),
		inbound("in-unknownkind", "teleport", peer, 100, json.RawMessage(`{}`)),
	}
	leaves := make([][]byte, len(recs))
	for i := range recs {
		leaves[i] = recs[i].Leaf()
	}
	recRoot, recProofs := proofs(t, leaves)
	applyTx := func(method string, i int) *ledger.Transaction {
		return sc.tx(peer, ledger.TxCross, method, contract.CrossApplyArgs{Record: recs[i], Proof: recProofs[i]})
	}

	// Resolutions decided on shard-0 at its height 3, under one root.
	outcome := func(id string, kind contract.CrossKind, resource string, applied bool, reason string) contract.CrossResolution {
		return contract.CrossResolution{
			ID: id, SourceShard: "shard-1", DestShard: "shard-0", Kind: kind,
			Resource: resource, Applied: applied, Reason: reason, DestHeight: 3,
		}
	}
	ress := []contract.CrossResolution{
		outcome("out-1", contract.CrossTransfer, "ds-moving", true, ""),
		outcome("out-2", contract.CrossConsent, "data:remote", false, "expired"),
		outcome("out-1", contract.CrossTransfer, "ds", true, ""), // names a dataset the prepare did not
		outcome("out-9", contract.CrossTransfer, "ds-moving", true, ""),
	}
	leaves = make([][]byte, len(ress))
	for i := range ress {
		leaves[i] = ress[i].Leaf()
	}
	resRoot, resProofs := proofs(t, leaves)
	resolveTx := func(i int) *ledger.Transaction {
		return sc.tx(coord, ledger.TxCross, "resolve", contract.CrossResolveArgs{Resolution: ress[i], Proof: resProofs[i]})
	}
	sc.setup(m, 4, sc.tx(coord, ledger.TxCross, "anchor_root", contract.AnchorRootArgs{Shard: "shard-0", Height: 2, Root: recRoot}))
	sc.setup(m, 4, sc.tx(coord, ledger.TxCross, "anchor_root", contract.AnchorRootArgs{Shard: "shard-0", Height: 3, Root: resRoot}))

	// --- the coordination chain ---
	c := contract.NewState()
	sc.setup(c, 1, sc.tx(owner, ledger.TxCross, "init", contract.InitCrossArgs{ShardID: contract.CoordShardID, Shards: 2, Coordinator: coord}))
	sc.setup(c, 1, sc.tx(coord, ledger.TxCross, "register_shard", contract.RegisterShardArgs{
		ID: "shard-0", Gateway: gw0, Committee: []cryptoutil.Address{gw0, gw1}, LeaseBlocks: 2,
	}))
	sc.setup(c, 1, sc.tx(coord, ledger.TxCross, "register_shard", contract.RegisterShardArgs{ID: "shard-1", Gateway: gw1}))
	sc.setup(c, 2, sc.tx(coord, ledger.TxCross, "begin_epoch", contract.BeginEpochArgs{Epoch: 1, Shards: []string{"shard-0", "shard-1"}}))
	sc.setup(c, 2, sc.tx(coord, ledger.TxCross, "commit_epoch", contract.CommitEpochArgs{Epoch: 1}))
	begin2 := sc.tx(coord, ledger.TxCross, "begin_epoch", contract.BeginEpochArgs{Epoch: 2, Shards: []string{"shard-1"}})
	pending := c.Clone()
	sc.setup(pending, 3, begin2)
	sc.set.Empty, sc.set.Member, sc.set.Coord, sc.set.CoordPending = empty, m, c, pending

	// --- one succeeding and one failing case per method ---
	sc.pair(m, dataset("ds-new"), dataset("ds"))
	update := contract.RegisterDatasetArgs{ID: "ds", Digest: cryptoutil.Sum([]byte("v2")), Records: 120}
	sc.pair(m, sc.tx(owner, ledger.TxData, "update_dataset", update), sc.tx(peer, ledger.TxData, "update_dataset", update))
	grant := contract.GrantArgs{Resource: "data:ds", Grantee: stranger, Actions: []contract.Action{contract.ActionRead}, Purpose: "research", MaxUses: 2}
	sc.pair(m, sc.tx(owner, ledger.TxData, "grant", grant), sc.tx(peer, ledger.TxData, "grant", grant))
	sc.pair(m,
		sc.tx(owner, ledger.TxData, "revoke", contract.RevokeArgs{Resource: "data:ds", Grantee: peer}),
		sc.tx(owner, ledger.TxData, "revoke", contract.RevokeArgs{Resource: "data:nowhere", Grantee: peer}))
	entries := []contract.ManifestEntry{{Record: "P1", Root: cryptoutil.Sum([]byte("b1"))}, {Record: "P2", Root: cryptoutil.Sum([]byte("b2"))}}
	sc.pair(m,
		sc.tx(owner, ledger.TxData, "register_manifests", contract.RegisterManifestsArgs{
			Dataset: "ds", Format: "hl7", BatchRoot: contract.ManifestBatchRoot(entries), Entries: entries}),
		sc.tx(owner, ledger.TxData, "register_manifests", contract.RegisterManifestsArgs{
			Dataset: "ds", Format: "hl7", BatchRoot: digest, Entries: entries}))
	access := contract.RequestAccessArgs{Resource: "data:ds", Action: contract.ActionRead}
	sc.pair(m, sc.tx(peer, ledger.TxData, "request_access", access), sc.tx(stranger, ledger.TxData, "request_access", access))

	sc.pair(m,
		sc.tx(peer, ledger.TxAnalytics, "register_tool", contract.RegisterToolArgs{ID: "tool-new", Digest: digest, Description: "km"}),
		sc.tx(peer, ledger.TxAnalytics, "register_tool", contract.RegisterToolArgs{ID: "tool", Digest: digest}))
	toolGrant := contract.GrantArgs{Resource: "tool:tool", Grantee: stranger, Actions: []contract.Action{contract.ActionExecute}}
	sc.pair(m, sc.tx(owner, ledger.TxAnalytics, "grant", toolGrant), sc.tx(peer, ledger.TxAnalytics, "grant", toolGrant))
	sc.pair(m,
		sc.tx(owner, ledger.TxAnalytics, "revoke", contract.RevokeArgs{Resource: "tool:tool", Grantee: peer}),
		sc.tx(peer, ledger.TxAnalytics, "revoke", contract.RevokeArgs{Resource: "tool:tool", Grantee: peer}))
	run := contract.RequestRunArgs{Tool: "tool", Dataset: "ds", Params: json.RawMessage(`{"bins":4}`)}
	sc.pair(m, sc.tx(peer, ledger.TxAnalytics, "request_run", run), sc.tx(stranger, ledger.TxAnalytics, "request_run", run))

	sc.pair(m,
		sc.tx(owner, ledger.TxTrial, "register_trial", contract.RegisterTrialArgs{ID: "NCT-2", ProtocolDigest: digest, PrimaryOutcomes: []string{"hba1c"}}),
		sc.tx(owner, ledger.TxTrial, "register_trial", contract.RegisterTrialArgs{ID: "NCT-3", ProtocolDigest: digest}))
	sc.pair(m,
		sc.tx(peer, ledger.TxTrial, "enroll", contract.EnrollArgs{Trial: "NCT-1", Patient: "P-2", Site: "site-1"}),
		sc.tx(peer, ledger.TxTrial, "enroll", contract.EnrollArgs{Trial: "NCT-1", Patient: "P-1", Site: "site-1"}))
	report := contract.ReportOutcomesArgs{Trial: "NCT-1", Outcomes: []string{"mortality"}, ResultsDigest: digest}
	sc.pair(m, sc.tx(owner, ledger.TxTrial, "report_outcomes", report), sc.tx(peer, ledger.TxTrial, "report_outcomes", report))
	sc.pair(m,
		sc.tx(peer, ledger.TxTrial, "adverse_event", contract.AdverseEventArgs{Trial: "NCT-1", Patient: "P-1", Description: "headache", Severity: 2, Site: "site-1"}),
		sc.tx(peer, ledger.TxTrial, "adverse_event", contract.AdverseEventArgs{Trial: "NCT-1", Patient: "P-1", Description: "headache", Severity: 9, Site: "site-1"}))

	// Anchor and deploy transactions ignore their method name.
	sc.pair(m,
		sc.tx(owner, ledger.TxAnchor, "", contract.AnchorArgs{Label: "doc-2", Digest: digest}),
		sc.tx(owner, ledger.TxAnchor, "whatever", contract.AnchorArgs{Label: "doc", Digest: digest}))
	sc.pair(m,
		sc.tx(peer, ledger.TxAudit, "report_evidence", evidence(stranger, 8)),
		sc.tx(peer, ledger.TxAudit, "report_evidence", evidence(stranger, 7)))
	sc.pair(m,
		sc.tx(peer, ledger.TxDeploy, "", contract.DeployArgs{Name: "again", Code: code}),
		sc.tx(peer, ledger.TxDeploy, "deploy", contract.DeployArgs{Name: "bad", Code: "%%%"}))
	invoke := func(to cryptoutil.Address, args []byte) *ledger.Transaction {
		sc.nonce++
		return &ledger.Transaction{Type: ledger.TxInvoke, From: peer, Nonce: sc.nonce, Contract: to, Method: "bump", Args: args, Timestamp: 1}
	}
	sc.pair(m, invoke(counter, nil), invoke(cryptoutil.NamedAddress("fx-nowhere"), nil))
	sc.add("gas-limit", m, invoke(counter, raw(t, contract.InvokeArgs{GasLimit: 3})))

	sc.pair(empty, initMember, sc.tx(owner, ledger.TxCross, "init", contract.InitCrossArgs{Shards: 2, Coordinator: coord}))
	sc.add("twice", m, initMember)
	shard2 := contract.RegisterShardArgs{ID: "shard-2", Gateway: gw0}
	sc.pair(c,
		sc.tx(coord, ledger.TxCross, "register_shard", shard2),
		sc.tx(coord, ledger.TxCross, "register_shard", contract.RegisterShardArgs{ID: "shard-0", Gateway: gw0}))
	sc.add("on-member", m, sc.tx(coord, ledger.TxCross, "register_shard", shard2))
	lease := contract.AcquireLeaseArgs{Shard: "shard-0"}
	sc.pair(c, sc.tx(gw1, ledger.TxCross, "acquire_lease", lease), sc.tx(gw0, ledger.TxCross, "acquire_lease", lease))
	sc.pair(c, begin2, sc.tx(coord, ledger.TxCross, "begin_epoch", contract.BeginEpochArgs{Epoch: 5, Shards: []string{"shard-1"}}))
	sc.add("while-pending", pending, sc.tx(coord, ledger.TxCross, "begin_epoch", contract.BeginEpochArgs{Epoch: 3, Shards: []string{"shard-0"}}))
	sc.pair(pending,
		sc.tx(coord, ledger.TxCross, "commit_epoch", contract.CommitEpochArgs{Epoch: 2}),
		sc.tx(coord, ledger.TxCross, "commit_epoch", contract.CommitEpochArgs{Epoch: 3}))
	relayed := contract.AnchorRootArgs{Shard: "shard-0", Height: 77, Root: digest}
	sc.pair(m, sc.tx(coord, ledger.TxCross, "anchor_root", relayed), sc.tx(peer, ledger.TxCross, "anchor_root", relayed))
	sc.add("gateway", c, sc.tx(gw0, ledger.TxCross, "anchor_root", contract.AnchorRootArgs{Shard: "shard-0", Height: 9, Root: digest}))

	prepare := func(from cryptoutil.Address, id string, kind contract.CrossKind, payload json.RawMessage) *ledger.Transaction {
		return sc.tx(from, ledger.TxCross, "prepare", contract.CrossPrepareArgs{
			ID: id, Kind: kind, DestShard: "shard-0", DestExpiry: 100, Payload: payload,
		})
	}
	out := raw(t, contract.CrossTransferPayload{Dataset: "ds-out"})
	sc.pair(m, prepare(owner, "out-3", contract.CrossTransfer, out), prepare(peer, "out-3", contract.CrossTransfer, out))
	sc.add("consent", m, prepare(peer, "out-4", contract.CrossConsent, consent))
	sc.add("fl-round", m, prepare(peer, "out-5", contract.CrossFLRound, raw(t, contract.CrossFLPayload{Round: "r1", Weights: []float64{1}, Samples: 3})))
	sc.add("bad-payload", m, prepare(owner, "out-6", contract.CrossTransfer, json.RawMessage(`{"dataset":7}`)))
	sc.add("bad-payload-duplicate-id", m, prepare(owner, "out-1", contract.CrossTransfer, json.RawMessage(`{"dataset":7}`)))
	sc.add("unknown-kind", m, prepare(owner, "out-7", "teleport", json.RawMessage(`{}`)))

	forged := contract.CrossApplyArgs{Record: recs[0], Proof: recProofs[1]}
	sc.pair(m, applyTx("apply", 0), sc.tx(peer, ledger.TxCross, "apply", forged))
	sc.add("refused", m, applyTx("apply", 1))
	sc.add("transfer", m, applyTx("apply", 2))
	sc.add("fl-round", m, applyTx("apply", 3))
	sc.add("past-deadline", m, applyTx("apply", 4))
	sc.add("bad-payload", m, applyTx("apply", 5))
	sc.add("unknown-kind", m, applyTx("apply", 7))
	sc.pair(m, applyTx("expire", 4), applyTx("expire", 2))
	sc.add("bad-payload", m, applyTx("expire", 6))
	sc.pair(m, resolveTx(0), resolveTx(3))
	sc.add("abort", m, resolveTx(1))
	sc.add("other-resource", m, resolveTx(2))

	// Every first OK case again with arguments that do not decode: the
	// receipt charges the method's gas (deploy and invoke meter later
	// and charge none) and says ErrBadArgs.
	seen := map[string]bool{}
	for _, ok := range sc.set.Cases {
		key := string(ok.Tx.Type) + "/" + ok.Tx.Method
		if ok.Variant != OK || seen[key] {
			continue
		}
		seen[key] = true
		bad := *ok.Tx
		bad.Args = []byte(`{"`)
		sc.add(Undecodable, ok.On, &bad)
	}

	// What a method checks before it reports undecodable arguments.
	garbage := func(on *contract.State, label string, typ ledger.TxType, method string) {
		sc.nonce++
		sc.add(label, on, &ledger.Transaction{Type: typ, From: peer, Nonce: sc.nonce, Method: method, Args: []byte(`{"`), Timestamp: 1})
	}
	for _, method := range []string{"register_shard", "anchor_root", "prepare", "apply", "expire", "resolve"} {
		garbage(empty, "undecodable-no-config", ledger.TxCross, method)
	}
	garbage(c, "undecodable-on-coord", ledger.TxCross, "prepare")
	sc.add("undecodable-no-contract", m, invoke(cryptoutil.NamedAddress("fx-nowhere"), []byte(`{"`)))
	// A method the table does not list: cross, trial and audit charge
	// gas for it, data and analytics do not, and neither does a type
	// nobody handles.
	for _, typ := range []ledger.TxType{ledger.TxData, ledger.TxAnalytics, ledger.TxTrial, ledger.TxAudit, ledger.TxCross, "bogus"} {
		sc.add("unlisted", m, sc.tx(peer, typ, "no_such_method", struct{}{}))
		garbage(m, "unlisted-undecodable", typ, "no_such_method")
	}
	return sc.set
}
