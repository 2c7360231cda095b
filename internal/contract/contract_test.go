package contract

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/vm"
)

func key(t testing.TB, seed string) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.DeriveKeyPair(seed)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func tx(t testing.TB, kp *cryptoutil.KeyPair, typ ledger.TxType, method string, args any) *ledger.Transaction {
	t.Helper()
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	transaction := &ledger.Transaction{
		Type:      typ,
		Method:    method,
		Args:      raw,
		Timestamp: 1,
	}
	if err := transaction.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return transaction
}

func apply(t testing.TB, s *State, transaction *ledger.Transaction) *Receipt {
	t.Helper()
	r, err := s.Apply(transaction, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustOK(t testing.TB, r *Receipt) *Receipt {
	t.Helper()
	if !r.OK() {
		t.Fatalf("receipt failed: %s", r.Err)
	}
	return r
}

func registerDataset(t testing.TB, s *State, owner *cryptoutil.KeyPair, id, site string) {
	t.Helper()
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{
		ID: id, Digest: cryptoutil.Sum([]byte(id)), Schema: "cdf/v1", Records: 100, SiteID: site,
	})))
}

func TestRegisterDataset(t *testing.T) {
	s := NewState()
	owner := key(t, "hospital-A")
	registerDataset(t, s, owner, "hospA/emr", "site-A")

	ds, ok := s.Dataset("hospA/emr")
	if !ok {
		t.Fatal("dataset not stored")
	}
	if ds.Owner != owner.Address() || ds.SiteID != "site-A" {
		t.Fatalf("dataset fields wrong: %+v", ds)
	}
	pol, ok := s.PolicyOf("data:hospA/emr")
	if !ok || pol.Owner != owner.Address() {
		t.Fatal("policy not created with owner")
	}
	if got := s.Datasets(); len(got) != 1 || got[0] != "hospA/emr" {
		t.Fatalf("Datasets() = %v", got)
	}
}

func TestRegisterDatasetDuplicate(t *testing.T) {
	s := NewState()
	owner := key(t, "h")
	registerDataset(t, s, owner, "d1", "s1")
	r := apply(t, s, tx(t, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{ID: "d1"}))
	if r.OK() {
		t.Fatal("duplicate dataset accepted")
	}
}

func TestRegisterDatasetEmptyID(t *testing.T) {
	s := NewState()
	r := apply(t, s, tx(t, key(t, "h"), ledger.TxData, "register_dataset", RegisterDatasetArgs{}))
	if r.OK() {
		t.Fatal("empty dataset id accepted")
	}
}

func TestOwnerAlwaysAllowed(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	registerDataset(t, s, owner, "d", "s")
	r := mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionRead,
	})))
	if len(r.Events) != 1 || r.Events[0].Topic != "AccessAuthorized" {
		t.Fatalf("events: %+v", r.Events)
	}
}

func TestAccessDeniedWithoutGrant(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	stranger := key(t, "stranger")
	registerDataset(t, s, owner, "d", "s")
	r := apply(t, s, tx(t, stranger, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionRead,
	}))
	if r.OK() {
		t.Fatal("stranger access allowed")
	}
	// A denial must still leave an audit event (paper §III.B:
	// transparent, auditable sharing).
	if len(r.Events) != 1 || r.Events[0].Topic != "AccessDenied" {
		t.Fatalf("denial not audited: %+v", r.Events)
	}
}

func TestGrantThenAccess(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "researcher")
	registerDataset(t, s, owner, "d", "site-9")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: researcher.Address(),
		Actions: []Action{ActionRead}, Purpose: "research",
	})))
	r := mustOK(t, apply(t, s, tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionRead, Purpose: "research",
	})))
	var auth struct {
		SiteID string `json:"site_id"`
	}
	if err := json.Unmarshal(r.Events[0].Data, &auth); err != nil {
		t.Fatal(err)
	}
	if auth.SiteID != "site-9" {
		t.Fatalf("authorization missing site routing: %+v", auth)
	}
}

func TestGrantWrongPurposeDenied(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "researcher")
	registerDataset(t, s, owner, "d", "s")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: researcher.Address(),
		Actions: []Action{ActionRead}, Purpose: "trial:NCT-1",
	})))
	r := apply(t, s, tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionRead, Purpose: "marketing",
	}))
	if r.OK() {
		t.Fatal("wrong purpose allowed")
	}
}

func TestGrantWrongActionDenied(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "r")
	registerDataset(t, s, owner, "d", "s")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: researcher.Address(), Actions: []Action{ActionRead},
	})))
	r := apply(t, s, tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionShare,
	}))
	if r.OK() {
		t.Fatal("ungrated action allowed")
	}
}

func TestGrantExpiry(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "r")
	registerDataset(t, s, owner, "d", "s")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: researcher.Address(),
		Actions: []Action{ActionRead}, ExpiresAt: 500, // before now=1000
	})))
	r := apply(t, s, tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionRead,
	}))
	if r.OK() {
		t.Fatal("expired grant honored")
	}
}

func TestGrantMaxUses(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "r")
	registerDataset(t, s, owner, "d", "s")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: researcher.Address(),
		Actions: []Action{ActionRead}, MaxUses: 2,
	})))
	req := func() *Receipt {
		return apply(t, s, tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
			Resource: "data:d", Action: ActionRead,
		}))
	}
	mustOK(t, req())
	mustOK(t, req())
	if r := req(); r.OK() {
		t.Fatal("use budget exceeded but access allowed")
	}
}

func TestRevoke(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	researcher := key(t, "r")
	registerDataset(t, s, owner, "d", "s")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: researcher.Address(), Actions: []Action{ActionRead},
	})))
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "revoke", RevokeArgs{
		Resource: "data:d", Grantee: researcher.Address(),
	})))
	r := apply(t, s, tx(t, researcher, ledger.TxData, "request_access", RequestAccessArgs{
		Resource: "data:d", Action: ActionRead,
	}))
	if r.OK() {
		t.Fatal("revoked grant honored")
	}
}

func TestOnlyAdminGrants(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	mallory := key(t, "mallory")
	registerDataset(t, s, owner, "d", "s")
	r := apply(t, s, tx(t, mallory, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: mallory.Address(), Actions: []Action{ActionRead},
	}))
	if r.OK() {
		t.Fatal("non-admin granted access to themself")
	}
	// Delegated admin works.
	deputy := key(t, "deputy")
	mustOK(t, apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: deputy.Address(), Actions: []Action{ActionAdmin},
	})))
	mustOK(t, apply(t, s, tx(t, deputy, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: mallory.Address(), Actions: []Action{ActionRead},
	})))
}

func TestGrantUnknownResourceOrAction(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	r := apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:ghost", Grantee: owner.Address(), Actions: []Action{ActionRead},
	}))
	if r.OK() {
		t.Fatal("grant on unknown resource accepted")
	}
	registerDataset(t, s, owner, "d", "s")
	r = apply(t, s, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d", Grantee: owner.Address(), Actions: []Action{"fly"},
	}))
	if r.OK() {
		t.Fatal("bogus action accepted")
	}
}

func TestUnknownMethodAndBadArgs(t *testing.T) {
	s := NewState()
	owner := key(t, "o")
	r := apply(t, s, tx(t, owner, ledger.TxData, "frobnicate", map[string]string{}))
	if r.OK() {
		t.Fatal("unknown method accepted")
	}
	bad := &ledger.Transaction{Type: ledger.TxData, Method: "register_dataset", Args: []byte("{"), Timestamp: 1}
	if err := bad.Sign(owner); err != nil {
		t.Fatal(err)
	}
	r = apply(t, s, bad)
	if r.OK() {
		t.Fatal("malformed args accepted")
	}
	if _, err := s.Apply(nil, 1, 1); err == nil {
		t.Fatal("nil tx accepted")
	}
}

func TestAnalyticsToolAndRun(t *testing.T) {
	s := NewState()
	hospital := key(t, "hospital")
	vendor := key(t, "vendor")
	researcher := key(t, "researcher")
	registerDataset(t, s, hospital, "hospA/emr", "site-A")
	mustOK(t, apply(t, s, tx(t, vendor, ledger.TxAnalytics, "register_tool", RegisterToolArgs{
		ID: "km@1", Digest: cryptoutil.Sum([]byte("code")), Description: "Kaplan-Meier",
	})))
	// Researcher needs execute on both dataset and tool.
	mustOK(t, apply(t, s, tx(t, hospital, ledger.TxData, "grant", GrantArgs{
		Resource: "data:hospA/emr", Grantee: researcher.Address(), Actions: []Action{ActionExecute},
	})))
	r := apply(t, s, tx(t, researcher, ledger.TxAnalytics, "request_run", RequestRunArgs{
		Tool: "km@1", Dataset: "hospA/emr",
	}))
	if r.OK() {
		t.Fatal("run allowed without tool grant")
	}
	mustOK(t, apply(t, s, tx(t, vendor, ledger.TxAnalytics, "grant", GrantArgs{
		Resource: "tool:km@1", Grantee: researcher.Address(), Actions: []Action{ActionExecute},
	})))
	r = mustOK(t, apply(t, s, tx(t, researcher, ledger.TxAnalytics, "request_run", RequestRunArgs{
		Tool: "km@1", Dataset: "hospA/emr", Params: json.RawMessage(`{"bins":10}`),
	})))
	if len(r.Events) != 1 || r.Events[0].Topic != "RunAuthorized" {
		t.Fatalf("events: %+v", r.Events)
	}
	var auth RunAuthorization
	if err := json.Unmarshal(r.Events[0].Data, &auth); err != nil {
		t.Fatal(err)
	}
	if auth.SiteID != "site-A" || auth.Tool != "km@1" || auth.DataDigest != cryptoutil.Sum([]byte("hospA/emr")) {
		t.Fatalf("authorization payload wrong: %+v", auth)
	}
	if auth.RequestID == 0 {
		t.Fatal("request id not assigned")
	}
}

func TestAnalyticsUnknownToolOrDataset(t *testing.T) {
	s := NewState()
	r1 := apply(t, s, tx(t, key(t, "x"), ledger.TxAnalytics, "request_run", RequestRunArgs{Tool: "ghost", Dataset: "d"}))
	if r1.OK() {
		t.Fatal("unknown tool accepted")
	}
	vendor := key(t, "vendor")
	mustOK(t, apply(t, s, tx(t, vendor, ledger.TxAnalytics, "register_tool", RegisterToolArgs{ID: "t1"})))
	r2 := apply(t, s, tx(t, vendor, ledger.TxAnalytics, "request_run", RequestRunArgs{Tool: "t1", Dataset: "ghost"}))
	if r2.OK() {
		t.Fatal("unknown dataset accepted")
	}
	if ids := s.Tools(); len(ids) != 1 || ids[0] != "t1" {
		t.Fatalf("Tools() = %v", ids)
	}
	r3 := apply(t, s, tx(t, vendor, ledger.TxAnalytics, "register_tool", RegisterToolArgs{ID: "t1"}))
	if r3.OK() {
		t.Fatal("duplicate tool accepted")
	}
}

func TestTrialLifecycle(t *testing.T) {
	s := NewState()
	sponsor := key(t, "pharma")
	site := key(t, "site")
	mustOK(t, apply(t, s, tx(t, sponsor, ledger.TxTrial, "register_trial", RegisterTrialArgs{
		ID: "NCT-0042", ProtocolDigest: cryptoutil.Sum([]byte("protocol")),
		PrimaryOutcomes: []string{"mortality", "hba1c"},
	})))
	mustOK(t, apply(t, s, tx(t, site, ledger.TxTrial, "enroll", EnrollArgs{
		Trial: "NCT-0042", Patient: "P-001", Site: "site-A",
	})))
	// Duplicate enrollment rejected.
	if r := apply(t, s, tx(t, site, ledger.TxTrial, "enroll", EnrollArgs{
		Trial: "NCT-0042", Patient: "P-001", Site: "site-B",
	})); r.OK() {
		t.Fatal("duplicate enrollment accepted")
	}
	mustOK(t, apply(t, s, tx(t, sponsor, ledger.TxTrial, "report_outcomes", ReportOutcomesArgs{
		Trial: "NCT-0042", Outcomes: []string{"mortality", "hba1c"},
		ResultsDigest: cryptoutil.Sum([]byte("results")),
	})))
	mustOK(t, apply(t, s, tx(t, site, ledger.TxTrial, "adverse_event", AdverseEventArgs{
		Trial: "NCT-0042", Patient: "P-001", Description: "headache", Severity: 2, Site: "site-A",
	})))

	tr, ok := s.Trial("NCT-0042")
	if !ok {
		t.Fatal("trial missing")
	}
	if len(tr.Enrollments) != 1 || len(tr.Reports) != 1 || len(tr.AdverseEvents) != 1 {
		t.Fatalf("trial record incomplete: %+v", tr)
	}
	if got := s.Trials(); len(got) != 1 {
		t.Fatalf("Trials() = %v", got)
	}
}

func TestTrialOnlySponsorReports(t *testing.T) {
	s := NewState()
	sponsor := key(t, "pharma")
	intruder := key(t, "intruder")
	mustOK(t, apply(t, s, tx(t, sponsor, ledger.TxTrial, "register_trial", RegisterTrialArgs{
		ID: "T", ProtocolDigest: cryptoutil.Sum(nil), PrimaryOutcomes: []string{"o1"},
	})))
	r := apply(t, s, tx(t, intruder, ledger.TxTrial, "report_outcomes", ReportOutcomesArgs{
		Trial: "T", Outcomes: []string{"o1"},
	}))
	if r.OK() {
		t.Fatal("non-sponsor reported outcomes")
	}
}

func TestTrialValidation(t *testing.T) {
	s := NewState()
	sponsor := key(t, "p")
	// No pre-registered outcomes.
	if r := apply(t, s, tx(t, sponsor, ledger.TxTrial, "register_trial", RegisterTrialArgs{ID: "T"})); r.OK() {
		t.Fatal("trial without outcomes accepted")
	}
	mustOK(t, apply(t, s, tx(t, sponsor, ledger.TxTrial, "register_trial", RegisterTrialArgs{
		ID: "T", PrimaryOutcomes: []string{"o"},
	})))
	if r := apply(t, s, tx(t, sponsor, ledger.TxTrial, "register_trial", RegisterTrialArgs{
		ID: "T", PrimaryOutcomes: []string{"o"},
	})); r.OK() {
		t.Fatal("duplicate trial accepted")
	}
	if r := apply(t, s, tx(t, sponsor, ledger.TxTrial, "enroll", EnrollArgs{Trial: "ghost", Patient: "p"})); r.OK() {
		t.Fatal("enroll in unknown trial accepted")
	}
	if r := apply(t, s, tx(t, sponsor, ledger.TxTrial, "adverse_event", AdverseEventArgs{
		Trial: "T", Patient: "p", Severity: 9,
	})); r.OK() {
		t.Fatal("severity 9 accepted")
	}
}

func TestAnchor(t *testing.T) {
	s := NewState()
	kp := key(t, "anchorer")
	mustOK(t, apply(t, s, tx(t, kp, ledger.TxAnchor, "anchor", AnchorArgs{
		Label: "raw-data/2017", Digest: cryptoutil.Sum([]byte("raw")),
	})))
	a, ok := s.AnchorOf("raw-data/2017")
	if !ok || a.Digest != cryptoutil.Sum([]byte("raw")) {
		t.Fatal("anchor not stored")
	}
	// Anchors are immutable: re-anchoring the same label fails, so the
	// original timestamped digest cannot be silently replaced.
	if r := apply(t, s, tx(t, kp, ledger.TxAnchor, "anchor", AnchorArgs{
		Label: "raw-data/2017", Digest: cryptoutil.Sum([]byte("tampered")),
	})); r.OK() {
		t.Fatal("anchor overwrite accepted")
	}
	if r := apply(t, s, tx(t, kp, ledger.TxAnchor, "anchor", AnchorArgs{})); r.OK() {
		t.Fatal("empty anchor label accepted")
	}
}

func deployTx(t testing.TB, kp *cryptoutil.KeyPair, nonce uint64, name, src string) *ledger.Transaction {
	t.Helper()
	code := vm.MustAssemble(src)
	transaction := &ledger.Transaction{
		Type:   ledger.TxDeploy,
		Nonce:  nonce,
		Method: "deploy",
		Args: mustJSON(t, DeployArgs{
			Name: name, Code: base64.StdEncoding.EncodeToString(code),
		}),
		Timestamp: 1,
	}
	if err := transaction.Sign(kp); err != nil {
		t.Fatal(err)
	}
	return transaction
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

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

func TestDeployAndInvoke(t *testing.T) {
	s := NewState()
	dev := key(t, "developer")
	dtx := deployTx(t, dev, 0, "counter", counterSrc)
	r := mustOK(t, apply(t, s, dtx))
	if len(r.Events) != 1 || r.Events[0].Topic != "Deployed" {
		t.Fatalf("deploy events: %+v", r.Events)
	}
	addr := DeployedAddress(dev.Address(), 0)
	if _, ok := s.DeployedAt(addr); !ok {
		t.Fatal("deployed contract missing")
	}

	invoke := func(nonce uint64) *Receipt {
		itx := &ledger.Transaction{
			Type: ledger.TxInvoke, Nonce: nonce, Contract: addr,
			Method: "bump", Timestamp: 1,
		}
		if err := itx.Sign(dev); err != nil {
			t.Fatal(err)
		}
		return apply(t, s, itx)
	}
	mustOK(t, invoke(1))
	mustOK(t, invoke(2))
	r3 := mustOK(t, invoke(3))
	if r3.GasUsed == 0 {
		t.Fatal("invoke consumed no gas")
	}
	if len(r3.Events) != 1 || r3.Events[0].Topic != "Counted" {
		t.Fatalf("invoke events: %+v", r3.Events)
	}
	v, ok := s.StorageValue(addr, []byte("count"))
	if !ok || len(v) != 8 {
		t.Fatalf("count missing: %v", v)
	}
	var n int64
	for _, b := range v {
		n = n<<8 | int64(b)
	}
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
}

func TestInvokeUnknownContract(t *testing.T) {
	s := NewState()
	kp := key(t, "x")
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Contract: cryptoutil.NamedAddress("ghost"), Timestamp: 1}
	if err := itx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if r := apply(t, s, itx); r.OK() {
		t.Fatal("invoke of unknown contract accepted")
	}
}

func TestInvokeFailureRollsBackStorage(t *testing.T) {
	s := NewState()
	dev := key(t, "dev")
	// Program stores then reverts: the store must not persist.
	src := `
		PUSHB "k"
		PUSHB "v"
		SSTORE
		PUSHB "boom"
		REVERT
	`
	mustOK(t, apply(t, s, deployTx(t, dev, 0, "reverter", src)))
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	r := apply(t, s, itx)
	if r.OK() {
		t.Fatal("reverting invoke reported success")
	}
	if !strings.Contains(r.Err, "boom") {
		t.Fatalf("revert reason lost: %q", r.Err)
	}
	if _, ok := s.StorageValue(addr, []byte("k")); ok {
		t.Fatal("failed invoke left storage writes")
	}
}

func TestInvokeSeesMethodAndInput(t *testing.T) {
	s := NewState()
	dev := key(t, "dev")
	src := `
		PUSHB "__method"
		SLOAD
		PUSHB "__input"
		SLOAD
		CONCAT
		PUSHB "out"
		SWAP
		SSTORE
		HALT
	`
	mustOK(t, apply(t, s, deployTx(t, dev, 0, "echo", src)))
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{
		Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Method: "run",
		Args: mustJSON(t, InvokeArgs{Input: []byte("-X")}), Timestamp: 1,
	}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, s, itx))
	v, _ := s.StorageValue(addr, []byte("out"))
	if string(v) != "run-X" {
		t.Fatalf("contract saw %q, want %q", v, "run-X")
	}
}

func TestDeployBadCode(t *testing.T) {
	s := NewState()
	dev := key(t, "dev")
	bad := &ledger.Transaction{
		Type: ledger.TxDeploy, Method: "deploy",
		Args:      mustJSON(t, DeployArgs{Name: "x", Code: "!!!not-base64!!!"}),
		Timestamp: 1,
	}
	if err := bad.Sign(dev); err != nil {
		t.Fatal(err)
	}
	if r := apply(t, s, bad); r.OK() {
		t.Fatal("non-base64 code accepted")
	}
	empty := &ledger.Transaction{
		Type: ledger.TxDeploy, Method: "deploy",
		Args:      mustJSON(t, DeployArgs{Name: "x", Code: ""}),
		Timestamp: 1,
	}
	if err := empty.Sign(dev); err != nil {
		t.Fatal(err)
	}
	if r := apply(t, s, empty); r.OK() {
		t.Fatal("empty code accepted")
	}
}

func TestStateRootDeterministicAndSensitive(t *testing.T) {
	build := func() *State {
		s := NewState()
		owner := key(t, "owner")
		registerDataset(t, s, owner, "d1", "s1")
		registerDataset(t, s, owner, "d2", "s2")
		mustOK(t, apply(t, s, tx(t, owner, ledger.TxAnalytics, "register_tool", RegisterToolArgs{ID: "t"})))
		mustOK(t, apply(t, s, tx(t, owner, ledger.TxTrial, "register_trial", RegisterTrialArgs{
			ID: "T", PrimaryOutcomes: []string{"o"},
		})))
		return s
	}
	a, b := build(), build()
	if a.Root() != b.Root() {
		t.Fatal("same history, different roots")
	}
	owner := key(t, "owner")
	mustOK(t, apply(t, b, tx(t, owner, ledger.TxData, "grant", GrantArgs{
		Resource: "data:d1", Grantee: key(t, "g").Address(), Actions: []Action{ActionRead},
	})))
	if a.Root() == b.Root() {
		t.Fatal("state change did not move root")
	}
}

func TestStateRootReflectsVMStorage(t *testing.T) {
	s1, s2 := NewState(), NewState()
	dev := key(t, "dev")
	for _, s := range []*State{s1, s2} {
		mustOK(t, apply(t, s, deployTx(t, dev, 0, "counter", counterSrc)))
	}
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, s1, itx))
	if s1.Root() == s2.Root() {
		t.Fatal("VM storage change invisible in root")
	}
}

func TestGasAccountedForNativeMethods(t *testing.T) {
	s := NewState()
	owner := key(t, "o")
	r := apply(t, s, tx(t, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{
		ID: "d", SiteID: "s",
	}))
	if r.GasUsed == 0 {
		t.Fatal("native method consumed no gas")
	}
}

func TestPolicyCheckDirect(t *testing.T) {
	owner := cryptoutil.NamedAddress("own")
	grantee := cryptoutil.NamedAddress("grt")
	p := &Policy{Owner: owner, Grants: []Grant{{
		Grantee: grantee, Actions: []Action{ActionRead, ActionExecute},
	}}}
	if d := p.Check(owner, ActionAdmin, "", 0, false); !d.Allowed {
		t.Fatal("owner denied admin")
	}
	if d := p.Check(grantee, ActionRead, "any-purpose", 0, false); !d.Allowed {
		t.Fatal("grantee denied read (purposeless grant must match any purpose)")
	}
	if d := p.Check(grantee, ActionAdmin, "", 0, false); d.Allowed {
		t.Fatal("grantee allowed admin")
	}
	if d := p.Check(cryptoutil.NamedAddress("other"), ActionRead, "", 0, false); d.Allowed {
		t.Fatal("stranger allowed")
	}
}

func TestValidAction(t *testing.T) {
	for _, a := range []Action{ActionRead, ActionExecute, ActionShare, ActionAdmin} {
		if !ValidAction(a) {
			t.Fatalf("%s invalid", a)
		}
	}
	if ValidAction("teleport") {
		t.Fatal("bogus action valid")
	}
}

// TestHostFunctionsReachVM: every State, with nothing installed,
// answers the registry.* HOST calls from its own tables, and a name
// outside that namespace fails the invocation with vm.ErrNoHost.
func TestHostFunctionsReachVM(t *testing.T) {
	s := NewState()
	owner := key(t, "owner")
	registerDataset(t, s, owner, "d1", "site-1")
	dev := key(t, "dev")
	src := `
		PUSHB "registry.dataset_info"
		PUSHB "d1"
		HOST
		PUSHB "res"
		SWAP
		SSTORE
		HALT
	`
	mustOK(t, apply(t, s, deployTx(t, dev, 0, "registry-user", src)))
	addr := DeployedAddress(dev.Address(), 0)
	itx := &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 1, Contract: addr, Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	mustOK(t, apply(t, s, itx))
	v, _ := s.StorageValue(addr, []byte("res"))
	var ds Dataset
	if err := json.Unmarshal(v, &ds); err != nil || ds.ID != "d1" || ds.SiteID != "site-1" {
		t.Fatalf("host result %q (%v)", v, err)
	}

	other := `
		PUSHB "oracle.fetch"
		PUSHB "q1"
		HOST
		HALT
	`
	mustOK(t, apply(t, s, deployTx(t, dev, 2, "oracle-user", other)))
	itx = &ledger.Transaction{Type: ledger.TxInvoke, Nonce: 3, Contract: DeployedAddress(dev.Address(), 2), Timestamp: 1}
	if err := itx.Sign(dev); err != nil {
		t.Fatal(err)
	}
	r := apply(t, s, itx)
	if r.OK() || !strings.Contains(r.Err, vm.ErrNoHost.Error()) {
		t.Fatalf("a HOST name outside registry.* gave receipt %+v, want %v", r, vm.ErrNoHost)
	}
}

func BenchmarkApplyRegisterDataset(b *testing.B) {
	s := NewState()
	owner := key(b, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		transaction := tx(b, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{
			ID: fmt.Sprintf("d-%d", i), SiteID: "s",
		})
		r, err := s.Apply(transaction, 1, 1)
		if err != nil || !r.OK() {
			b.Fatalf("apply: %v %s", err, r.Err)
		}
	}
}

// BenchmarkStateRoot times the two costs of the root over ~12k keys:
// the build a never-rooted (imported, recovered) state pays once, and
// the re-hash after one transaction that every block pays.
func BenchmarkStateRoot(b *testing.B) {
	s := NewState()
	owner := key(b, "bench")
	registerDataset(b, s, owner, "hot", "s")
	for i := 0; i < 6000; i++ {
		id := fmt.Sprintf("d-%d", i)
		s.datasets[id] = &Dataset{ID: id, Owner: owner.Address(), SiteID: "s", Version: 1}
		s.policies[dataKey(id)] = &Policy{Owner: owner.Address()}
	}
	update := tx(b, owner, ledger.TxData, "update_dataset", RegisterDatasetArgs{ID: "hot", Records: 3})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.invalidateRoot()
			s.Root()
		}
	})
	b.Run("one-write", func(b *testing.B) {
		s.Root()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r, err := s.Apply(update, 1, 1); err != nil || !r.OK() {
				b.Fatal("apply failed")
			}
			s.Root()
		}
	})
	b.Run("clone", func(b *testing.B) {
		s.Root()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Clone()
		}
	})
}

// Property: replaying any randomly generated transaction sequence on
// two fresh states yields identical roots — the precondition for
// replicated execution agreeing across nodes.
func TestStateReplayDeterminismProperty(t *testing.T) {
	buildSequence := func(seed int64) []*ledger.Transaction {
		rng := rand.New(rand.NewSource(seed))
		owner := key(t, fmt.Sprintf("prop-owner-%d", seed))
		other := key(t, fmt.Sprintf("prop-other-%d", seed))
		var txs []*ledger.Transaction
		n := 5 + rng.Intn(10)
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				txs = append(txs, tx(t, owner, ledger.TxData, "register_dataset", RegisterDatasetArgs{
					ID: fmt.Sprintf("d-%d", rng.Intn(4)), SiteID: "s",
				}))
			case 1:
				txs = append(txs, tx(t, owner, ledger.TxData, "grant", GrantArgs{
					Resource: fmt.Sprintf("data:d-%d", rng.Intn(4)),
					Grantee:  other.Address(),
					Actions:  []Action{ActionRead},
					MaxUses:  rng.Intn(3),
				}))
			case 2:
				txs = append(txs, tx(t, other, ledger.TxData, "request_access", RequestAccessArgs{
					Resource: fmt.Sprintf("data:d-%d", rng.Intn(4)),
					Action:   ActionRead,
				}))
			case 3:
				txs = append(txs, tx(t, owner, ledger.TxTrial, "register_trial", RegisterTrialArgs{
					ID: fmt.Sprintf("T-%d", rng.Intn(3)), PrimaryOutcomes: []string{"o"},
				}))
			default:
				txs = append(txs, tx(t, owner, ledger.TxAnchor, "anchor", AnchorArgs{
					Label: fmt.Sprintf("a-%d", rng.Intn(3)),
				}))
			}
		}
		return txs
	}
	f := func(seed int64) bool {
		txs := buildSequence(seed)
		s1, s2 := NewState(), NewState()
		for i, transaction := range txs {
			r1, err1 := s1.Apply(transaction, uint64(i), int64(i))
			r2, err2 := s2.Apply(transaction, uint64(i), int64(i))
			if err1 != nil || err2 != nil {
				return false
			}
			// Same success/failure verdict per tx.
			if r1.OK() != r2.OK() || r1.GasUsed != r2.GasUsed {
				return false
			}
		}
		return s1.Root() == s2.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
