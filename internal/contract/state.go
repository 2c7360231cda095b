package contract

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"maps"
	"sync"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/vm"
)

// Gas costs of native contract methods. They exist so experiment E2 can
// account the computation replicated across nodes in the same unit as
// VM execution.
const (
	gasRegister   = 200
	gasGrant      = 120
	gasRevoke     = 80
	gasRequest    = 100
	gasAnchor     = 150
	gasDeployBase = 500
	gasTrialOp    = 150
	gasArgByte    = 1
	// DefaultGasLimit bounds a single VM invocation executed through
	// the state machine.
	DefaultGasLimit = 5_000_000
)

// Receipt is the recorded outcome of applying one transaction.
type Receipt struct {
	// TxID identifies the transaction.
	TxID cryptoutil.Digest `json:"tx_id"`
	// Height is the block height the tx executed at.
	Height uint64 `json:"height"`
	// GasUsed is the metered cost of the execution on ONE node;
	// replicated execution multiplies this by the node count.
	GasUsed int64 `json:"gas_used"`
	// Events are the emitted events (kept on failure too — denials are
	// part of the audit trail).
	Events []vm.Event `json:"events,omitempty"`
	// Err is the failure message ("" on success).
	Err string `json:"err,omitempty"`
}

// OK reports whether the transaction succeeded.
func (r *Receipt) OK() bool { return r.Err == "" }

// Trial is the on-chain clinical-trial record (paper §III.B).
type Trial struct {
	// ID is the registry identifier, e.g. "NCT-0042".
	ID string `json:"id"`
	// Sponsor is the registering address; only it may report outcomes.
	Sponsor cryptoutil.Address `json:"sponsor"`
	// ProtocolDigest anchors the pre-registered protocol document.
	ProtocolDigest cryptoutil.Digest `json:"protocol_digest"`
	// PrimaryOutcomes are the pre-registered outcome measures; the
	// COMPare-style audit compares reports against these.
	PrimaryOutcomes []string `json:"primary_outcomes"`
	// Enrollments are recorded participants.
	Enrollments []Enrollment `json:"enrollments,omitempty"`
	// Reports are outcome reports in order.
	Reports []OutcomeReport `json:"reports,omitempty"`
	// AdverseEvents are RWE surveillance records.
	AdverseEvents []AdverseEventRecord `json:"adverse_events,omitempty"`
	// RegisteredAt is the chain timestamp.
	RegisteredAt int64 `json:"registered_at"`
}

// Enrollment records one participant joining a trial at a site.
type Enrollment struct {
	// Patient is a pseudonymous participant identifier.
	Patient string `json:"patient"`
	// Site names the enrolling site.
	Site string `json:"site"`
	// By is the enrolling address.
	By cryptoutil.Address `json:"by"`
	// At is the chain timestamp.
	At int64 `json:"at"`
}

// OutcomeReport is a reported set of outcome measures.
type OutcomeReport struct {
	// Outcomes are the outcome measures actually reported.
	Outcomes []string `json:"outcomes"`
	// ResultsDigest anchors the off-chain results data.
	ResultsDigest cryptoutil.Digest `json:"results_digest"`
	// By is the reporting address.
	By cryptoutil.Address `json:"by"`
	// At is the chain timestamp.
	At int64 `json:"at"`
}

// AdverseEventRecord is one safety signal from real-world monitoring.
type AdverseEventRecord struct {
	// Patient is the pseudonymous participant identifier.
	Patient string `json:"patient"`
	// Description summarizes the event.
	Description string `json:"description"`
	// Severity is 1 (mild) to 5 (fatal).
	Severity int `json:"severity"`
	// Site names the reporting site.
	Site string `json:"site"`
	// At is the chain timestamp.
	At int64 `json:"at"`
}

// State is the replicated contract state machine. Applying the same
// transaction sequence yields the same state (and state root) on every
// node. It is safe for concurrent use.
type State struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	tools    map[string]*Tool
	policies map[string]*Policy // keyed by resource ID ("data:<id>" / "tool:<id>")
	trials   map[string]*Trial
	anchors  map[string]*Anchor
	evidence map[string]*EvidenceRecord // keyed by kind/height/offender
	// manifestSets accumulate off-chain blob manifest anchors per
	// dataset (see manifest.go); the full entry lists ride events.
	manifestSets map[string]*ManifestSet
	deployed     map[cryptoutil.Address]*Deployed
	vmStorage    map[cryptoutil.Address]*vm.MemStorage
	// Cross-shard tables (see xshard.go): the chain's shard identity,
	// the coordination-chain routing table, anchored/relayed shard
	// roots, outbound prepares, inbound resolutions, and federated
	// learning round aggregations.
	crossCfg   *CrossShardConfig
	shardDir   map[string]*ShardInfo
	shardRoots map[string]*ShardRoot
	crossOut   map[string]*CrossPrepare
	crossIn    map[string]*CrossResolution
	flRounds   map[string]*FLRound
	// routing is the coordination chain's routing-epoch table (see
	// xshard.go begin_epoch / commit_epoch); nil until the first epoch.
	routing *RoutingTable
	// requestSeq numbers access/run requests for event correlation.
	requestSeq uint64
	// tree is the state root's hash tree and dirty the keys written
	// since it was last current (see root.go). Both are nil until the
	// first Root: a state that is never rooted — a speculative snapshot —
	// pays nothing for them.
	tree  *rootTree
	dirty map[StateKey]struct{}
}

// NewState creates an empty state machine.
func NewState() *State {
	s := &State{}
	for _, k := range kinds {
		k.alloc(s)
	}
	return s
}

// Clone deep-copies the state machine: the oracles' and experiments'
// way to run the same block twice from one pre-state. Nothing on a
// node's per-block path clones (a proposer previews on write snapshots,
// see Versions).
func (s *State) Clone() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.child()
	for _, k := range kinds {
		k.cloneInto(c, s)
	}
	if s.tree != nil {
		// The clone roots incrementally too: it takes the tree (bucket
		// slices are shared, see rootTree) and the pending marks.
		tree := *s.tree
		c.tree, c.dirty = &tree, maps.Clone(s.dirty)
	}
	return c
}

// child creates an empty state carrying the one thing of s that no
// StateKey addresses: the request sequence. Clone and
// Versions.SnapshotAt fill it per kind. The caller holds s.mu.
func (s *State) child() *State {
	c := NewState()
	c.requestSeq = s.requestSeq
	return c
}

// resource keys.
func dataKey(id string) string { return "data:" + id }
func toolKey(id string) string { return "tool:" + id }

// Apply executes one transaction at the given height/timestamp and
// returns its receipt: Prepare, then Run. The error return is non-nil
// only for arguments the caller should treat as a programming error
// (nil tx); domain failures are reported in the receipt.
func (s *State) Apply(tx *ledger.Transaction, height uint64, now int64) (*Receipt, error) {
	return s.Run(Prepare(tx), height, now)
}

func (s *State) emit(r *Receipt, self cryptoutil.Address, topic string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(fmt.Sprintf("%v", payload))
	}
	r.Events = append(r.Events, vm.Event{Contract: self, Topic: topic, Data: data})
}

// Native contract addresses (stable, derived from names).
var (
	// DataContractAddr is the native data contract.
	DataContractAddr = cryptoutil.NamedAddress("native/data")
	// AnalyticsContractAddr is the native analytics contract.
	AnalyticsContractAddr = cryptoutil.NamedAddress("native/analytics")
	// TrialContractAddr is the native clinical-trial contract.
	TrialContractAddr = cryptoutil.NamedAddress("native/trial")
	// AnchorContractAddr is the native anchoring contract.
	AnchorContractAddr = cryptoutil.NamedAddress("native/anchor")
)

// --- data contract ---

// RegisterDatasetArgs are the args of data/"register_dataset".
type RegisterDatasetArgs struct {
	ID      string            `json:"id"`
	Digest  cryptoutil.Digest `json:"digest"`
	Schema  string            `json:"schema"`
	Records int               `json:"records"`
	SiteID  string            `json:"site_id"`
}

// GrantArgs are the args of data/"grant" (and tool grants).
type GrantArgs struct {
	Resource  string             `json:"resource"` // "data:<id>" or "tool:<id>"
	Grantee   cryptoutil.Address `json:"grantee"`
	Actions   []Action           `json:"actions"`
	Purpose   string             `json:"purpose,omitempty"`
	ExpiresAt int64              `json:"expires_at,omitempty"`
	MaxUses   int                `json:"max_uses,omitempty"`
}

// RevokeArgs are the args of data/"revoke".
type RevokeArgs struct {
	Resource string             `json:"resource"`
	Grantee  cryptoutil.Address `json:"grantee"`
}

// RequestAccessArgs are the args of data/"request_access".
type RequestAccessArgs struct {
	Resource string `json:"resource"`
	Action   Action `json:"action"`
	Purpose  string `json:"purpose,omitempty"`
}

// AccessAuthorization is the payload of AccessAuthorized events; the
// monitor-node oracle (Fig. 3) fulfils these off-chain.
type AccessAuthorization struct {
	RequestID uint64             `json:"request_id"`
	Resource  string             `json:"resource"`
	Requester cryptoutil.Address `json:"requester"`
	Action    Action             `json:"action"`
	Purpose   string             `json:"purpose,omitempty"`
	SiteID    string             `json:"site_id,omitempty"`
}

func (s *State) registerDataset(x *env, a *RegisterDatasetArgs) error {
	if a.ID == "" {
		return fmt.Errorf("%w: empty dataset id", ErrBadArgs)
	}
	if _, dup := s.datasets[a.ID]; dup {
		return fmt.Errorf("%w: dataset %q", ErrExists, a.ID)
	}
	s.datasets[a.ID] = &Dataset{
		ID: a.ID, Owner: x.tx.From, Digest: a.Digest, Schema: a.Schema,
		Records: a.Records, SiteID: a.SiteID, RegisteredAt: x.now,
		Version: 1, UpdatedAt: x.now,
	}
	s.policies[dataKey(a.ID)] = &Policy{Owner: x.tx.From}
	s.emit(x.r, DataContractAddr, "DatasetRegistered", s.datasets[a.ID])
	return nil
}

// updateDataset re-anchors a dataset whose hosted records changed (live
// data: wearable feeds, new encounters) so integrity checks keep
// working. The old digest stays on chain in the tx history — updates
// are auditable, not silent.
func (s *State) updateDataset(x *env, a *RegisterDatasetArgs) error {
	ds, ok := s.datasets[a.ID]
	if !ok {
		return fmt.Errorf("%w: dataset %q", ErrNotFound, a.ID)
	}
	if x.tx.From != ds.Owner {
		return fmt.Errorf("%w: only the owner updates %q", ErrNotOwner, a.ID)
	}
	if ds.Frozen {
		return fmt.Errorf("%w: dataset %q is frozen by an in-flight cross-shard transfer", ErrDenied, a.ID)
	}
	if ds.MovedTo != "" {
		return fmt.Errorf("%w: dataset %q moved to shard %q", ErrDenied, a.ID, ds.MovedTo)
	}
	ds.Digest = a.Digest
	if a.Records > 0 {
		ds.Records = a.Records
	}
	ds.Version++
	ds.UpdatedAt = x.now
	s.emit(x.r, DataContractAddr, "DatasetUpdated", ds)
	return nil
}

// grant and revoke administer dataset and tool policies alike.
func (s *State) grant(x *env, a *GrantArgs) error {
	p, ok := s.policies[a.Resource]
	if !ok {
		return fmt.Errorf("%w: resource %q", ErrNotFound, a.Resource)
	}
	if d := p.Check(x.tx.From, ActionAdmin, "", x.now, false); !d.Allowed {
		s.emit(x.r, DataContractAddr, "GrantDenied", map[string]any{"resource": a.Resource, "by": x.tx.From})
		return fmt.Errorf("%w: %s cannot administer %q", ErrDenied, x.tx.From.Short(), a.Resource)
	}
	for _, act := range a.Actions {
		if !ValidAction(act) {
			return fmt.Errorf("%w: action %q", ErrBadArgs, act)
		}
	}
	p.Grants = append(p.Grants, Grant{
		Grantee: a.Grantee, Actions: a.Actions, Purpose: a.Purpose,
		ExpiresAt: a.ExpiresAt, MaxUses: a.MaxUses,
	})
	s.emit(x.r, DataContractAddr, "AccessGranted", a)
	return nil
}

func (s *State) revoke(x *env, a *RevokeArgs) error {
	p, ok := s.policies[a.Resource]
	if !ok {
		return fmt.Errorf("%w: resource %q", ErrNotFound, a.Resource)
	}
	if d := p.Check(x.tx.From, ActionAdmin, "", x.now, false); !d.Allowed {
		return fmt.Errorf("%w: %s cannot administer %q", ErrDenied, x.tx.From.Short(), a.Resource)
	}
	n := p.Revoke(a.Grantee)
	s.emit(x.r, DataContractAddr, "AccessRevoked", map[string]any{
		"resource": a.Resource, "grantee": a.Grantee, "removed": n,
	})
	return nil
}

func (s *State) requestAccess(x *env, a *RequestAccessArgs) error {
	p, ok := s.policies[a.Resource]
	if !ok {
		return fmt.Errorf("%w: resource %q", ErrNotFound, a.Resource)
	}
	dec := p.Check(x.tx.From, a.Action, a.Purpose, x.now, true)
	s.requestSeq++
	auth := AccessAuthorization{
		RequestID: s.requestSeq, Resource: a.Resource, Requester: x.tx.From,
		Action: a.Action, Purpose: a.Purpose,
	}
	if ds, ok := s.datasets[trimPrefix(a.Resource, "data:")]; ok {
		auth.SiteID = ds.SiteID
	}
	if !dec.Allowed {
		s.emit(x.r, DataContractAddr, "AccessDenied", map[string]any{
			"request": auth, "reason": dec.Reason,
		})
		return fmt.Errorf("%w: %s", ErrDenied, dec.Reason)
	}
	s.emit(x.r, DataContractAddr, "AccessAuthorized", auth)
	return nil
}

func trimPrefix(s, prefix string) string {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):]
	}
	return s
}

// --- analytics contract ---

// RegisterToolArgs are the args of analytics/"register_tool".
type RegisterToolArgs struct {
	ID          string            `json:"id"`
	Digest      cryptoutil.Digest `json:"digest"`
	Description string            `json:"description,omitempty"`
}

// RequestRunArgs are the args of analytics/"request_run".
type RequestRunArgs struct {
	Tool    string          `json:"tool"`
	Dataset string          `json:"dataset"`
	Params  json.RawMessage `json:"params,omitempty"`
	Purpose string          `json:"purpose,omitempty"`
}

// RunAuthorization is the payload of RunAuthorized events; the off-chain
// control code (Fig. 1) executes the tool at the data's site.
type RunAuthorization struct {
	RequestID  uint64             `json:"request_id"`
	Tool       string             `json:"tool"`
	ToolDigest cryptoutil.Digest  `json:"tool_digest"`
	Dataset    string             `json:"dataset"`
	DataDigest cryptoutil.Digest  `json:"data_digest"`
	SiteID     string             `json:"site_id"`
	Requester  cryptoutil.Address `json:"requester"`
	Params     json.RawMessage    `json:"params,omitempty"`
	Purpose    string             `json:"purpose,omitempty"`
}

func (s *State) registerTool(x *env, a *RegisterToolArgs) error {
	if a.ID == "" {
		return fmt.Errorf("%w: empty tool id", ErrBadArgs)
	}
	if _, dup := s.tools[a.ID]; dup {
		return fmt.Errorf("%w: tool %q", ErrExists, a.ID)
	}
	s.tools[a.ID] = &Tool{
		ID: a.ID, Owner: x.tx.From, Digest: a.Digest,
		Description: a.Description, RegisteredAt: x.now,
	}
	s.policies[toolKey(a.ID)] = &Policy{Owner: x.tx.From}
	s.emit(x.r, AnalyticsContractAddr, "ToolRegistered", s.tools[a.ID])
	return nil
}

func (s *State) requestRun(x *env, a *RequestRunArgs) error {
	tool, ok := s.tools[a.Tool]
	if !ok {
		return fmt.Errorf("%w: tool %q", ErrNotFound, a.Tool)
	}
	ds, ok := s.datasets[a.Dataset]
	if !ok {
		return fmt.Errorf("%w: dataset %q", ErrNotFound, a.Dataset)
	}
	// The requester needs execute rights on BOTH the data and the
	// tool (fine-grained policy of §III).
	dp := s.policies[dataKey(a.Dataset)]
	if d := dp.Check(x.tx.From, ActionExecute, a.Purpose, x.now, true); !d.Allowed {
		s.emit(x.r, AnalyticsContractAddr, "RunDenied", map[string]any{
			"tool": a.Tool, "dataset": a.Dataset, "reason": d.Reason,
		})
		return fmt.Errorf("%w: dataset: %s", ErrDenied, d.Reason)
	}
	tp := s.policies[toolKey(a.Tool)]
	if d := tp.Check(x.tx.From, ActionExecute, a.Purpose, x.now, true); !d.Allowed {
		s.emit(x.r, AnalyticsContractAddr, "RunDenied", map[string]any{
			"tool": a.Tool, "dataset": a.Dataset, "reason": d.Reason,
		})
		return fmt.Errorf("%w: tool: %s", ErrDenied, d.Reason)
	}
	s.requestSeq++
	auth := RunAuthorization{
		RequestID: s.requestSeq, Tool: tool.ID, ToolDigest: tool.Digest,
		Dataset: ds.ID, DataDigest: ds.Digest, SiteID: ds.SiteID,
		Requester: x.tx.From, Params: a.Params, Purpose: a.Purpose,
	}
	s.emit(x.r, AnalyticsContractAddr, "RunAuthorized", auth)
	return nil
}

// --- clinical-trial contract ---

// RegisterTrialArgs are the args of trial/"register_trial".
type RegisterTrialArgs struct {
	ID              string            `json:"id"`
	ProtocolDigest  cryptoutil.Digest `json:"protocol_digest"`
	PrimaryOutcomes []string          `json:"primary_outcomes"`
}

// EnrollArgs are the args of trial/"enroll".
type EnrollArgs struct {
	Trial   string `json:"trial"`
	Patient string `json:"patient"`
	Site    string `json:"site"`
}

// ReportOutcomesArgs are the args of trial/"report_outcomes".
type ReportOutcomesArgs struct {
	Trial         string            `json:"trial"`
	Outcomes      []string          `json:"outcomes"`
	ResultsDigest cryptoutil.Digest `json:"results_digest"`
}

// AdverseEventArgs are the args of trial/"adverse_event".
type AdverseEventArgs struct {
	Trial       string `json:"trial"`
	Patient     string `json:"patient"`
	Description string `json:"description"`
	Severity    int    `json:"severity"`
	Site        string `json:"site"`
}

func (s *State) registerTrial(x *env, a *RegisterTrialArgs) error {
	if a.ID == "" || len(a.PrimaryOutcomes) == 0 {
		return fmt.Errorf("%w: trial needs id and pre-registered outcomes", ErrBadArgs)
	}
	if _, dup := s.trials[a.ID]; dup {
		return fmt.Errorf("%w: trial %q", ErrExists, a.ID)
	}
	s.trials[a.ID] = &Trial{
		ID: a.ID, Sponsor: x.tx.From, ProtocolDigest: a.ProtocolDigest,
		PrimaryOutcomes: append([]string(nil), a.PrimaryOutcomes...),
		RegisteredAt:    x.now,
	}
	s.emit(x.r, TrialContractAddr, "TrialRegistered", s.trials[a.ID])
	return nil
}

func (s *State) enroll(x *env, a *EnrollArgs) error {
	tr, ok := s.trials[a.Trial]
	if !ok {
		return fmt.Errorf("%w: trial %q", ErrNotFound, a.Trial)
	}
	for _, e := range tr.Enrollments {
		if e.Patient == a.Patient {
			return fmt.Errorf("%w: patient %q already enrolled", ErrExists, a.Patient)
		}
	}
	tr.Enrollments = append(tr.Enrollments, Enrollment{
		Patient: a.Patient, Site: a.Site, By: x.tx.From, At: x.now,
	})
	s.emit(x.r, TrialContractAddr, "ParticipantEnrolled", a)
	return nil
}

func (s *State) reportOutcomes(x *env, a *ReportOutcomesArgs) error {
	tr, ok := s.trials[a.Trial]
	if !ok {
		return fmt.Errorf("%w: trial %q", ErrNotFound, a.Trial)
	}
	if x.tx.From != tr.Sponsor {
		return fmt.Errorf("%w: only the sponsor reports outcomes", ErrNotOwner)
	}
	tr.Reports = append(tr.Reports, OutcomeReport{
		Outcomes:      append([]string(nil), a.Outcomes...),
		ResultsDigest: a.ResultsDigest, By: x.tx.From, At: x.now,
	})
	s.emit(x.r, TrialContractAddr, "OutcomesReported", a)
	return nil
}

func (s *State) adverseEvent(x *env, a *AdverseEventArgs) error {
	tr, ok := s.trials[a.Trial]
	if !ok {
		return fmt.Errorf("%w: trial %q", ErrNotFound, a.Trial)
	}
	if a.Severity < 1 || a.Severity > 5 {
		return fmt.Errorf("%w: severity %d outside [1,5]", ErrBadArgs, a.Severity)
	}
	tr.AdverseEvents = append(tr.AdverseEvents, AdverseEventRecord{
		Patient: a.Patient, Description: a.Description,
		Severity: a.Severity, Site: a.Site, At: x.now,
	})
	s.emit(x.r, TrialContractAddr, "AdverseEvent", a)
	return nil
}

// --- anchor contract ---

// AnchorArgs are the args of anchor transactions.
type AnchorArgs struct {
	Label  string            `json:"label"`
	Digest cryptoutil.Digest `json:"digest"`
}

func (s *State) anchor(x *env, a *AnchorArgs) error {
	if a.Label == "" {
		return fmt.Errorf("%w: empty anchor label", ErrBadArgs)
	}
	if _, dup := s.anchors[a.Label]; dup {
		return fmt.Errorf("%w: anchor %q", ErrExists, a.Label)
	}
	s.anchors[a.Label] = &Anchor{Label: a.Label, Digest: a.Digest, By: x.tx.From, At: x.now}
	s.emit(x.r, AnchorContractAddr, "Anchored", s.anchors[a.Label])
	return nil
}

// --- VM contracts ---

// DeployArgs are the args of deploy transactions.
type DeployArgs struct {
	Name string `json:"name"`
	// Code is base64-encoded VM byte code.
	Code string `json:"code"`
}

// DeployedAddress derives the address of a contract deployed by a
// sender at a nonce.
func DeployedAddress(from cryptoutil.Address, nonce uint64) cryptoutil.Address {
	var nb [8]byte
	for i := 0; i < 8; i++ {
		nb[i] = byte(nonce >> (56 - 8*i))
	}
	d := cryptoutil.SumAll([]byte("medchain/deploy"), from[:], nb[:])
	var a cryptoutil.Address
	copy(a[:], d[:cryptoutil.AddressSize])
	return a
}

// deploy meters by code size, so a deploy that never gets as far as
// its code charges nothing.
func (s *State) deploy(x *env, a *DeployArgs) error {
	code, err := base64.StdEncoding.DecodeString(a.Code)
	if err != nil {
		return fmt.Errorf("%w: code is not base64: %v", ErrBadArgs, err)
	}
	if len(code) == 0 {
		return fmt.Errorf("%w: empty code", ErrBadArgs)
	}
	x.r.GasUsed = gasDeployBase + int64(len(code))*gasArgByte
	addr := DeployedAddress(x.tx.From, x.tx.Nonce)
	if _, dup := s.deployed[addr]; dup {
		return fmt.Errorf("%w: contract %s", ErrExists, addr.Short())
	}
	s.deployed[addr] = &Deployed{
		Address: addr, Owner: x.tx.From, Name: a.Name, Code: code, Kind: KindVM,
	}
	s.vmStorage[addr] = vm.NewMemStorage()
	s.emit(x.r, addr, "Deployed", map[string]any{"address": addr, "name": a.Name})
	return nil
}

// InvokeArgs are the args of invoke transactions. Method and Input are
// exposed to the program via the reserved storage keys "__method" and
// "__input" before execution.
type InvokeArgs struct {
	Input []byte `json:"input,omitempty"`
	// GasLimit overrides DefaultGasLimit when > 0.
	GasLimit int64 `json:"gas_limit,omitempty"`
}

// haveContract is the invoke guard: the target must be deployed.
func (s *State) haveContract(tx *ledger.Transaction) error {
	if _, ok := s.deployed[tx.Contract]; !ok {
		return fmt.Errorf("%w: contract %s", ErrNotFound, tx.Contract.Short())
	}
	return nil
}

func (s *State) invoke(x *env, a *InvokeArgs) error {
	dep := s.deployed[x.tx.Contract]
	limit := int64(DefaultGasLimit)
	if a.GasLimit > 0 {
		limit = a.GasLimit
	}
	store := s.vmStorage[x.tx.Contract]
	buffered := newBufferedStorage(store)
	buffered.Set([]byte("__method"), []byte(x.tx.Method))
	buffered.Set([]byte("__input"), a.Input)
	res, err := vm.Execute(dep.Code, &vm.Context{
		Caller:   x.tx.From,
		Self:     x.tx.Contract,
		Storage:  buffered,
		Host:     s.registryHost(),
		GasLimit: limit,
	})
	if res != nil {
		x.r.GasUsed = res.GasUsed
		x.r.Events = append(x.r.Events, res.Events...)
	}
	if err != nil {
		return fmt.Errorf("contract: invoke %s: %w", dep.Name, err)
	}
	buffered.commit()
	return nil
}

// bufferedStorage overlays writes on a base store and commits them only
// on success, so failed invocations leave no state behind.
type bufferedStorage struct {
	base   vm.Storage
	writes map[string][]byte
}

func newBufferedStorage(base vm.Storage) *bufferedStorage {
	return &bufferedStorage{base: base, writes: make(map[string][]byte)}
}

func (b *bufferedStorage) Get(key []byte) ([]byte, bool) {
	if v, ok := b.writes[string(key)]; ok {
		return v, true
	}
	return b.base.Get(key)
}

func (b *bufferedStorage) Set(key, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	b.writes[string(key)] = cp
}

func (b *bufferedStorage) commit() {
	for k, v := range b.writes {
		b.base.Set([]byte(k), v)
	}
}

// --- read API (used by oracles, query planners, audits) ---
//
// Every accessor returns a deep copy: Apply mutates stored objects in
// place, so a pointer into the tables would race with the next commit.

// Dataset returns a registered dataset.
func (s *State) Dataset(id string) (*Dataset, bool) { return ref(datasetKind.get(s, id)) }

// Datasets returns all dataset IDs, sorted.
func (s *State) Datasets() []string { return datasetKind.keys(s) }

// Tool returns a registered tool.
func (s *State) Tool(id string) (*Tool, bool) { return ref(toolKind.get(s, id)) }

// Tools returns all tool IDs, sorted.
func (s *State) Tools() []string { return toolKind.keys(s) }

// Trial returns a registered trial.
func (s *State) Trial(id string) (*Trial, bool) { return ref(trialKind.get(s, id)) }

// Trials returns all trial IDs, sorted.
func (s *State) Trials() []string { return trialKind.keys(s) }

// AnchorOf returns the anchor stored under a label.
func (s *State) AnchorOf(label string) (*Anchor, bool) { return ref(anchorKind.get(s, label)) }

// PolicyOf returns the policy for a resource key ("data:<id>" or
// "tool:<id>").
func (s *State) PolicyOf(resource string) (Policy, bool) { return policyKind.get(s, resource) }

// DeployedAt returns the deployed VM contract at an address (Code is
// shared: it is immutable after deploy).
func (s *State) DeployedAt(addr cryptoutil.Address) (*Deployed, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if d, ok := s.deployed[addr]; ok {
		return ref(*d, true)
	}
	return nil, false
}

// StorageValue reads one key of a deployed contract's storage.
func (s *State) StorageValue(addr cryptoutil.Address, key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.vmStorage[addr]
	if !ok {
		return nil, false
	}
	return st.Get(key)
}

// registryHost is the HOST namespace of every VM invocation: the
// replicated registry, "registry.datasets" (sorted dataset IDs),
// "registry.dataset_info" (one dataset's metadata; arg = raw ID bytes)
// and "registry.tools" (sorted tool IDs). It is part of the protocol,
// not configuration: every replica answers from its own state, so
// identical states give byte-identical results and replicated
// executions agree. The functions read s WITHOUT locking: invoke runs
// inside Run, which already holds the state lock.
func (s *State) registryHost() map[string]vm.HostFunc {
	return map[string]vm.HostFunc{
		"registry.datasets": func([]byte) ([]byte, int64, error) {
			b, err := json.Marshal(sortedKeys(s.datasets))
			return b, int64(len(b)), err
		},
		"registry.dataset_info": func(arg []byte) ([]byte, int64, error) {
			ds, ok := s.datasets[string(arg)]
			if !ok {
				return nil, 0, fmt.Errorf("%w: dataset %q", ErrNotFound, arg)
			}
			b, err := json.Marshal(ds)
			return b, int64(len(b)), err
		},
		"registry.tools": func([]byte) ([]byte, int64, error) {
			b, err := json.Marshal(sortedKeys(s.tools))
			return b, int64(len(b)), err
		},
	}
}
