package contract

import (
	"encoding/json"
	"fmt"

	"medchain/internal/ledger"
)

// This file is the one place a contract method is wired: its gas rule,
// the footprint it declares and the handler that runs it sit in one
// table entry, and Prepare decodes a transaction's arguments once for
// both. The invariant everything else leans on: a handler never decodes.
// It sees the struct the footprint was derived from, so the declared
// write set — which schedules the parallel engine and decides what
// State.Root re-hashes — cannot disagree with what executes. A
// transaction whose arguments do not decode never reaches its handler,
// so nothing a client can submit has an unbounded footprint.

// methodKey names a table entry. Anchor, deploy and invoke transactions
// have no method of the contract's own (an invoke's Method goes to the
// program), so their entries sit under the empty name and match any.
type methodKey struct {
	typ  ledger.TxType
	name string
}

// guard is a check on state a method makes before it reports arguments
// that do not decode, with the keys that check reads — part of the
// footprint whatever the arguments are.
type guard struct {
	check func(*State, *ledger.Transaction) error
	keys  func(*ledger.Transaction, *AccessSet)
}

var (
	// anyChain and memberChain admit a cross-shard method only on a
	// chain with a shard identity, the second only on a member shard.
	anyChain    = &guard{(*State).haveConfig, readsConfig}
	memberChain = &guard{(*State).haveMemberConfig, readsConfig}
	// deployedContract admits an invocation of a contract that exists.
	// The program may call HOST registry.* functions, which read
	// arbitrary datasets and tools, so the whole registry is read and
	// invocations conflict with registrations.
	deployedContract = &guard{(*State).haveContract, func(tx *ledger.Transaction, acc *AccessSet) {
		if !skipRegistryRead {
			acc.read(KeyRegistry)
		}
		acc.write(KeyVM(tx.Contract))
	}}
)

// skipRegistryRead is a mutation seam (export_test.go sets it): an
// invocation's footprint leaves KeyRegistry out, so the wave scheduler
// runs it on a snapshot without the registry its HOST calls read.
// False outside tests.
var skipRegistryRead bool

func readsConfig(_ *ledger.Transaction, acc *AccessSet) { acc.read(KeyCrossConfig) }

// method is one table entry. def builds it over the argument struct.
type method struct {
	// gas, plus gasArgByte per argument byte, is charged before anything
	// else runs; 0 leaves metering to the handler (deploy, invoke).
	gas   int64
	guard *guard
	// emptyOK lets absent arguments stand for the zero struct.
	emptyOK bool
	newArgs func() any
	// payloadOf, on the cross methods that carry one, finds the
	// kind-specific payload inside the decoded arguments.
	payloadOf func(args any) (CrossKind, json.RawMessage)
	// access declares the keys the handler may touch given the decoded
	// arguments, beyond the guard's.
	access func(c *Call, acc *AccessSet)
	run    func(s *State, x *env) error
}

// def builds a table entry from a footprint function and a handler over
// the method's argument struct A.
func def[A any](gas int64, access func(*Call, *A, *AccessSet), run func(*State, *env, *A) error) *method {
	return &method{
		gas:     gas,
		newArgs: func() any { return new(A) },
		access:  func(c *Call, acc *AccessSet) { access(c, c.args.(*A), acc) },
		run:     func(s *State, x *env) error { return run(s, x, x.args.(*A)) },
	}
}

func (m *method) behind(g *guard) *method { m.guard = g; return m }
func (m *method) argsOptional() *method   { m.emptyOK = true; return m }

func (m *method) carrying(payloadOf func(any) (CrossKind, json.RawMessage)) *method {
	m.payloadOf = payloadOf
	return m
}

// Policy administration is one pair of handlers: tool policies are
// granted and revoked through the analytics contract, dataset policies
// through the data contract.
var (
	grantMethod = def(gasGrant, func(_ *Call, a *GrantArgs, acc *AccessSet) {
		acc.write(KeyPolicy(a.Resource))
	}, (*State).grant)
	revokeMethod = def(gasRevoke, func(_ *Call, a *RevokeArgs, acc *AccessSet) {
		acc.write(KeyPolicy(a.Resource))
	}, (*State).revoke)
)

// inbound is the footprint of cross apply and expire: the relayed root
// is read for the proof and the one resolution of the transfer is
// written; apply adds what the kind's effect touches. The handler
// validates the proof-carried record against these keys before it
// mutates anything.
func inbound(effect bool) func(*Call, *CrossApplyArgs, *AccessSet) {
	return func(c *Call, a *CrossApplyArgs, acc *AccessSet) {
		acc.read(KeyShardRoot(a.Record.SourceShard, a.Record.SourceHeight))
		acc.write(KeyCrossIn(a.Record.SourceShard, a.Record.ID))
		if effect && c.payloadOK() {
			c.payload.applyAccess(acc)
		}
	}
}

func recordPayload(args any) (CrossKind, json.RawMessage) {
	a := args.(*CrossApplyArgs)
	return a.Record.Kind, a.Record.Payload
}

// methods is the table. A footprint is a sound over-approximation: it
// may name keys the handler ends up not touching (it failed a policy
// check), never misses one it could.
var methods = map[methodKey]*method{
	{ledger.TxData, "register_dataset"}: def(gasRegister, datasetAccess, (*State).registerDataset),
	{ledger.TxData, "update_dataset"}:   def(gasRegister, datasetAccess, (*State).updateDataset),
	{ledger.TxData, "grant"}:            grantMethod,
	{ledger.TxData, "revoke"}:           revokeMethod,
	{ledger.TxData, "register_manifests"}: def(gasAnchor, func(_ *Call, a *RegisterManifestsArgs, acc *AccessSet) {
		// The dataset is read for the ownership check; only the
		// accumulator is mutated.
		acc.read(KeyDataset(a.Dataset))
		acc.write(KeyManifestSet(a.Dataset))
	}, (*State).registerManifests),
	{ledger.TxData, "request_access"}: def(gasRequest, func(_ *Call, a *RequestAccessArgs, acc *AccessSet) {
		// Check(consume=true) mutates grant use counters, so the policy
		// is a write; the dataset is read for oracle routing (SiteID).
		acc.read(KeyDataset(trimPrefix(a.Resource, "data:")))
		acc.write(KeyPolicy(a.Resource), KeySeq)
	}, (*State).requestAccess),

	{ledger.TxAnalytics, "register_tool"}: def(gasRegister, func(_ *Call, a *RegisterToolArgs, acc *AccessSet) {
		acc.write(KeyTool(a.ID), KeyPolicy(toolKey(a.ID)), KeyRegistry)
	}, (*State).registerTool),
	{ledger.TxAnalytics, "grant"}:  grantMethod,
	{ledger.TxAnalytics, "revoke"}: revokeMethod,
	{ledger.TxAnalytics, "request_run"}: def(gasRequest, func(_ *Call, a *RequestRunArgs, acc *AccessSet) {
		acc.read(KeyTool(a.Tool), KeyDataset(a.Dataset))
		acc.write(KeyPolicy(dataKey(a.Dataset)), KeyPolicy(toolKey(a.Tool)), KeySeq)
	}, (*State).requestRun),

	{ledger.TxTrial, "register_trial"}: def(gasTrialOp, func(_ *Call, a *RegisterTrialArgs, acc *AccessSet) {
		acc.write(KeyTrial(a.ID))
	}, (*State).registerTrial),
	{ledger.TxTrial, "enroll"}: def(gasTrialOp, func(_ *Call, a *EnrollArgs, acc *AccessSet) {
		acc.write(KeyTrial(a.Trial))
	}, (*State).enroll),
	{ledger.TxTrial, "report_outcomes"}: def(gasTrialOp, func(_ *Call, a *ReportOutcomesArgs, acc *AccessSet) {
		acc.write(KeyTrial(a.Trial))
	}, (*State).reportOutcomes),
	{ledger.TxTrial, "adverse_event"}: def(gasTrialOp, func(_ *Call, a *AdverseEventArgs, acc *AccessSet) {
		acc.write(KeyTrial(a.Trial))
	}, (*State).adverseEvent),

	{ledger.TxAnchor, ""}: def(gasAnchor, func(_ *Call, a *AnchorArgs, acc *AccessSet) {
		acc.write(KeyAnchor(a.Label))
	}, (*State).anchor),
	{ledger.TxAudit, "report_evidence"}: def(gasAudit, func(_ *Call, a *ReportEvidenceArgs, acc *AccessSet) {
		acc.write(KeyEvidence(evidenceKey(a.Kind, a.Height, a.Offender)))
	}, (*State).reportEvidence),

	{ledger.TxDeploy, ""}: def(0, func(c *Call, _ *DeployArgs, acc *AccessSet) {
		acc.write(KeyVM(DeployedAddress(c.tx.From, c.tx.Nonce)))
	}, (*State).deploy),
	// An invocation's footprint is its guard's: it does not depend on
	// the arguments.
	{ledger.TxInvoke, ""}: def(0, func(*Call, *InvokeArgs, *AccessSet) {}, (*State).invoke).
		behind(deployedContract).argsOptional(),

	{ledger.TxCross, "init"}: def(gasCross, func(_ *Call, _ *InitCrossArgs, acc *AccessSet) {
		acc.write(KeyCrossConfig)
	}, (*State).crossInit),
	{ledger.TxCross, "register_shard"}: def(gasCross, func(_ *Call, a *RegisterShardArgs, acc *AccessSet) {
		acc.write(KeyShardInfo(a.ID))
	}, (*State).registerShard).behind(anyChain),
	{ledger.TxCross, "acquire_lease"}: def(gasCross, func(_ *Call, a *AcquireLeaseArgs, acc *AccessSet) {
		acc.write(KeyShardInfo(a.Shard))
	}, (*State).acquireLease).behind(anyChain),
	{ledger.TxCross, "begin_epoch"}: def(gasCross, func(_ *Call, a *BeginEpochArgs, acc *AccessSet) {
		for _, id := range a.Shards {
			acc.read(KeyShardInfo(id))
		}
		acc.write(KeyRouting)
	}, (*State).beginEpoch).behind(anyChain),
	{ledger.TxCross, "commit_epoch"}: def(gasCross, func(_ *Call, _ *CommitEpochArgs, acc *AccessSet) {
		acc.write(KeyRouting)
	}, (*State).commitEpoch).behind(anyChain),
	{ledger.TxCross, "anchor_root"}: def(gasCross, func(_ *Call, a *AnchorRootArgs, acc *AccessSet) {
		// On the coordination chain an accepted anchor renews the
		// gateway's lease (LastAnchor), so the directory entry is a
		// write, not just an authorization read.
		acc.write(KeyShardRoot(a.Shard, a.Height), KeyShardInfo(a.Shard))
	}, (*State).anchorRoot).behind(anyChain),
	{ledger.TxCross, "prepare"}: def(gasCross, func(c *Call, a *CrossPrepareArgs, acc *AccessSet) {
		acc.write(KeyCrossOut(a.ID))
		if c.payloadOK() {
			c.payload.prepareAccess(acc)
		}
	}, (*State).crossPrepare).behind(memberChain).carrying(func(args any) (CrossKind, json.RawMessage) {
		a := args.(*CrossPrepareArgs)
		return a.Kind, a.Payload
	}),
	{ledger.TxCross, "apply"}:  def(gasCross, inbound(true), (*State).crossApply).behind(memberChain).carrying(recordPayload),
	{ledger.TxCross, "expire"}: def(gasCross, inbound(false), (*State).crossExpire).behind(memberChain).carrying(recordPayload),
	{ledger.TxCross, "resolve"}: def(gasCross, func(_ *Call, a *CrossResolveArgs, acc *AccessSet) {
		res := &a.Resolution
		acc.read(KeyShardRoot(res.DestShard, res.DestHeight))
		acc.write(KeyCrossOut(res.ID))
		if res.Kind == CrossTransfer {
			// settlePrepare thaws/tombstones the dataset named by the
			// resolution; the handler rejects a resolution whose resource
			// disagrees with the prepare's payload, so no other dataset
			// can be touched.
			acc.write(KeyDataset(res.Resource))
		}
	}, (*State).crossResolve).behind(memberChain),
}

func datasetAccess(_ *Call, a *RegisterDatasetArgs, acc *AccessSet) {
	acc.write(KeyDataset(a.ID), KeyPolicy(dataKey(a.ID)), KeyRegistry)
}

// unlistedGas is what a family charges, plus the per-byte rate, for a
// method it does not list; the data and analytics contracts and an
// unrecognised transaction type charge nothing.
var unlistedGas = map[ledger.TxType]int64{
	ledger.TxTrial: gasTrialOp,
	ledger.TxAudit: gasAudit,
	ledger.TxCross: gasCross,
}

// crossPayload is what the cross-shard protocol needs of a transfer
// kind's payload; the three kinds implement it in xshard.go.
type crossPayload interface {
	// resource names the object the payload affects (dataset ID, policy
	// resource, or FL round).
	resource() string
	// prepareAccess and applyAccess declare what validate and apply touch.
	prepareAccess(*AccessSet)
	applyAccess(*AccessSet)
	// validate runs the source-side checks of a prepare and returns the
	// canonical record payload.
	validate(s *State, tx *ledger.Transaction) (json.RawMessage, error)
	// apply is the destination-side effect of a proven record. An error
	// is an application-level refusal, recorded as a negative resolution.
	apply(s *State, rec *CrossRecord, now int64) error
}

var crossKinds = map[CrossKind]func() crossPayload{
	CrossConsent:  func() crossPayload { return new(GrantArgs) },
	CrossTransfer: func() crossPayload { return new(CrossTransferPayload) },
	CrossFLRound:  func() crossPayload { return new(CrossFLPayload) },
}

// Call is one transaction resolved against the method table: its entry,
// its arguments decoded, and the footprint that follows from them. A
// Call runs once: a handler may keep what was decoded for it. The zero
// Call — what Prepare returns for a nil transaction — declares nothing
// and is refused by State.Run.
type Call struct {
	tx *ledger.Transaction
	m  *method
	// gas is the flat charge, 0 when the handler meters itself.
	gas int64
	// args is m's argument struct. err is why the handler will not run:
	// the type or method is not listed, or the arguments did not decode.
	args any
	err  error
	// A cross prepare, apply or expire carries a payload of its own,
	// nil for a kind nobody handles. These methods run with an
	// undecodable payload — an apply records a negative resolution — so
	// payloadErr is theirs to report, unlike err.
	payload    crossPayload
	payloadErr error
	acc        AccessSet
}

// Prepare resolves tx against the method table and decodes its
// arguments, once. It needs no state, so a block's transactions can be
// prepared concurrently. A transaction that will not reach a handler —
// unlisted type or method, arguments that do not decode — declares what
// its method's guard reads and writes nothing.
func Prepare(tx *ledger.Transaction) Call {
	c := Call{tx: tx}
	if tx == nil {
		return c
	}
	if c.m = methods[methodKey{tx.Type, tx.Method}]; c.m == nil {
		c.m = methods[methodKey{tx.Type, ""}]
	}
	m := c.m
	if m == nil {
		c.gas = unlistedGas[tx.Type]
		if ledger.ValidTxType(tx.Type) {
			c.err = fmt.Errorf("%w: %s/%q", ErrUnknownMethod, tx.Type, tx.Method)
		} else {
			c.err = fmt.Errorf("%w: tx type %q", ErrUnknownMethod, tx.Type)
		}
		return c
	}
	c.gas = m.gas
	if m.guard != nil {
		m.guard.keys(tx, &c.acc)
	}
	c.args = m.newArgs()
	if len(tx.Args) > 0 || !m.emptyOK {
		if c.err = decodeArgs(tx.Args, c.args); c.err != nil {
			return c
		}
	}
	if m.payloadOf != nil {
		kind, raw := m.payloadOf(c.args)
		if newPayload := crossKinds[kind]; newPayload != nil {
			c.payload = newPayload()
			c.payloadErr = decodeArgs(raw, c.payload)
		}
	}
	m.access(&c, &c.acc)
	return c
}

// Access is the call's declared footprint.
func (c Call) Access() AccessSet { return c.acc }

// payloadOK reports whether the call carries a cross payload of a known
// kind that decoded.
func (c *Call) payloadOK() bool { return c.payload != nil && c.payloadErr == nil }

// env is what a handler sees of one execution besides the state and its
// decoded arguments.
type env struct {
	*Call
	height uint64
	now    int64
	r      *Receipt
}

// Run executes a prepared call at the given height/timestamp and
// returns its receipt, then marks the call's declared writes for the
// next Root. The error return is non-nil only for what the caller should
// treat as a programming error (a nil transaction); domain failures are
// reported in the receipt.
func (s *State) Run(c Call, height uint64, now int64) (*Receipt, error) {
	if c.tx == nil {
		return nil, fmt.Errorf("contract: nil transaction")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Receipt{TxID: c.tx.ID(), Height: height}
	if c.gas > 0 {
		r.GasUsed = c.gas + int64(len(c.tx.Args))*gasArgByte
	}
	if err := s.dispatch(&env{Call: &c, height: height, now: now, r: r}); err != nil {
		r.Err = err.Error()
	}
	s.markWritten(c.acc)
	return r, nil
}

// dispatch orders the checks the way every method always has: the guard
// speaks before a decode failure does.
func (s *State) dispatch(x *env) error {
	if x.m != nil && x.m.guard != nil {
		if err := x.m.guard.check(s, x.tx); err != nil {
			return err
		}
	}
	if x.err != nil {
		return x.err
	}
	return x.m.run(s, x)
}
