package contract

import (
	"encoding/json"
	"errors"
	"fmt"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
	"medchain/internal/merkle"
)

// The cross-shard contract implements the on-chain half of the sharded
// scale-out architecture (paper Fig. 2/5: a global chain over
// per-hospital local chains). Every chain — the coordination chain and
// each member shard — runs this same contract; its role is selected by
// the one-time "init" transaction.
//
// The protocol is a receipt relay with two-phase commit semantics:
//
//	source shard          coordination chain          dest shard
//	  prepare  ──leaf──▶  anchor_root (gateway)
//	                        │ relay (coordinator)
//	                        ▼
//	                      anchor_root ────────────▶  apply | expire
//	                                                    │ leaf
//	  resolve  ◀──────────  anchor_root  ◀──────────────┘
//
// A prepare freezes the source-side resource and emits a canonical
// CrossRecord; the shard's gateway anchors a Merkle root over each
// block's cross-records on the coordination chain; the coordinator
// relays anchored roots to the counterpart shard; the destination
// applies (or, past the record's deadline, expires) the transfer with
// an inclusion proof against the relayed root, recording exactly one
// CrossResolution; the source mirrors that resolution — again under
// proof — committing or aborting the prepare. The destination decides
// uniquely and the source only mirrors, so every prepare settles to
// exactly one of {committed, aborted} and no partial application is
// ever visible (the frozen resource thaws only on abort).
//
// Proof verification failures are typed (ErrCrossProof,
// ErrCrossUnanchored, ErrCrossReplay, ErrCrossExpired,
// ErrCrossUnauthorized) so callers and tests can distinguish a forged
// proof from a stale or replayed one.

// CrossContractAddr is the native cross-shard contract.
var CrossContractAddr = cryptoutil.NamedAddress("native/xshard")

// CoordShardID is the reserved shard ID of the coordination chain.
const CoordShardID = "@coord"

// gasCross is the base cost of cross-shard protocol methods.
const gasCross = 250

// maxFLWeights bounds a federated-learning payload so cross-shard
// transactions cannot bloat state.
const maxFLWeights = 256

// Typed cross-shard protocol errors.
var (
	// ErrCrossProof marks a Merkle inclusion proof that does not verify
	// against the anchored root (forged or truncated proofs, tampered
	// records).
	ErrCrossProof = errors.New("contract: cross-shard proof does not verify")
	// ErrCrossUnanchored marks a proof offered against a shard root that
	// was never anchored (or relayed) on this chain.
	ErrCrossUnanchored = errors.New("contract: cross-shard root not anchored")
	// ErrCrossReplay marks a prepare receipt or resolution submitted
	// after the transfer already settled.
	ErrCrossReplay = errors.New("contract: cross-shard transfer already resolved")
	// ErrCrossExpired marks an apply attempted past the record's
	// destination-height deadline.
	ErrCrossExpired = errors.New("contract: cross-shard transfer expired")
	// ErrCrossUnauthorized marks a protocol transaction from an address
	// that is neither the registered gateway nor the coordinator.
	ErrCrossUnauthorized = errors.New("contract: cross-shard sender not authorized")
	// ErrCrossEpoch marks a routing-epoch transition out of sequence: a
	// begin_epoch that is not current+1, a begin while another transition
	// is pending, or a commit_epoch with no matching pending epoch.
	ErrCrossEpoch = errors.New("contract: routing epoch out of sequence")
	// ErrCrossLease marks a gateway lease takeover attempted before the
	// current holder's lease expired (it still anchors within cadence).
	ErrCrossLease = errors.New("contract: gateway lease not expired")
)

// defaultLeaseBlocks is the anchoring-lease bound when register_shard
// does not set one: a standby committee member may take the anchoring
// right over once the holder has neither anchored nor renewed for this
// many coordination-chain blocks.
const defaultLeaseBlocks = 8

// CrossKind classifies a cross-shard transfer.
type CrossKind string

// Cross-shard transfer kinds.
const (
	// CrossConsent propagates a consent grant to the shard hosting the
	// resource's policy.
	CrossConsent CrossKind = "consent"
	// CrossTransfer moves a dataset registration between shards (HIE
	// record transfer); the source copy is frozen during transfer and
	// tombstoned on commit.
	CrossTransfer CrossKind = "transfer"
	// CrossFLRound contributes one shard's model update to a federated
	// learning round aggregated on the destination shard.
	CrossFLRound CrossKind = "fl-round"
)

// CrossStatus is the source-side lifecycle of a prepare.
type CrossStatus string

// Prepare states: pending until the destination's resolution is
// mirrored, then exactly one of committed or aborted.
const (
	CrossPending   CrossStatus = "pending"
	CrossCommitted CrossStatus = "committed"
	CrossAborted   CrossStatus = "aborted"
)

// CrossShardConfig is the chain's one-time shard identity, set by
// "init" as part of the genesis ceremony (first write wins; the shard
// operator commits it before any application traffic).
type CrossShardConfig struct {
	// ShardID names this chain in the shard directory (CoordShardID for
	// the coordination chain).
	ShardID string `json:"shard_id"`
	// Shards is the member shard count of the deployment.
	Shards int `json:"shards"`
	// Coordinator is the address trusted to relay anchored roots onto
	// member shards (and to register shards on the coordination chain).
	Coordinator cryptoutil.Address `json:"coordinator"`
}

// ShardInfo is one routing-table entry on the coordination chain.
type ShardInfo struct {
	// ID is the shard identifier.
	ID string `json:"id"`
	// Gateway is the address currently holding the anchoring lease —
	// the only committee member allowed to anchor this shard's roots.
	Gateway cryptoutil.Address `json:"gateway"`
	// Committee is the k-member gateway failover committee. The lease
	// holder is always a member; any other member may acquire_lease once
	// the holder misses its anchor cadence. A registration without a
	// committee gets the singleton {Gateway}.
	Committee []cryptoutil.Address `json:"committee,omitempty"`
	// LeaseBlocks is the anchor-cadence bound in coordination-chain
	// blocks: the lease is expired once the holder has neither anchored
	// nor (re)acquired for more than LeaseBlocks blocks.
	LeaseBlocks uint64 `json:"lease_blocks,omitempty"`
	// LeaseHeight is the coordination-chain height of the holder's last
	// lease acquisition (registration height for the initial holder).
	LeaseHeight uint64 `json:"lease_height,omitempty"`
	// LastAnchor is the coordination-chain height of the holder's last
	// accepted anchor_root.
	LastAnchor uint64 `json:"last_anchor,omitempty"`
	// At is the registration chain timestamp.
	At int64 `json:"at"`
}

// leaseActivity is the holder's last proof of life in coordination
// heights: the later of its last anchor and its lease acquisition.
func (info *ShardInfo) leaseActivity() uint64 {
	if info.LastAnchor > info.LeaseHeight {
		return info.LastAnchor
	}
	return info.LeaseHeight
}

// LeaseExpired reports whether a standby may take the anchoring right
// over at the given coordination-chain height.
func (info *ShardInfo) LeaseExpired(height uint64) bool {
	return height > info.leaseActivity()+info.LeaseBlocks
}

// InCommittee reports whether addr is a registered committee member.
func (info *ShardInfo) InCommittee(addr cryptoutil.Address) bool {
	for _, m := range info.Committee {
		if m == addr {
			return true
		}
	}
	return false
}

// RoutingEpoch is one committed routing table: an epoch number and the
// ordered member shard list keys hash onto.
type RoutingEpoch struct {
	// Epoch is the monotonically increasing epoch number (first is 1).
	Epoch uint64 `json:"epoch"`
	// Shards is the ordered member shard ID list of this epoch.
	Shards []string `json:"shards"`
	// At is the chain timestamp the epoch began/committed.
	At int64 `json:"at"`
}

// RoutingTable is the coordination chain's epoch state: the committed
// current epoch plus, during a resharding transition, the pending next
// epoch. Routers read both — writes follow Current, reads consult
// Current and Pending so dataset lookups never 404 mid-migration.
type RoutingTable struct {
	Current *RoutingEpoch `json:"current,omitempty"`
	Pending *RoutingEpoch `json:"pending,omitempty"`
}

// ShardRoot is an anchored per-shard block root: on the coordination
// chain it is committed by the shard's gateway; on member shards it is
// relayed by the coordinator.
type ShardRoot struct {
	// Shard is the shard the root belongs to.
	Shard string `json:"shard"`
	// Height is the shard-chain block height the root covers.
	Height uint64 `json:"height"`
	// Root is the Merkle root over the block's cross-record leaves.
	Root cryptoutil.Digest `json:"root"`
	// By is the anchoring address.
	By cryptoutil.Address `json:"by"`
	// At is the chain timestamp of the anchoring.
	At int64 `json:"at"`
}

// CrossRecord is the canonical prepare receipt — the Merkle leaf the
// whole protocol proves. It is emitted verbatim in the CrossPrepared
// event, carried by the relay, and re-serialized identically by every
// verifier.
type CrossRecord struct {
	// ID is the transfer identifier, unique within the source shard.
	ID string `json:"id"`
	// Kind is the transfer kind.
	Kind CrossKind `json:"kind"`
	// SourceShard / DestShard name the two member shards involved.
	SourceShard string `json:"source_shard"`
	DestShard   string `json:"dest_shard"`
	// From is the preparing address; destination-side authorization
	// checks run against it.
	From cryptoutil.Address `json:"from"`
	// SourceHeight is the source-chain height the prepare committed at —
	// the height whose anchored root proves this record.
	SourceHeight uint64 `json:"source_height"`
	// DestExpiry is the destination-chain height deadline: past it the
	// transfer may only be expired, never applied.
	DestExpiry uint64 `json:"dest_expiry"`
	// Payload is the kind-specific canonical payload.
	Payload json.RawMessage `json:"payload"`
}

// Leaf returns the domain-separated canonical leaf bytes of the record.
func (rec *CrossRecord) Leaf() []byte {
	b, _ := json.Marshal(rec)
	return append([]byte("xshard/prepare\x00"), b...)
}

// CrossResolution is the destination's unique decision for one
// transfer, itself a provable leaf so the source shard can mirror it.
type CrossResolution struct {
	// ID / SourceShard / DestShard / Kind echo the record.
	ID          string    `json:"id"`
	SourceShard string    `json:"source_shard"`
	DestShard   string    `json:"dest_shard"`
	Kind        CrossKind `json:"kind"`
	// Resource names the affected object (dataset ID, policy resource
	// key, or FL round), so access sets can be derived statically from a
	// resolve payload.
	Resource string `json:"resource,omitempty"`
	// Applied reports the decision: true = effect applied on the
	// destination, false = refused or expired.
	Applied bool `json:"applied"`
	// Reason explains a non-applied resolution.
	Reason string `json:"reason,omitempty"`
	// DestHeight is the destination-chain height the resolution
	// committed at — the height whose anchored root proves it.
	DestHeight uint64 `json:"dest_height"`
}

// Leaf returns the domain-separated canonical leaf bytes of the
// resolution.
func (res *CrossResolution) Leaf() []byte {
	b, _ := json.Marshal(res)
	return append([]byte("xshard/resolve\x00"), b...)
}

// CrossPrepare is the source-side stored transfer state.
type CrossPrepare struct {
	// Record is the canonical prepare receipt.
	Record CrossRecord `json:"record"`
	// Status is pending, then exactly one of committed / aborted.
	Status CrossStatus `json:"status"`
	// Reason explains an abort.
	Reason string `json:"reason,omitempty"`
	// ResolvedAt is the source-chain height of the settling resolve.
	ResolvedAt uint64 `json:"resolved_at,omitempty"`
}

// FLContribution is one shard's model update in a federated round.
type FLContribution struct {
	Shard   string             `json:"shard"`
	From    cryptoutil.Address `json:"from"`
	Weights []float64          `json:"weights"`
	Samples int                `json:"samples"`
}

// FLRound aggregates cross-shard federated-learning contributions: the
// destination shard keeps the sample-weighted mean of every shard's
// update, recomputed deterministically as contributions arrive.
type FLRound struct {
	Round         string           `json:"round"`
	Contributions []FLContribution `json:"contributions"`
	Aggregate     []float64        `json:"aggregate,omitempty"`
	TotalSamples  int              `json:"total_samples"`
	UpdatedAt     int64            `json:"updated_at"`
}

// --- method argument structs ---

// InitCrossArgs are the args of cross/"init".
type InitCrossArgs struct {
	ShardID     string             `json:"shard_id"`
	Shards      int                `json:"shards"`
	Coordinator cryptoutil.Address `json:"coordinator"`
}

// RegisterShardArgs are the args of cross/"register_shard"
// (coordination chain only; sender must be the coordinator).
type RegisterShardArgs struct {
	ID      string             `json:"id"`
	Gateway cryptoutil.Address `json:"gateway"`
	// Committee is the optional gateway failover committee; it must
	// contain Gateway when set, and defaults to the singleton {Gateway}.
	Committee []cryptoutil.Address `json:"committee,omitempty"`
	// LeaseBlocks is the anchor-cadence lease bound (0 = default).
	LeaseBlocks uint64 `json:"lease_blocks,omitempty"`
}

// AcquireLeaseArgs are the args of cross/"acquire_lease" (coordination
// chain only): a standby committee member takes the shard's anchoring
// right over once the current holder's lease expired.
type AcquireLeaseArgs struct {
	Shard string `json:"shard"`
}

// BeginEpochArgs are the args of cross/"begin_epoch" (coordination
// chain only; sender must be the coordinator): open a resharding
// transition toward a new routing table. The epoch must be exactly
// current+1 and every shard must be registered.
type BeginEpochArgs struct {
	Epoch  uint64   `json:"epoch"`
	Shards []string `json:"shards"`
}

// CommitEpochArgs are the args of cross/"commit_epoch" (coordination
// chain only; sender must be the coordinator): finalize the pending
// epoch once dataset migration has drained.
type CommitEpochArgs struct {
	Epoch uint64 `json:"epoch"`
}

// AnchorRootArgs are the args of cross/"anchor_root". On the
// coordination chain the sender must be the shard's registered gateway;
// on a member shard it must be the coordinator (relay).
type AnchorRootArgs struct {
	Shard  string            `json:"shard"`
	Height uint64            `json:"height"`
	Root   cryptoutil.Digest `json:"root"`
}

// CrossPrepareArgs are the args of cross/"prepare" (source shard).
type CrossPrepareArgs struct {
	ID         string          `json:"id"`
	Kind       CrossKind       `json:"kind"`
	DestShard  string          `json:"dest_shard"`
	DestExpiry uint64          `json:"dest_expiry"`
	Payload    json.RawMessage `json:"payload"`
}

// CrossTransferPayload is the canonical payload of a CrossTransfer
// record. The prepare handler fills the dataset metadata from the
// source registry, so the destination registers exactly what the source
// anchored.
type CrossTransferPayload struct {
	Dataset string            `json:"dataset"`
	Digest  cryptoutil.Digest `json:"digest,omitempty"`
	Schema  string            `json:"schema,omitempty"`
	Records int               `json:"records,omitempty"`
	SiteID  string            `json:"site_id,omitempty"`
	Version int               `json:"version,omitempty"`
}

// CrossFLPayload is the canonical payload of a CrossFLRound record.
type CrossFLPayload struct {
	Round   string    `json:"round"`
	Weights []float64 `json:"weights"`
	Samples int       `json:"samples"`
}

// CrossApplyArgs are the args of cross/"apply" and cross/"expire"
// (destination shard): the full canonical record plus its inclusion
// proof against the relayed source-shard root.
type CrossApplyArgs struct {
	Record CrossRecord   `json:"record"`
	Proof  *merkle.Proof `json:"proof"`
}

// CrossResolveArgs are the args of cross/"resolve" (source shard): the
// destination's resolution plus its inclusion proof against the relayed
// destination-shard root.
type CrossResolveArgs struct {
	Resolution CrossResolution `json:"resolution"`
	Proof      *merkle.Proof   `json:"proof"`
}

// Cross-shard state keys.
func rootKey(shard string, height uint64) string { return fmt.Sprintf("%s/%d", shard, height) }
func crossInKey(src, id string) string           { return src + "/" + id }

func (s *State) crossInit(x *env, a *InitCrossArgs) error {
	if a.ShardID == "" || a.Shards < 1 {
		return fmt.Errorf("%w: init needs shard id and shard count", ErrBadArgs)
	}
	if s.crossCfg != nil {
		return fmt.Errorf("%w: cross-shard config", ErrExists)
	}
	s.crossCfg = &CrossShardConfig{ShardID: a.ShardID, Shards: a.Shards, Coordinator: a.Coordinator}
	s.emit(x.r, CrossContractAddr, "CrossInit", s.crossCfg)
	return nil
}

// Every handler below runs behind the anyChain or memberChain guard, so
// s.crossCfg is set.

func (s *State) registerShard(x *env, a *RegisterShardArgs) error {
	cfg, tx := s.crossCfg, x.tx
	if cfg.ShardID != CoordShardID {
		return fmt.Errorf("%w: register_shard is coordination-chain only", ErrBadArgs)
	}
	if tx.From != cfg.Coordinator {
		return fmt.Errorf("%w: %s is not the coordinator", ErrCrossUnauthorized, tx.From.Short())
	}
	if a.ID == "" || a.ID == CoordShardID {
		return fmt.Errorf("%w: shard id %q", ErrBadArgs, a.ID)
	}
	if _, dup := s.shardDir[a.ID]; dup {
		return fmt.Errorf("%w: shard %q", ErrExists, a.ID)
	}
	committee := append([]cryptoutil.Address(nil), a.Committee...)
	if len(committee) == 0 {
		committee = []cryptoutil.Address{a.Gateway}
	}
	seen := map[cryptoutil.Address]bool{}
	hasGateway := false
	for _, m := range committee {
		if seen[m] {
			return fmt.Errorf("%w: duplicate committee member %s", ErrBadArgs, m.Short())
		}
		seen[m] = true
		if m == a.Gateway {
			hasGateway = true
		}
	}
	if !hasGateway {
		return fmt.Errorf("%w: gateway %s not in its committee", ErrBadArgs, a.Gateway.Short())
	}
	lease := a.LeaseBlocks
	if lease == 0 {
		lease = defaultLeaseBlocks
	}
	s.shardDir[a.ID] = &ShardInfo{
		ID: a.ID, Gateway: a.Gateway, Committee: committee,
		LeaseBlocks: lease, LeaseHeight: x.height, At: x.now,
	}
	s.emit(x.r, CrossContractAddr, "ShardRegistered", s.shardDir[a.ID])
	return nil
}

func (s *State) acquireLease(x *env, a *AcquireLeaseArgs) error {
	tx := x.tx
	if s.crossCfg.ShardID != CoordShardID {
		return fmt.Errorf("%w: acquire_lease is coordination-chain only", ErrBadArgs)
	}
	info, ok := s.shardDir[a.Shard]
	if !ok {
		return fmt.Errorf("%w: shard %q", ErrNotFound, a.Shard)
	}
	if !info.InCommittee(tx.From) {
		return fmt.Errorf("%w: %s is not on the committee of %q", ErrCrossUnauthorized, tx.From.Short(), a.Shard)
	}
	if tx.From == info.Gateway {
		return fmt.Errorf("%w: %s already holds the lease of %q", ErrBadArgs, tx.From.Short(), a.Shard)
	}
	if !info.LeaseExpired(x.height) {
		return fmt.Errorf("%w: %q holder active at height %d, bound %d blocks",
			ErrCrossLease, a.Shard, info.leaseActivity(), info.LeaseBlocks)
	}
	info.Gateway = tx.From
	info.LeaseHeight = x.height
	s.emit(x.r, CrossContractAddr, "LeaseAcquired", info)
	return nil
}

func (s *State) beginEpoch(x *env, a *BeginEpochArgs) error {
	cfg, tx := s.crossCfg, x.tx
	if cfg.ShardID != CoordShardID {
		return fmt.Errorf("%w: begin_epoch is coordination-chain only", ErrBadArgs)
	}
	if tx.From != cfg.Coordinator {
		return fmt.Errorf("%w: %s is not the coordinator", ErrCrossUnauthorized, tx.From.Short())
	}
	if len(a.Shards) == 0 {
		return fmt.Errorf("%w: epoch needs at least one shard", ErrBadArgs)
	}
	seen := map[string]bool{}
	for _, id := range a.Shards {
		if seen[id] {
			return fmt.Errorf("%w: duplicate shard %q in epoch", ErrBadArgs, id)
		}
		seen[id] = true
		if _, ok := s.shardDir[id]; !ok {
			return fmt.Errorf("%w: epoch shard %q not registered", ErrNotFound, id)
		}
	}
	rt := s.routing
	if rt == nil {
		rt = &RoutingTable{}
		s.routing = rt
	}
	if rt.Pending != nil {
		return fmt.Errorf("%w: epoch %d still pending", ErrCrossEpoch, rt.Pending.Epoch)
	}
	var current uint64
	if rt.Current != nil {
		current = rt.Current.Epoch
	}
	if a.Epoch != current+1 {
		return fmt.Errorf("%w: begin %d after %d", ErrCrossEpoch, a.Epoch, current)
	}
	rt.Pending = &RoutingEpoch{Epoch: a.Epoch, Shards: append([]string(nil), a.Shards...), At: x.now}
	s.emit(x.r, CrossContractAddr, "EpochBegun", rt.Pending)
	return nil
}

func (s *State) commitEpoch(x *env, a *CommitEpochArgs) error {
	cfg, tx := s.crossCfg, x.tx
	if cfg.ShardID != CoordShardID {
		return fmt.Errorf("%w: commit_epoch is coordination-chain only", ErrBadArgs)
	}
	if tx.From != cfg.Coordinator {
		return fmt.Errorf("%w: %s is not the coordinator", ErrCrossUnauthorized, tx.From.Short())
	}
	if s.routing == nil || s.routing.Pending == nil {
		return fmt.Errorf("%w: no pending epoch to commit", ErrCrossEpoch)
	}
	if s.routing.Pending.Epoch != a.Epoch {
		return fmt.Errorf("%w: commit %d, pending is %d", ErrCrossEpoch, a.Epoch, s.routing.Pending.Epoch)
	}
	s.routing.Current = s.routing.Pending
	s.routing.Current.At = x.now
	s.routing.Pending = nil
	s.emit(x.r, CrossContractAddr, "EpochCommitted", s.routing.Current)
	return nil
}

func (s *State) anchorRoot(x *env, a *AnchorRootArgs) error {
	cfg, tx := s.crossCfg, x.tx
	if a.Shard == "" || a.Height == 0 {
		return fmt.Errorf("%w: anchor needs shard and height", ErrBadArgs)
	}
	if a.Root == cryptoutil.ZeroDigest {
		return fmt.Errorf("%w: zero root anchors nothing", ErrBadArgs)
	}
	if a.Shard == cfg.ShardID {
		return fmt.Errorf("%w: shard cannot anchor its own root", ErrBadArgs)
	}
	var leaseInfo *ShardInfo
	if cfg.ShardID == CoordShardID {
		// Gateways anchor their shard's roots on the coordination
		// chain; only the current lease holder may.
		info, ok := s.shardDir[a.Shard]
		if !ok {
			return fmt.Errorf("%w: shard %q", ErrNotFound, a.Shard)
		}
		if tx.From != info.Gateway {
			return fmt.Errorf("%w: %s is not the gateway of %q", ErrCrossUnauthorized, tx.From.Short(), a.Shard)
		}
		leaseInfo = info
	} else if tx.From != cfg.Coordinator {
		// Member shards accept relayed roots from the coordinator only.
		return fmt.Errorf("%w: %s is not the coordinator", ErrCrossUnauthorized, tx.From.Short())
	}
	key := rootKey(a.Shard, a.Height)
	if _, dup := s.shardRoots[key]; dup {
		// First anchor wins; a later, conflicting root for the same
		// height is a stale (or equivocating) anchor and is rejected.
		return fmt.Errorf("%w: root %s", ErrExists, key)
	}
	s.shardRoots[key] = &ShardRoot{Shard: a.Shard, Height: a.Height, Root: a.Root, By: tx.From, At: x.now}
	if leaseInfo != nil {
		// An accepted anchor renews the gateway's lease: cadence is
		// measured from the holder's last proof of life.
		leaseInfo.LastAnchor = x.height
	}
	s.emit(x.r, CrossContractAddr, "RootAnchored", s.shardRoots[key])
	return nil
}

func (s *State) crossPrepare(x *env, a *CrossPrepareArgs) error {
	cfg := s.crossCfg
	if a.ID == "" || x.payload == nil {
		return fmt.Errorf("%w: prepare needs id and valid kind", ErrBadArgs)
	}
	if a.DestShard == "" || a.DestShard == cfg.ShardID || a.DestShard == CoordShardID {
		return fmt.Errorf("%w: dest shard %q", ErrBadArgs, a.DestShard)
	}
	if a.DestExpiry == 0 {
		return fmt.Errorf("%w: prepare needs a dest-height expiry", ErrBadArgs)
	}
	if _, dup := s.crossOut[a.ID]; dup {
		return fmt.Errorf("%w: transfer %q", ErrExists, a.ID)
	}
	if x.payloadErr != nil {
		return x.payloadErr
	}
	payload, err := x.payload.validate(s, x.tx)
	if err != nil {
		return err
	}
	rec := CrossRecord{
		ID: a.ID, Kind: a.Kind, SourceShard: cfg.ShardID, DestShard: a.DestShard,
		From: x.tx.From, SourceHeight: x.height, DestExpiry: a.DestExpiry, Payload: payload,
	}
	s.crossOut[a.ID] = &CrossPrepare{Record: rec, Status: CrossPending}
	s.emit(x.r, CrossContractAddr, "CrossPrepared", &rec)
	return nil
}

func (s *State) crossApply(x *env, a *CrossApplyArgs) error  { return s.resolveInbound(x, a, false) }
func (s *State) crossExpire(x *env, a *CrossApplyArgs) error { return s.resolveInbound(x, a, true) }

// resolveInbound records the destination's one decision for a proven
// record: its effect applied or refused before the deadline, expired
// after it.
func (s *State) resolveInbound(x *env, a *CrossApplyArgs, expire bool) error {
	rec := a.Record
	if rec.DestShard != s.crossCfg.ShardID {
		return fmt.Errorf("%w: record destined for %q, this is %q", ErrBadArgs, rec.DestShard, s.crossCfg.ShardID)
	}
	key := crossInKey(rec.SourceShard, rec.ID)
	if _, dup := s.crossIn[key]; dup {
		return fmt.Errorf("%w: transfer %s", ErrCrossReplay, key)
	}
	if err := s.verifyCrossLeaf(rec.SourceShard, rec.SourceHeight, rec.Leaf(), a.Proof); err != nil {
		return err
	}
	res := CrossResolution{
		ID: rec.ID, SourceShard: rec.SourceShard, DestShard: rec.DestShard,
		Kind: rec.Kind, DestHeight: x.height,
	}
	if x.payloadOK() {
		res.Resource = x.payload.resource()
	}
	if expire {
		if x.height <= rec.DestExpiry {
			return fmt.Errorf("%w: transfer %q not expired until dest height %d", ErrBadArgs, rec.ID, rec.DestExpiry)
		}
		res.Reason = "expired"
	} else {
		if x.height > rec.DestExpiry {
			return fmt.Errorf("%w: transfer %q (deadline %d, height %d)", ErrCrossExpired, rec.ID, rec.DestExpiry, x.height)
		}
		// Protocol checks passed: the transfer settles on this chain
		// regardless of whether the application effect succeeds — a
		// refused effect is a negative resolution the source will
		// mirror as an abort, not a retryable failure.
		var refusal error
		switch {
		case x.payload == nil:
			refusal = fmt.Errorf("%w: kind %q", ErrBadArgs, rec.Kind)
		case x.payloadErr != nil:
			refusal = x.payloadErr
		default:
			refusal = x.payload.apply(s, &rec, x.now)
		}
		if refusal != nil {
			res.Reason = refusal.Error()
		} else {
			res.Applied = true
		}
	}
	s.crossIn[key] = &res
	s.emit(x.r, CrossContractAddr, "CrossResolved", &res)
	return nil
}

func (s *State) crossResolve(x *env, a *CrossResolveArgs) error {
	res := a.Resolution
	if res.SourceShard != s.crossCfg.ShardID {
		return fmt.Errorf("%w: resolution for source %q, this is %q", ErrBadArgs, res.SourceShard, s.crossCfg.ShardID)
	}
	prep, ok := s.crossOut[res.ID]
	if !ok {
		return fmt.Errorf("%w: transfer %q", ErrNotFound, res.ID)
	}
	if prep.Status != CrossPending {
		return fmt.Errorf("%w: transfer %q already %s", ErrCrossReplay, res.ID, prep.Status)
	}
	if res.DestShard != prep.Record.DestShard || res.Kind != prep.Record.Kind {
		return fmt.Errorf("%w: resolution disagrees with prepare record", ErrBadArgs)
	}
	if err := s.verifyCrossLeaf(res.DestShard, res.DestHeight, res.Leaf(), a.Proof); err != nil {
		return err
	}
	if err := s.settlePrepare(prep, &res, x.height); err != nil {
		return err
	}
	s.emit(x.r, CrossContractAddr, "CrossSettled", prep)
	return nil
}

// haveConfig is the guard of every cross-shard method but init: the
// chain must have its shard identity.
func (s *State) haveConfig(*ledger.Transaction) error {
	if s.crossCfg == nil {
		return fmt.Errorf("%w: cross-shard config (run cross/init first)", ErrNotFound)
	}
	return nil
}

// haveMemberConfig is haveConfig restricted to member shards: the
// coordination chain carries no application state, so transfers never
// originate or land there.
func (s *State) haveMemberConfig(tx *ledger.Transaction) error {
	if err := s.haveConfig(tx); err != nil {
		return err
	}
	if s.crossCfg.ShardID == CoordShardID {
		return fmt.Errorf("%w: coordination chain carries no transfers", ErrBadArgs)
	}
	return nil
}

// skipCrossProofVerify is a mutation seam (export_test.go sets it):
// verifyCrossLeaf accepts any proof of a leaf under an anchored root, so
// TestShardedSimCatchesSkippedProofVerification can show the sharded
// sim's shadow verifier catches a chain that stops checking proofs.
// False outside tests.
var skipCrossProofVerify bool

// verifyCrossLeaf checks a Merkle inclusion proof of leaf against the
// anchored root of (shard, height), returning typed errors.
func (s *State) verifyCrossLeaf(shard string, height uint64, leaf []byte, proof *merkle.Proof) error {
	anchored, ok := s.shardRoots[rootKey(shard, height)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrCrossUnanchored, rootKey(shard, height))
	}
	if skipCrossProofVerify {
		return nil
	}
	if !merkle.Verify(anchored.Root, leaf, proof) {
		return fmt.Errorf("%w: leaf not under root %s", ErrCrossProof, rootKey(shard, height))
	}
	return nil
}

// The three transfer kinds, as crossPayload (methods.go): what each
// names, what its two sides touch, the source-side check that returns
// the canonical record payload, and the destination-side effect whose
// error is a refusal.

func (g *GrantArgs) resource() string { return g.Resource }

// Check(consume=false) on the source policy is a pure read.
func (g *GrantArgs) prepareAccess(acc *AccessSet) { acc.read(KeyPolicy(g.Resource)) }
func (g *GrantArgs) applyAccess(acc *AccessSet)   { acc.write(KeyPolicy(g.Resource)) }

func (g *GrantArgs) validate(*State, *ledger.Transaction) (json.RawMessage, error) {
	if g.Resource == "" {
		return nil, fmt.Errorf("%w: consent needs a resource", ErrBadArgs)
	}
	for _, act := range g.Actions {
		if !ValidAction(act) {
			return nil, fmt.Errorf("%w: action %q", ErrBadArgs, act)
		}
	}
	payload, _ := json.Marshal(g)
	return payload, nil
}

func (g *GrantArgs) apply(s *State, rec *CrossRecord, now int64) error {
	p, ok := s.policies[g.Resource]
	if !ok {
		return fmt.Errorf("%w: resource %q", ErrNotFound, g.Resource)
	}
	if d := p.Check(rec.From, ActionAdmin, "", now, false); !d.Allowed {
		return fmt.Errorf("%w: %s cannot administer %q", ErrDenied, rec.From.Short(), g.Resource)
	}
	p.Grants = append(p.Grants, Grant{
		Grantee: g.Grantee, Actions: append([]Action(nil), g.Actions...),
		Purpose: g.Purpose, ExpiresAt: g.ExpiresAt, MaxUses: g.MaxUses,
	})
	return nil
}

func (p *CrossTransferPayload) resource() string { return p.Dataset }

// A prepare freezes the dataset; an apply registers it with its policy.
func (p *CrossTransferPayload) prepareAccess(acc *AccessSet) { acc.write(KeyDataset(p.Dataset)) }
func (p *CrossTransferPayload) applyAccess(acc *AccessSet) {
	acc.write(KeyDataset(p.Dataset), KeyPolicy(dataKey(p.Dataset)), KeyRegistry)
}

func (p *CrossTransferPayload) validate(s *State, tx *ledger.Transaction) (json.RawMessage, error) {
	ds, ok := s.datasets[p.Dataset]
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q", ErrNotFound, p.Dataset)
	}
	if tx.From != ds.Owner {
		return nil, fmt.Errorf("%w: only the owner transfers %q", ErrNotOwner, p.Dataset)
	}
	if ds.Frozen {
		return nil, fmt.Errorf("%w: dataset %q already in transfer", ErrExists, p.Dataset)
	}
	if ds.MovedTo != "" {
		return nil, fmt.Errorf("%w: dataset %q moved to %q", ErrNotFound, p.Dataset, ds.MovedTo)
	}
	// Freeze: no updates while the transfer is in flight, so the
	// destination registers exactly the anchored version and a
	// partial application is never visible.
	ds.Frozen = true
	payload, _ := json.Marshal(&CrossTransferPayload{
		Dataset: ds.ID, Digest: ds.Digest, Schema: ds.Schema,
		Records: ds.Records, SiteID: ds.SiteID, Version: ds.Version,
	})
	return payload, nil
}

func (p *CrossTransferPayload) apply(s *State, rec *CrossRecord, now int64) error {
	if prev, dup := s.datasets[p.Dataset]; dup && prev.MovedTo == "" {
		return fmt.Errorf("%w: dataset %q", ErrExists, p.Dataset)
	}
	// A tombstone (MovedTo set) is overwritten: the dataset once left
	// this shard and a verified transfer is bringing it back — an
	// epoch reshard routinely round-trips datasets.
	s.datasets[p.Dataset] = &Dataset{
		ID: p.Dataset, Owner: rec.From, Digest: p.Digest, Schema: p.Schema,
		Records: p.Records, SiteID: p.SiteID, RegisteredAt: now,
		Version: p.Version, UpdatedAt: now,
	}
	s.policies[dataKey(p.Dataset)] = &Policy{Owner: rec.From}
	return nil
}

func (p *CrossFLPayload) resource() string { return p.Round }

// The source validates the payload but touches no state of its own.
func (p *CrossFLPayload) prepareAccess(*AccessSet)   {}
func (p *CrossFLPayload) applyAccess(acc *AccessSet) { acc.write(KeyFLRound(p.Round)) }

func (p *CrossFLPayload) validate(*State, *ledger.Transaction) (json.RawMessage, error) {
	if p.Round == "" || len(p.Weights) == 0 || len(p.Weights) > maxFLWeights || p.Samples < 1 {
		return nil, fmt.Errorf("%w: fl payload needs round, 1..%d weights, samples >= 1", ErrBadArgs, maxFLWeights)
	}
	payload, _ := json.Marshal(p)
	return payload, nil
}

func (p *CrossFLPayload) apply(s *State, rec *CrossRecord, now int64) error {
	round := s.flRounds[p.Round]
	if round == nil {
		round = &FLRound{Round: p.Round}
		s.flRounds[p.Round] = round
	}
	for _, c := range round.Contributions {
		if c.Shard == rec.SourceShard {
			return fmt.Errorf("%w: shard %q already contributed to round %q", ErrExists, rec.SourceShard, p.Round)
		}
	}
	round.Contributions = append(round.Contributions, FLContribution{
		Shard: rec.SourceShard, From: rec.From,
		Weights: append([]float64(nil), p.Weights...), Samples: p.Samples,
	})
	round.recomputeAggregate()
	round.UpdatedAt = now
	return nil
}

// recomputeAggregate rebuilds the sample-weighted mean over all
// contributions in arrival order (chain order, hence deterministic).
func (fl *FLRound) recomputeAggregate() {
	fl.TotalSamples = 0
	var width int
	for _, c := range fl.Contributions {
		if len(c.Weights) > width {
			width = len(c.Weights)
		}
		fl.TotalSamples += c.Samples
	}
	agg := make([]float64, width)
	if fl.TotalSamples > 0 {
		for _, c := range fl.Contributions {
			w := float64(c.Samples) / float64(fl.TotalSamples)
			for i, v := range c.Weights {
				agg[i] += w * v
			}
		}
	}
	fl.Aggregate = agg
}

// settlePrepare mirrors the destination's resolution onto the source
// prepare: commit tombstones a transferred dataset, abort thaws it. The
// payload it decodes is the stored record's, which validateTransfer
// wrote — the one decode in this package not made by Prepare.
func (s *State) settlePrepare(prep *CrossPrepare, res *CrossResolution, height uint64) error {
	if prep.Record.Kind == CrossTransfer {
		var p CrossTransferPayload
		if err := decodeArgs(prep.Record.Payload, &p); err != nil {
			return err
		}
		if res.Resource != p.Dataset {
			// The declared access set was derived from res.Resource; a
			// resolution naming a different resource than the prepare
			// would touch undeclared state, so it is rejected before any
			// dataset access.
			return fmt.Errorf("%w: resolution resource %q, prepared dataset %q", ErrBadArgs, res.Resource, p.Dataset)
		}
		if ds, ok := s.datasets[p.Dataset]; ok {
			ds.Frozen = false
			if res.Applied {
				// Tombstone, not delete: the registry keeps an auditable
				// forwarding record, and parallel-execution merge
				// semantics (which adopt written objects, never remove
				// them) stay sound.
				ds.MovedTo = prep.Record.DestShard
			}
		}
	}
	if res.Applied {
		prep.Status = CrossCommitted
	} else {
		prep.Status = CrossAborted
		prep.Reason = res.Reason
	}
	prep.ResolvedAt = height
	return nil
}

// --- read API ---

// CrossConfig returns the chain's shard config, if initialized.
func (s *State) CrossConfig() (CrossShardConfig, bool) { return crossCfgKind.get(s) }

// ShardDirectory returns the registered shards, sorted by ID.
func (s *State) ShardDirectory() []ShardInfo { return shardDirKind.all(s) }

// ShardInfoOf returns one shard's directory entry (committee, lease
// state) on the coordination chain.
func (s *State) ShardInfoOf(id string) (ShardInfo, bool) { return shardDirKind.get(s, id) }

// Routing returns the coordination chain's routing-epoch table: the
// committed current epoch and, mid-transition, the pending one.
func (s *State) Routing() (RoutingTable, bool) { return routingKind.get(s) }

// ShardRootAt returns the anchored root of (shard, height).
func (s *State) ShardRootAt(shard string, height uint64) (ShardRoot, bool) {
	return shardRootKind.get(s, rootKey(shard, height))
}

// CrossOutbound returns the source-side state of one transfer.
func (s *State) CrossOutbound(id string) (CrossPrepare, bool) { return crossOutKind.get(s, id) }

// CrossOutboundAll returns every source-side transfer, sorted by ID.
func (s *State) CrossOutboundAll() []CrossPrepare { return crossOutKind.all(s) }

// CrossInbound returns the destination-side resolution of one transfer.
func (s *State) CrossInbound(sourceShard, id string) (CrossResolution, bool) {
	return crossInKind.get(s, crossInKey(sourceShard, id))
}

// CrossInboundAll returns every destination-side resolution, sorted by
// source-shard/ID key.
func (s *State) CrossInboundAll() []CrossResolution { return crossInKind.all(s) }

// FLRoundOf returns a federated round's aggregation state.
func (s *State) FLRoundOf(round string) (FLRound, bool) { return flRoundKind.get(s, round) }
