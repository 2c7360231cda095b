package contract

import (
	"encoding/json"
	"fmt"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// This file implements the read/write-set model the parallel execution
// engine (internal/parexec) is built on. Each transaction's state
// footprint is derived statically from its payload — the Solana-style
// declared-access-list approach — as a sound over-approximation: a
// derived set may name keys the transaction ends up not touching
// (e.g. because it fails a policy check), but it never misses a key the
// transaction could read or write. Speculative execution against a
// snapshot of exactly these keys is therefore equivalent to serial
// execution whenever no earlier transaction in the block wrote into the
// set.

// keyKind partitions the state machine's tables. The values are never
// stored or hashed — the state root places a key by its kind's tag (see
// root.go) — so their order carries no meaning.
type keyKind uint8

const (
	kindDataset keyKind = iota + 1
	kindTool
	kindPolicy
	kindTrial
	kindAnchor
	kindManifest  // a dataset's off-chain manifest accumulator
	kindEvidence  // one recorded equivocation proof
	kindCrossCfg  // the chain's one-time shard identity (singleton)
	kindShardDir  // one coordination-chain routing-table entry
	kindRouting   // the coordination chain's routing-epoch table (singleton)
	kindShardRoot // one anchored/relayed shard root (shard/height)
	kindCrossOut  // one outbound cross-shard prepare (by transfer ID)
	kindCrossIn   // one inbound cross-shard resolution (by src/ID)
	kindFLRound   // one federated-learning round aggregation
	kindVM        // a deployed contract: code and storage
	kindRegistry  // virtual key: the dataset/tool registry as a whole
	kindSeq       // the request-sequence counter
	numKinds      // one past the last kind; sizes the kinds table
)

func (k keyKind) String() string {
	if k < numKinds {
		return kinds[k].tag()
	}
	return "?"
}

// StateKey names one lockable unit of contract state: a dataset, a
// tool, a policy, a trial, an anchor, a deployed VM contract (code +
// storage), the request-sequence counter, or the registry as a whole.
// StateKey is comparable and usable as a map key.
type StateKey struct {
	kind keyKind
	id   string
	addr cryptoutil.Address
}

// String renders the key for logs and tests.
func (k StateKey) String() string {
	switch k.kind {
	case kindVM:
		return k.kind.String() + "/" + k.addr.String()
	case kindSeq, kindRegistry, kindCrossCfg, kindRouting:
		return k.kind.String()
	default:
		return k.kind.String() + "/" + k.id
	}
}

// Key constructors.
func KeyDataset(id string) StateKey       { return StateKey{kind: kindDataset, id: id} }
func KeyTool(id string) StateKey          { return StateKey{kind: kindTool, id: id} }
func KeyPolicy(resource string) StateKey  { return StateKey{kind: kindPolicy, id: resource} }
func KeyTrial(id string) StateKey         { return StateKey{kind: kindTrial, id: id} }
func KeyAnchor(label string) StateKey     { return StateKey{kind: kindAnchor, id: label} }
func KeyEvidence(key string) StateKey     { return StateKey{kind: kindEvidence, id: key} }
func KeyVM(a cryptoutil.Address) StateKey { return StateKey{kind: kindVM, addr: a} }

// KeyManifestSet locks one dataset's manifest accumulator.
func KeyManifestSet(dataset string) StateKey { return StateKey{kind: kindManifest, id: dataset} }

// Cross-shard key constructors (see xshard.go).
func KeyShardInfo(id string) StateKey { return StateKey{kind: kindShardDir, id: id} }
func KeyShardRoot(shard string, height uint64) StateKey {
	return StateKey{kind: kindShardRoot, id: rootKey(shard, height)}
}
func KeyCrossOut(id string) StateKey { return StateKey{kind: kindCrossOut, id: id} }
func KeyCrossIn(sourceShard, id string) StateKey {
	return StateKey{kind: kindCrossIn, id: crossInKey(sourceShard, id)}
}
func KeyFLRound(round string) StateKey { return StateKey{kind: kindFLRound, id: round} }

// Singleton keys.
var (
	// KeySeq is the request-sequence counter every request_access /
	// request_run increments — two such transactions always conflict.
	KeySeq = StateKey{kind: kindSeq}
	// KeyRegistry is the virtual whole-registry key: VM invocations read
	// it (HOST registry.* calls may enumerate any dataset or tool) and
	// dataset/tool registrations write it.
	KeyRegistry = StateKey{kind: kindRegistry}
	// KeyCrossConfig is the chain's one-time shard identity; every
	// cross-shard method reads it and "init" writes it.
	KeyCrossConfig = StateKey{kind: kindCrossCfg}
	// KeyRouting is the coordination chain's routing-epoch table;
	// begin_epoch / commit_epoch write it, routers read it off-chain.
	KeyRouting = StateKey{kind: kindRouting}
)

// AccessSet is a transaction's declared state footprint.
type AccessSet struct {
	// Reads are keys the transaction may read without modifying.
	Reads []StateKey
	// Writes are keys the transaction may create or mutate. A write
	// implies a read (all mutations are read-modify-write at key
	// granularity), so conflict checks use Touched. Writes is also what
	// State.Root re-hashes after the transaction, under every execution
	// mode: it must cover everything Apply can mutate.
	Writes []StateKey
	// Unknown marks a transaction whose footprint could not be bounded;
	// the engine executes it (and everything after it in the block)
	// serially, and the state rebuilds its root tree. It covers nil
	// transactions, payloads whose arguments fail to decode, and future
	// transaction types.
	Unknown bool
}

// Touched returns reads and writes combined — the conflict-check set.
func (a AccessSet) Touched() []StateKey {
	out := make([]StateKey, 0, len(a.Reads)+len(a.Writes))
	out = append(out, a.Reads...)
	out = append(out, a.Writes...)
	return out
}

// String renders the set for logs and tests.
func (a AccessSet) String() string {
	if a.Unknown {
		return "access{unknown}"
	}
	return fmt.Sprintf("access{r=%v w=%v}", a.Reads, a.Writes)
}

func (a *AccessSet) read(keys ...StateKey)  { a.Reads = append(a.Reads, keys...) }
func (a *AccessSet) write(keys ...StateKey) { a.Writes = append(a.Writes, keys...) }

// AccessSetOf derives a transaction's declared access set from its
// payload alone (no state needed), so derivation can run concurrently
// for every transaction of a block. Arguments are decoded with exactly
// the per-method structs Apply uses, so a payload that decodes here
// decodes identically there; if decoding fails the set is Unknown,
// which forces serial execution. Returning anything weaker on a decode
// failure would be unsound: a payload could conceivably fail one
// decoding but pass another, and a transaction speculated against an
// empty snapshot would then diverge from serial execution on
// attacker-submittable input.
func AccessSetOf(tx *ledger.Transaction) AccessSet {
	if tx == nil {
		return AccessSet{Unknown: true}
	}
	var a AccessSet
	switch tx.Type {
	case ledger.TxData:
		deriveData(tx, &a)
	case ledger.TxAnalytics:
		deriveAnalytics(tx, &a)
	case ledger.TxTrial:
		deriveTrial(tx, &a)
	case ledger.TxAnchor:
		var args AnchorArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			break
		}
		a.write(KeyAnchor(args.Label))
	case ledger.TxAudit:
		var args ReportEvidenceArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			break
		}
		a.write(KeyEvidence(evidenceKey(args.Kind, args.Height, args.Offender)))
	case ledger.TxCross:
		deriveCross(tx, &a)
	case ledger.TxDeploy:
		a.write(KeyVM(DeployedAddress(tx.From, tx.Nonce)))
	case ledger.TxInvoke:
		// The program may call HOST registry.* functions, which read
		// arbitrary datasets and tools — declare a read of the whole
		// registry so invocations conflict with registrations.
		a.read(KeyRegistry)
		a.write(KeyVM(tx.Contract))
	}
	if a.Unknown {
		// Drop any keys derived before the failure.
		return AccessSet{Unknown: true}
	}
	return a
}

func deriveData(tx *ledger.Transaction, a *AccessSet) {
	switch tx.Method {
	case "register_dataset", "update_dataset":
		var args RegisterDatasetArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyDataset(args.ID), KeyPolicy(dataKey(args.ID)), KeyRegistry)
	case "grant":
		var args GrantArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyPolicy(args.Resource))
	case "revoke":
		var args RevokeArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyPolicy(args.Resource))
	case "register_manifests":
		var args RegisterManifestsArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		// The dataset is read for the ownership check; only the
		// accumulator is mutated.
		a.read(KeyDataset(args.Dataset))
		a.write(KeyManifestSet(args.Dataset))
	case "request_access":
		var args RequestAccessArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		// Check(consume=true) mutates grant use counters, so the policy
		// is a write; the dataset is read for oracle routing (SiteID).
		a.read(KeyDataset(trimPrefix(args.Resource, "data:")))
		a.write(KeyPolicy(args.Resource), KeySeq)
	}
}

func deriveAnalytics(tx *ledger.Transaction, a *AccessSet) {
	switch tx.Method {
	case "register_tool":
		var args RegisterToolArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyTool(args.ID), KeyPolicy(toolKey(args.ID)), KeyRegistry)
	case "grant", "revoke":
		// Tool policies share the data-contract handlers.
		deriveData(&ledger.Transaction{Type: ledger.TxData, Method: tx.Method, Args: tx.Args}, a)
	case "request_run":
		var args RequestRunArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.read(KeyTool(args.Tool), KeyDataset(args.Dataset))
		a.write(KeyPolicy(dataKey(args.Dataset)), KeyPolicy(toolKey(args.Tool)), KeySeq)
	}
}

// deriveCross bounds a cross-shard transaction's footprint from its
// payload. The handlers are written so a transaction that fails any
// check touches only keys declared here — in particular, apply/resolve
// validate the proof-carried record/resolution against the declared
// resource before mutating it (see xshard.go).
func deriveCross(tx *ledger.Transaction, a *AccessSet) {
	switch tx.Method {
	case "init":
		a.write(KeyCrossConfig)
	case "register_shard":
		var args RegisterShardArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.read(KeyCrossConfig)
		a.write(KeyShardInfo(args.ID))
	case "anchor_root":
		var args AnchorRootArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		// On the coordination chain an accepted anchor renews the
		// gateway's lease (LastAnchor), so the directory entry is a
		// write, not just an authorization read.
		a.read(KeyCrossConfig)
		a.write(KeyShardRoot(args.Shard, args.Height), KeyShardInfo(args.Shard))
	case "acquire_lease":
		var args AcquireLeaseArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.read(KeyCrossConfig)
		a.write(KeyShardInfo(args.Shard))
	case "begin_epoch":
		var args BeginEpochArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.read(KeyCrossConfig)
		for _, id := range args.Shards {
			a.read(KeyShardInfo(id))
		}
		a.write(KeyRouting)
	case "commit_epoch":
		a.read(KeyCrossConfig)
		a.write(KeyRouting)
	case "prepare":
		var args CrossPrepareArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.read(KeyCrossConfig)
		a.write(KeyCrossOut(args.ID))
		switch args.Kind {
		case CrossConsent:
			var g GrantArgs
			if json.Unmarshal(args.Payload, &g) != nil {
				a.Unknown = true
				return
			}
			// Check(consume=false) on the source policy is a pure read.
			a.read(KeyPolicy(g.Resource))
		case CrossTransfer:
			var p CrossTransferPayload
			if json.Unmarshal(args.Payload, &p) != nil {
				a.Unknown = true
				return
			}
			a.write(KeyDataset(p.Dataset)) // freeze
		case CrossFLRound:
			// Payload is validated but no local state is touched.
		default:
			a.Unknown = true
		}
	case "apply", "expire":
		var args CrossApplyArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		rec := args.Record
		a.read(KeyCrossConfig, KeyShardRoot(rec.SourceShard, rec.SourceHeight))
		a.write(KeyCrossIn(rec.SourceShard, rec.ID))
		if tx.Method == "expire" {
			return
		}
		switch rec.Kind {
		case CrossConsent:
			var g GrantArgs
			if json.Unmarshal(rec.Payload, &g) != nil {
				a.Unknown = true
				return
			}
			a.write(KeyPolicy(g.Resource))
		case CrossTransfer:
			var p CrossTransferPayload
			if json.Unmarshal(rec.Payload, &p) != nil {
				a.Unknown = true
				return
			}
			a.write(KeyDataset(p.Dataset), KeyPolicy(dataKey(p.Dataset)), KeyRegistry)
		case CrossFLRound:
			var p CrossFLPayload
			if json.Unmarshal(rec.Payload, &p) != nil {
				a.Unknown = true
				return
			}
			a.write(KeyFLRound(p.Round))
		default:
			a.Unknown = true
		}
	case "resolve":
		var args CrossResolveArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		res := args.Resolution
		a.read(KeyCrossConfig, KeyShardRoot(res.DestShard, res.DestHeight))
		a.write(KeyCrossOut(res.ID))
		if res.Kind == CrossTransfer {
			// settlePrepare thaws/tombstones the dataset named by the
			// resolution; the handler rejects a resolution whose resource
			// disagrees with the prepare's payload, so no other dataset
			// can be touched.
			a.write(KeyDataset(res.Resource))
		}
	default:
		a.Unknown = true
	}
}

func deriveTrial(tx *ledger.Transaction, a *AccessSet) {
	switch tx.Method {
	case "register_trial":
		var args RegisterTrialArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyTrial(args.ID))
	case "enroll":
		var args EnrollArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyTrial(args.Trial))
	case "report_outcomes":
		var args ReportOutcomesArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyTrial(args.Trial))
	case "adverse_event":
		var args AdverseEventArgs
		if json.Unmarshal(tx.Args, &args) != nil {
			a.Unknown = true
			return
		}
		a.write(KeyTrial(args.Trial))
	}
}
