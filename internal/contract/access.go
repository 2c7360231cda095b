package contract

import (
	"fmt"

	"medchain/internal/cryptoutil"
	"medchain/internal/ledger"
)

// This file implements the read/write-set model the parallel execution
// engine (internal/parexec) is built on. Each transaction's state
// footprint is derived statically from its payload — the Solana-style
// declared-access-list approach, one footprint function per entry of
// the method table (methods.go) — as a sound over-approximation: a
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

// AccessSet is a transaction's declared state footprint. It is always
// bounded: a transaction that cannot reach a handler declares no writes
// (see Prepare).
type AccessSet struct {
	// Reads are keys the transaction may read without modifying.
	Reads []StateKey
	// Writes are keys the transaction may create or mutate. A write
	// implies a read (all mutations are read-modify-write at key
	// granularity), so conflict checks use Touched. Writes is also what
	// State.Root re-hashes after the transaction, under every execution
	// mode: it must cover everything the handler can mutate.
	Writes []StateKey
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
	return fmt.Sprintf("access{r=%v w=%v}", a.Reads, a.Writes)
}

func (a *AccessSet) read(keys ...StateKey)  { a.Reads = append(a.Reads, keys...) }
func (a *AccessSet) write(keys ...StateKey) { a.Writes = append(a.Writes, keys...) }

// AccessSetOf derives a transaction's declared access set from its
// payload alone (no state needed). It is Prepare's footprint: whoever
// goes on to execute the transaction keeps the Call instead, so the
// arguments are decoded once.
func AccessSetOf(tx *ledger.Transaction) AccessSet { return Prepare(tx).Access() }
