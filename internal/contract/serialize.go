package contract

import "medchain/internal/cryptoutil"

// StateExport is the serializable form of a State: every table as a
// deterministically-ordered slice (JSON maps cannot key on Address,
// and sorted slices make the encoded bytes stable, which the storage
// engine's snapshot checksums rely on). Export/ImportState round-trip
// exactly: the imported state computes the same Root.
type StateExport struct {
	// Datasets, Tools, Trials, Anchors are the registry tables, sorted
	// by ID/label.
	Datasets []Dataset `json:"datasets,omitempty"`
	Tools    []Tool    `json:"tools,omitempty"`
	Trials   []Trial   `json:"trials,omitempty"`
	Anchors  []Anchor  `json:"anchors,omitempty"`
	// Evidence are the recorded equivocation proofs, sorted by
	// kind/height/offender key.
	Evidence []EvidenceRecord `json:"evidence,omitempty"`
	// Policies are the access policies, sorted by resource key.
	Policies []PolicyExport `json:"policies,omitempty"`
	// Deployed are the VM contracts, sorted by address string.
	Deployed []Deployed `json:"deployed,omitempty"`
	// VMStorage is per-contract key/value storage, sorted by address
	// then key.
	VMStorage []VMStorageExport `json:"vm_storage,omitempty"`
	// ManifestSets are the per-dataset off-chain manifest accumulators,
	// sorted by dataset ID.
	ManifestSets []ManifestSet `json:"manifest_sets,omitempty"`
	// CrossConfig is the chain's shard identity (nil on unsharded
	// chains); the remaining cross-shard tables are sorted by their map
	// keys.
	CrossConfig *CrossShardConfig `json:"cross_config,omitempty"`
	ShardDir    []ShardInfo       `json:"shard_dir,omitempty"`
	ShardRoots  []ShardRoot       `json:"shard_roots,omitempty"`
	CrossOut    []CrossPrepare    `json:"cross_out,omitempty"`
	CrossIn     []CrossResolution `json:"cross_in,omitempty"`
	FLRounds    []FLRound         `json:"fl_rounds,omitempty"`
	// Routing is the coordination chain's routing-epoch table (nil
	// until the first begin_epoch).
	Routing *RoutingTable `json:"routing,omitempty"`
	// RequestSeq is the access/run request counter.
	RequestSeq uint64 `json:"request_seq"`
}

// PolicyExport pairs a resource key with its policy.
type PolicyExport struct {
	Resource string `json:"resource"`
	Policy   Policy `json:"policy"`
}

// VMStorageExport is one contract's storage table.
type VMStorageExport struct {
	Address cryptoutil.Address `json:"address"`
	Pairs   []VMPair           `json:"pairs,omitempty"`
}

// VMPair is one storage key/value ([]byte fields encode as base64 in
// JSON).
type VMPair struct {
	Key   []byte `json:"k"`
	Value []byte `json:"v"`
}

// Export deep-copies the state into its serializable form.
func (s *State) Export() *StateExport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ex := &StateExport{}
	for _, k := range kinds {
		k.export(s, ex)
	}
	return ex
}

// ImportState reconstructs a State from an export.
func ImportState(ex *StateExport) *State {
	s := NewState()
	for _, k := range kinds {
		k.load(s, ex)
	}
	return s
}
