package contract

import (
	"encoding/json"
	"sort"

	"medchain/internal/cryptoutil"
	"medchain/internal/vm"
)

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

// Export deep-copies the state into its serializable form. The host
// function table is not exported — it is process configuration, not
// replicated state; reinstall it with SetHost or AdoptHostFrom after
// ImportState.
func (s *State) Export() *StateExport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ex := &StateExport{RequestSeq: s.requestSeq}
	forSortedKeys(s.datasets, func(_ string, d *Dataset) {
		ex.Datasets = append(ex.Datasets, *d)
	})
	forSortedKeys(s.tools, func(_ string, t *Tool) {
		ex.Tools = append(ex.Tools, *t)
	})
	forSortedKeys(s.trials, func(_ string, t *Trial) {
		ex.Trials = append(ex.Trials, *copyTrial(t))
	})
	forSortedKeys(s.anchors, func(_ string, a *Anchor) {
		ex.Anchors = append(ex.Anchors, *a)
	})
	forSortedKeys(s.evidence, func(_ string, e *EvidenceRecord) {
		rec := *e
		rec.Evidence = append(json.RawMessage(nil), e.Evidence...)
		ex.Evidence = append(ex.Evidence, rec)
	})
	forSortedKeys(s.policies, func(key string, p *Policy) {
		ex.Policies = append(ex.Policies, PolicyExport{Resource: key, Policy: *copyPolicy(p)})
	})
	forSortedKeys(s.manifestSets, func(_ string, ms *ManifestSet) {
		ex.ManifestSets = append(ex.ManifestSets, *ms)
	})
	if s.crossCfg != nil {
		cfg := *s.crossCfg
		ex.CrossConfig = &cfg
	}
	ex.Routing = copyRoutingTable(s.routing)
	forSortedKeys(s.shardDir, func(_ string, info *ShardInfo) {
		ex.ShardDir = append(ex.ShardDir, *copyShardInfo(info))
	})
	forSortedKeys(s.shardRoots, func(_ string, root *ShardRoot) {
		ex.ShardRoots = append(ex.ShardRoots, *root)
	})
	forSortedKeys(s.crossOut, func(_ string, prep *CrossPrepare) {
		ex.CrossOut = append(ex.CrossOut, *copyCrossPrepare(prep))
	})
	forSortedKeys(s.crossIn, func(_ string, res *CrossResolution) {
		ex.CrossIn = append(ex.CrossIn, *res)
	})
	forSortedKeys(s.flRounds, func(_ string, fl *FLRound) {
		ex.FLRounds = append(ex.FLRounds, *copyFLRound(fl))
	})
	addrs := make([]string, 0, len(s.deployed))
	byAddr := make(map[string]cryptoutil.Address, len(s.deployed))
	for addr := range s.deployed {
		k := addr.String()
		addrs = append(addrs, k)
		byAddr[k] = addr
	}
	sort.Strings(addrs)
	for _, k := range addrs {
		addr := byAddr[k]
		d := *s.deployed[addr]
		d.Code = append([]byte(nil), d.Code...)
		ex.Deployed = append(ex.Deployed, d)
		st, ok := s.vmStorage[addr]
		if !ok {
			continue
		}
		entry := VMStorageExport{Address: addr}
		keys := st.Keys()
		sort.Strings(keys)
		for _, key := range keys {
			v, _ := st.Get([]byte(key))
			entry.Pairs = append(entry.Pairs, VMPair{
				Key: []byte(key), Value: append([]byte(nil), v...),
			})
		}
		ex.VMStorage = append(ex.VMStorage, entry)
	}
	return ex
}

// ImportState reconstructs a State from an export. The returned state
// has no host table (see Export).
func ImportState(ex *StateExport) *State {
	s := NewState()
	s.requestSeq = ex.RequestSeq
	for i := range ex.Datasets {
		d := ex.Datasets[i]
		s.datasets[d.ID] = &d
	}
	for i := range ex.Tools {
		t := ex.Tools[i]
		s.tools[t.ID] = &t
	}
	for i := range ex.Trials {
		s.trials[ex.Trials[i].ID] = copyTrial(&ex.Trials[i])
	}
	for i := range ex.Anchors {
		a := ex.Anchors[i]
		s.anchors[a.Label] = &a
	}
	for i := range ex.Evidence {
		e := ex.Evidence[i]
		e.Evidence = append(json.RawMessage(nil), e.Evidence...)
		s.evidence[evidenceKey(e.Kind, e.Height, e.Offender)] = &e
	}
	for i := range ex.Policies {
		s.policies[ex.Policies[i].Resource] = copyPolicy(&ex.Policies[i].Policy)
	}
	for i := range ex.ManifestSets {
		ms := ex.ManifestSets[i]
		s.manifestSets[ms.Dataset] = &ms
	}
	if ex.CrossConfig != nil {
		cfg := *ex.CrossConfig
		s.crossCfg = &cfg
	}
	s.routing = copyRoutingTable(ex.Routing)
	for i := range ex.ShardDir {
		s.shardDir[ex.ShardDir[i].ID] = copyShardInfo(&ex.ShardDir[i])
	}
	for i := range ex.ShardRoots {
		root := ex.ShardRoots[i]
		s.shardRoots[rootKey(root.Shard, root.Height)] = &root
	}
	for i := range ex.CrossOut {
		s.crossOut[ex.CrossOut[i].Record.ID] = copyCrossPrepare(&ex.CrossOut[i])
	}
	for i := range ex.CrossIn {
		res := ex.CrossIn[i]
		s.crossIn[crossInKey(res.SourceShard, res.ID)] = &res
	}
	for i := range ex.FLRounds {
		s.flRounds[ex.FLRounds[i].Round] = copyFLRound(&ex.FLRounds[i])
	}
	for i := range ex.Deployed {
		d := ex.Deployed[i]
		s.deployed[d.Address] = &d
		s.vmStorage[d.Address] = vm.NewMemStorage()
	}
	for _, entry := range ex.VMStorage {
		ms := vm.NewMemStorage()
		for _, kv := range entry.Pairs {
			ms.Set(kv.Key, kv.Value)
		}
		s.vmStorage[entry.Address] = ms
	}
	return s
}

// AdoptHostFrom installs src's host table on s, rebinding the
// "registry.*" entries to s's own registry (the same rule Clone and
// Versions.SnapshotAt apply). A nil src host leaves s without one. The
// storage engine's recovery path uses this to carry a node's oracle
// bridges onto the state it rebuilt from disk.
func (s *State) AdoptHostFrom(src *State) {
	src.mu.RLock()
	host := src.host
	src.mu.RUnlock()
	if host == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	merged := s.RegistryHostFuncs()
	for name, fn := range host {
		if _, registry := merged[name]; !registry {
			merged[name] = fn
		}
	}
	s.host = merged
}
