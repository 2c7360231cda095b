package contract

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"medchain/internal/cryptoutil"
	"medchain/internal/vm"
)

// This file is the one place that knows how each keyKind is stored. A
// stateKind describes one kind — where its objects live on a *State,
// how to deep-copy one, what it contributes to the state root and which
// StateExport field carries it — and NewState, Clone, the snapshot
// share/copy/merge steps, the root tree (root.go), Export, ImportState
// and keyKind.String are each a single loop over the kinds array. Adding
// a kind is one entry here, its apply method, and its access-set
// derivation (DESIGN.md §5).

// stateKind is the per-kind behaviour the generic state plumbing needs.
// dst is always a state private to the caller; src is read-locked or
// frozen.
type stateKind interface {
	// tag is the kind's root-leaf tag and its name in logs.
	tag() string
	// alloc creates the kind's empty table on a new state.
	alloc(s *State)
	// cloneInto deep-copies every object of the kind.
	cloneInto(dst, src *State)
	// share installs src's object for k in dst without copying: a read
	// key's view of a frozen source, or the adoption of an object a
	// finished snapshot wrote.
	share(dst, src *State, k StateKey)
	// copyInto installs a private deep copy of src's object for k.
	copyInto(dst, src *State, k StateKey)
	// eachKey calls fn with the key of every stored object, its kind left
	// for the caller to fill in.
	eachKey(s *State, fn func(StateKey))
	// leafOf appends the root-leaf parts of k's object; false when the
	// state holds none.
	leafOf(s *State, k StateKey, h *leafEnc) bool
	// export appends deep copies to the kind's StateExport field, sorted;
	// load is its inverse.
	export(s *State, ex *StateExport)
	load(s *State, ex *StateExport)
}

// kinds holds every kind's descriptor at its keyKind index. Slot 0 (the
// zero StateKey) and the virtual registry key own no storage and are
// inert; Versions.SnapshotAt serves a whole-registry read itself.
var kinds = [numKinds]stateKind{
	0: named("?"), kindDataset: datasetKind, kindTool: toolKind, kindPolicy: policyKind,
	kindTrial: trialKind, kindAnchor: anchorKind, kindManifest: manifestKind, kindEvidence: evidenceKind,
	kindCrossCfg: crossCfgKind, kindShardDir: shardDirKind, kindRouting: routingKind,
	kindShardRoot: shardRootKind, kindCrossOut: crossOutKind, kindCrossIn: crossInKind,
	kindFLRound: flRoundKind, kindVM: vmKind{"vm"}, kindRegistry: named("reg"), kindSeq: seqKind{"seq"},
}

// named is a kind's tag. It gives embedders inert defaults, so the
// special kinds below spell out only what they do.
type named string

func (n named) tag() string                    { return string(n) }
func (named) alloc(*State)                     {}
func (named) cloneInto(_, _ *State)            {}
func (named) share(_, _ *State, _ StateKey)    {}
func (named) copyInto(_, _ *State, _ StateKey) {}
func (named) eachKey(*State, func(StateKey))   {}
func (named) export(*State, *StateExport)      {}
func (named) load(*State, *StateExport)        {}

func (named) leafOf(*State, StateKey, *leafEnc) bool { return false }

// flat is the deep copy of a type without reference fields.
func flat[V any](v V) V { return v }

// --- keyed tables ---

// table is a kind stored as map[string]*V on the state and exported as
// a sorted []E.
type table[V, E any] struct {
	named
	of func(*State) *map[string]*V
	// cp deepens a shallow copy of one object.
	cp func(V) V
	// leaf appends the object's root-leaf parts. The encoding must be
	// injective: a list that other parts follow is preceded by its length.
	leaf   func(h *leafEnc, v *V)
	slot   func(*StateExport) *[]E
	pack   func(key string, v V) E
	unpack func(e E) (string, V)
}

// plainTable is a table whose export element is the object itself,
// keyed by a field.
func plainTable[V any](tag string, of func(*State) *map[string]*V, cp func(V) V,
	leaf func(*leafEnc, *V), slot func(*StateExport) *[]V, keyOf func(*V) string) *table[V, V] {
	return &table[V, V]{
		named: named(tag), of: of, cp: cp, leaf: leaf, slot: slot,
		pack:   func(_ string, v V) V { return v },
		unpack: func(v V) (string, V) { return keyOf(&v), v },
	}
}

func (t *table[V, E]) alloc(s *State) { *t.of(s) = make(map[string]*V) }

func (t *table[V, E]) dup(v *V) *V {
	c := t.cp(*v)
	return &c
}

func (t *table[V, E]) cloneInto(dst, src *State) {
	out := make(map[string]*V, len(*t.of(src))) // sized once: no rehash while filling
	for key, v := range *t.of(src) {
		out[key] = t.dup(v)
	}
	*t.of(dst) = out
}

func (t *table[V, E]) share(dst, src *State, k StateKey) {
	if v, ok := (*t.of(src))[k.id]; ok {
		(*t.of(dst))[k.id] = v
	}
}

func (t *table[V, E]) copyInto(dst, src *State, k StateKey) {
	if v, ok := (*t.of(src))[k.id]; ok {
		(*t.of(dst))[k.id] = t.dup(v)
	}
}

// shareAll shares every object of the table (whole-registry reads).
func (t *table[V, E]) shareAll(dst, src *State) {
	for key, v := range *t.of(src) {
		(*t.of(dst))[key] = v
	}
}

func (t *table[V, E]) eachKey(s *State, fn func(StateKey)) {
	for id := range *t.of(s) {
		fn(StateKey{id: id})
	}
}

func (t *table[V, E]) leafOf(s *State, k StateKey, h *leafEnc) bool {
	v, ok := (*t.of(s))[k.id]
	if ok {
		t.leaf(h, v)
	}
	return ok
}

func (t *table[V, E]) export(s *State, ex *StateExport) {
	if len(*t.of(s)) == 0 {
		return // leave the slot nil, not empty
	}
	out := make([]E, 0, len(*t.of(s)))
	forSortedKeys(*t.of(s), func(key string, v *V) { out = append(out, t.pack(key, t.cp(*v))) })
	*t.slot(ex) = out
}

func (t *table[V, E]) load(s *State, ex *StateExport) {
	for _, e := range *t.slot(ex) {
		key, v := t.unpack(e)
		(*t.of(s))[key] = t.dup(&v)
	}
}

// get returns a deep copy of one object (the read API: callers never
// see memory Apply mutates).
func (t *table[V, E]) get(s *State, key string) (out V, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, found := (*t.of(s))[key]; found {
		return t.cp(*v), true
	}
	return out, false
}

// keys returns the table's keys, sorted.
func (t *table[V, E]) keys(s *State) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(*t.of(s))
}

// all returns deep copies of every object, sorted by key.
func (t *table[V, E]) all(s *State) []V {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]V, 0, len(*t.of(s)))
	forSortedKeys(*t.of(s), func(_ string, v *V) { out = append(out, t.cp(*v)) })
	return out
}

// ref turns a (copy, found) pair into the (*copy, found) shape the
// pointer-returning accessors keep.
func ref[V any](v V, ok bool) (*V, bool) {
	if !ok {
		return nil, false
	}
	return &v, true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func forSortedKeys[V any](m map[string]V, fn func(string, V)) {
	for _, k := range sortedKeys(m) {
		fn(k, m[k])
	}
}

var (
	datasetKind = plainTable("ds",
		func(s *State) *map[string]*Dataset { return &s.datasets }, flat[Dataset],
		func(h *leafEnc, d *Dataset) {
			h.add(d.Owner.String(), d.Digest.String(), d.Schema, fmt.Sprint(d.Records), d.SiteID,
				fmt.Sprint(d.Version), fmt.Sprint(d.UpdatedAt), fmt.Sprint(d.Frozen), d.MovedTo)
		},
		func(ex *StateExport) *[]Dataset { return &ex.Datasets },
		func(d *Dataset) string { return d.ID })

	toolKind = plainTable("tool",
		func(s *State) *map[string]*Tool { return &s.tools }, flat[Tool],
		func(h *leafEnc, t *Tool) { h.add(t.Owner.String(), t.Digest.String()) },
		func(ex *StateExport) *[]Tool { return &ex.Tools },
		func(t *Tool) string { return t.ID })

	// policyKind is keyed by resource ("data:<id>" / "tool:<id>"), which
	// the Policy does not carry, so its export pairs the two.
	policyKind = &table[Policy, PolicyExport]{
		named: "pol",
		of:    func(s *State) *map[string]*Policy { return &s.policies },
		cp:    copyPolicy,
		leaf: func(h *leafEnc, p *Policy) {
			h.add(p.Owner.String(), fmt.Sprint(len(p.Grants)))
			for _, g := range p.Grants {
				h.add(g.Grantee.String(), g.Purpose, fmt.Sprint(g.ExpiresAt), fmt.Sprint(g.MaxUses), fmt.Sprint(g.Uses),
					fmt.Sprint(len(g.Actions)))
				for _, act := range g.Actions {
					h.add(string(act))
				}
			}
		},
		slot:   func(ex *StateExport) *[]PolicyExport { return &ex.Policies },
		pack:   func(key string, p Policy) PolicyExport { return PolicyExport{Resource: key, Policy: p} },
		unpack: func(e PolicyExport) (string, Policy) { return e.Resource, e.Policy },
	}

	trialKind = plainTable("trial",
		func(s *State) *map[string]*Trial { return &s.trials }, copyTrial,
		func(h *leafEnc, t *Trial) {
			h.add(t.Sponsor.String(), t.ProtocolDigest.String(), fmt.Sprint(len(t.PrimaryOutcomes)))
			h.add(t.PrimaryOutcomes...)
			h.add(fmt.Sprint(len(t.Enrollments)))
			for _, e := range t.Enrollments {
				h.add(e.Patient, e.Site, fmt.Sprint(e.At))
			}
			h.add(fmt.Sprint(len(t.Reports)))
			for _, rep := range t.Reports {
				h.add(rep.ResultsDigest.String(), fmt.Sprint(rep.At), fmt.Sprint(len(rep.Outcomes)))
				h.add(rep.Outcomes...)
			}
			for _, ae := range t.AdverseEvents {
				h.add(ae.Patient, ae.Description, fmt.Sprint(ae.Severity), ae.Site)
			}
		},
		func(ex *StateExport) *[]Trial { return &ex.Trials },
		func(t *Trial) string { return t.ID })

	anchorKind = plainTable("anchor",
		func(s *State) *map[string]*Anchor { return &s.anchors }, flat[Anchor],
		func(h *leafEnc, a *Anchor) { h.add(a.Digest.String(), a.By.String()) },
		func(ex *StateExport) *[]Anchor { return &ex.Anchors },
		func(a *Anchor) string { return a.Label })

	manifestKind = plainTable("mset",
		func(s *State) *map[string]*ManifestSet { return &s.manifestSets }, flat[ManifestSet],
		func(h *leafEnc, ms *ManifestSet) {
			h.add(fmt.Sprint(ms.Count), fmt.Sprint(ms.Batches), ms.Root.String(), fmt.Sprint(ms.UpdatedAt))
		},
		func(ex *StateExport) *[]ManifestSet { return &ex.ManifestSets },
		func(ms *ManifestSet) string { return ms.Dataset })

	evidenceKind = plainTable("evidence",
		func(s *State) *map[string]*EvidenceRecord { return &s.evidence },
		func(e EvidenceRecord) EvidenceRecord {
			e.Evidence = append(json.RawMessage(nil), e.Evidence...)
			return e
		},
		func(h *leafEnc, e *EvidenceRecord) {
			h.add(e.Reporter.String(), fmt.Sprint(e.At))
			h.raw(e.Evidence)
		},
		func(ex *StateExport) *[]EvidenceRecord { return &ex.Evidence },
		func(e *EvidenceRecord) string { return evidenceKey(e.Kind, e.Height, e.Offender) })

	shardDirKind = plainTable("xdir",
		func(s *State) *map[string]*ShardInfo { return &s.shardDir },
		func(info ShardInfo) ShardInfo {
			info.Committee = append([]cryptoutil.Address(nil), info.Committee...)
			return info
		},
		func(h *leafEnc, info *ShardInfo) {
			h.add(info.Gateway.String(), fmt.Sprint(info.At),
				fmt.Sprint(info.LeaseBlocks), fmt.Sprint(info.LeaseHeight), fmt.Sprint(info.LastAnchor))
			for _, m := range info.Committee {
				h.add(m.String())
			}
		},
		func(ex *StateExport) *[]ShardInfo { return &ex.ShardDir },
		func(info *ShardInfo) string { return info.ID })

	shardRootKind = plainTable("xroot",
		func(s *State) *map[string]*ShardRoot { return &s.shardRoots }, flat[ShardRoot],
		func(h *leafEnc, r *ShardRoot) { h.add(r.Root.String(), r.By.String(), fmt.Sprint(r.At)) },
		func(ex *StateExport) *[]ShardRoot { return &ex.ShardRoots },
		func(r *ShardRoot) string { return rootKey(r.Shard, r.Height) })

	crossOutKind = plainTable("xout",
		func(s *State) *map[string]*CrossPrepare { return &s.crossOut },
		func(p CrossPrepare) CrossPrepare {
			p.Record.Payload = append(json.RawMessage(nil), p.Record.Payload...)
			return p
		},
		func(h *leafEnc, p *CrossPrepare) {
			rec := &p.Record
			h.add(string(p.Status), p.Reason, fmt.Sprint(p.ResolvedAt), string(rec.Kind), rec.SourceShard,
				rec.DestShard, rec.From.String(), fmt.Sprint(rec.SourceHeight), fmt.Sprint(rec.DestExpiry))
			h.raw(rec.Payload)
		},
		func(ex *StateExport) *[]CrossPrepare { return &ex.CrossOut },
		func(p *CrossPrepare) string { return p.Record.ID })

	crossInKind = plainTable("xin",
		func(s *State) *map[string]*CrossResolution { return &s.crossIn }, flat[CrossResolution],
		func(h *leafEnc, r *CrossResolution) {
			h.add(string(r.Kind), r.Resource, fmt.Sprint(r.Applied), r.Reason, fmt.Sprint(r.DestHeight))
		},
		func(ex *StateExport) *[]CrossResolution { return &ex.CrossIn },
		func(r *CrossResolution) string { return crossInKey(r.SourceShard, r.ID) })

	flRoundKind = plainTable("xfl",
		func(s *State) *map[string]*FLRound { return &s.flRounds },
		func(fl FLRound) FLRound {
			fl.Contributions = cloneEach(fl.Contributions, func(c *FLContribution) { c.Weights = append([]float64(nil), c.Weights...) })
			fl.Aggregate = append([]float64(nil), fl.Aggregate...)
			return fl
		},
		func(h *leafEnc, fl *FLRound) {
			h.add(fmt.Sprint(fl.TotalSamples), floatsString(fl.Aggregate), fmt.Sprint(fl.UpdatedAt))
			for _, c := range fl.Contributions {
				h.add(c.Shard, c.From.String(), fmt.Sprint(c.Samples), floatsString(c.Weights))
			}
		},
		func(ex *StateExport) *[]FLRound { return &ex.FLRounds },
		func(fl *FLRound) string { return fl.Round })
)

// cloneEach copies a slice of structs, passing each copy through fix to
// deepen its own reference fields.
func cloneEach[T any](in []T, fix func(*T)) []T {
	out := make([]T, len(in))
	for i, v := range in {
		fix(&v)
		out[i] = v
	}
	return out
}

func copyPolicy(p Policy) Policy {
	p.Grants = cloneEach(p.Grants, func(g *Grant) { g.Actions = append([]Action(nil), g.Actions...) })
	return p
}

func copyTrial(t Trial) Trial {
	t.PrimaryOutcomes = append([]string(nil), t.PrimaryOutcomes...)
	t.Enrollments = append([]Enrollment(nil), t.Enrollments...)
	t.Reports = cloneEach(t.Reports, func(rep *OutcomeReport) { rep.Outcomes = append([]string(nil), rep.Outcomes...) })
	t.AdverseEvents = append([]AdverseEventRecord(nil), t.AdverseEvents...)
	return t
}

// floatsString renders a float slice deterministically for the state
// root.
func floatsString(v []float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// --- singletons ---

// single is a kind with at most one object per state, held behind a
// pointer that is nil until a transaction creates it. It is special
// only in having no key: StateKey.id is ignored.
type single[V any] struct {
	named
	of func(*State) **V
	cp func(V) V
	// leaf appends the object's root-leaf parts.
	leaf func(h *leafEnc, v *V)
	slot func(*StateExport) **V
}

func (t *single[V]) dup(v *V) *V {
	if v == nil {
		return nil
	}
	c := t.cp(*v)
	return &c
}

func (t *single[V]) cloneInto(dst, src *State) { *t.of(dst) = t.dup(*t.of(src)) }

func (t *single[V]) share(dst, src *State, _ StateKey) {
	if v := *t.of(src); v != nil {
		*t.of(dst) = v
	}
}

func (t *single[V]) copyInto(dst, src *State, _ StateKey) { t.cloneInto(dst, src) }

func (t *single[V]) eachKey(s *State, fn func(StateKey)) {
	if *t.of(s) != nil {
		fn(StateKey{})
	}
}

func (t *single[V]) leafOf(s *State, _ StateKey, h *leafEnc) bool {
	v := *t.of(s)
	if v != nil {
		t.leaf(h, v)
	}
	return v != nil
}

func (t *single[V]) export(s *State, ex *StateExport) { *t.slot(ex) = t.dup(*t.of(s)) }
func (t *single[V]) load(s *State, ex *StateExport)   { *t.of(s) = t.dup(*t.slot(ex)) }

func (t *single[V]) get(s *State) (out V, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v := *t.of(s); v != nil {
		return t.cp(*v), true
	}
	return out, false
}

var (
	crossCfgKind = &single[CrossShardConfig]{
		named: "xcfg",
		of:    func(s *State) **CrossShardConfig { return &s.crossCfg },
		cp:    flat[CrossShardConfig],
		leaf: func(h *leafEnc, cfg *CrossShardConfig) {
			h.add(cfg.ShardID, fmt.Sprint(cfg.Shards), cfg.Coordinator.String())
		},
		slot: func(ex *StateExport) **CrossShardConfig { return &ex.CrossConfig },
	}

	routingKind = &single[RoutingTable]{
		named: "xepoch",
		of:    func(s *State) **RoutingTable { return &s.routing },
		cp: func(rt RoutingTable) RoutingTable {
			return RoutingTable{Current: copyRoutingEpoch(rt.Current), Pending: copyRoutingEpoch(rt.Pending)}
		},
		leaf: func(h *leafEnc, rt *RoutingTable) {
			for _, ep := range []*RoutingEpoch{rt.Current, rt.Pending} {
				if ep == nil {
					h.add("nil")
					continue
				}
				h.add("epoch", fmt.Sprint(ep.Epoch), fmt.Sprint(ep.At), fmt.Sprint(len(ep.Shards)))
				h.add(ep.Shards...)
			}
		},
		slot: func(ex *StateExport) **RoutingTable { return &ex.Routing },
	}
)

func copyRoutingEpoch(ep *RoutingEpoch) *RoutingEpoch {
	if ep == nil {
		return nil
	}
	cp := *ep
	cp.Shards = append([]string(nil), ep.Shards...)
	return &cp
}

// --- kinds that are not a table of objects ---

// seqKind is the request-sequence counter: a plain integer, so
// "sharing" it is copying it. A new child state already starts from its
// parent's value (State.child), which is why cloneInto stays inert. It
// always has a leaf, so no state's tree is empty.
type seqKind struct{ named }

func (seqKind) share(dst, src *State, _ StateKey)    { dst.requestSeq = src.requestSeq }
func (seqKind) copyInto(dst, src *State, _ StateKey) { dst.requestSeq = src.requestSeq }
func (seqKind) eachKey(_ *State, fn func(StateKey))  { fn(StateKey{}) }
func (seqKind) export(s *State, ex *StateExport)     { ex.RequestSeq = s.requestSeq }
func (seqKind) load(s *State, ex *StateExport)       { s.requestSeq = ex.RequestSeq }

func (seqKind) leafOf(s *State, _ StateKey, h *leafEnc) bool {
	h.add(fmt.Sprint(s.requestSeq))
	return true
}

// vmKind is a deployed contract: two tables keyed by address (code and
// storage) that live and move together under one KeyVM. Code bytes are
// immutable after deploy, so copies share them.
type vmKind struct{ named }

func (vmKind) alloc(s *State) {
	s.deployed = make(map[cryptoutil.Address]*Deployed)
	s.vmStorage = make(map[cryptoutil.Address]*vm.MemStorage)
}

func (v vmKind) cloneInto(dst, src *State) {
	for addr := range src.deployed {
		v.copyInto(dst, src, KeyVM(addr))
	}
}

func (vmKind) share(dst, src *State, k StateKey) {
	if d, ok := src.deployed[k.addr]; ok {
		dst.deployed[k.addr] = d
	}
	if st, ok := src.vmStorage[k.addr]; ok {
		dst.vmStorage[k.addr] = st
	}
}

func (vmKind) copyInto(dst, src *State, k StateKey) {
	if d, ok := src.deployed[k.addr]; ok {
		cp := *d
		dst.deployed[k.addr] = &cp
	}
	if st, ok := src.vmStorage[k.addr]; ok {
		dst.vmStorage[k.addr] = newStorage(sortedPairs(st))
	}
}

func (vmKind) eachKey(s *State, fn func(StateKey)) {
	for addr := range s.deployed {
		fn(StateKey{addr: addr})
	}
}

func (vmKind) leafOf(s *State, k StateKey, h *leafEnc) bool {
	d, ok := s.deployed[k.addr]
	if !ok {
		return false
	}
	h.add(d.Name)
	h.raw(d.Code)
	for _, kv := range sortedPairs(s.vmStorage[k.addr]) {
		h.raw(kv.Key)
		h.raw(kv.Value)
	}
	return true
}

func (vmKind) export(s *State, ex *StateExport) {
	for _, d := range sortedContracts(s) {
		ex.Deployed = append(ex.Deployed, *d)
		if st, ok := s.vmStorage[d.Address]; ok {
			pairs := sortedPairs(st)
			for i, kv := range pairs {
				// Also turns an empty value into nil: snapshots hold JSON null.
				pairs[i].Value = append([]byte(nil), kv.Value...)
			}
			ex.VMStorage = append(ex.VMStorage, VMStorageExport{Address: d.Address, Pairs: pairs})
		}
	}
}

func (vmKind) load(s *State, ex *StateExport) {
	for _, d := range ex.Deployed {
		s.deployed[d.Address] = &d
		s.vmStorage[d.Address] = vm.NewMemStorage()
	}
	for _, entry := range ex.VMStorage {
		s.vmStorage[entry.Address] = newStorage(entry.Pairs)
	}
}

// sortedContracts returns the deployed contracts by ascending address.
func sortedContracts(s *State) []*Deployed {
	out := make([]*Deployed, 0, len(s.deployed))
	for _, d := range s.deployed {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Address[:], out[j].Address[:]) < 0 })
	return out
}

// sortedPairs returns a contract's storage pairs sorted by key; the
// values are the stored slices, not copies.
func sortedPairs(st *vm.MemStorage) []VMPair {
	var pairs []VMPair
	for _, key := range st.Keys() {
		v, _ := st.Get([]byte(key))
		pairs = append(pairs, VMPair{Key: []byte(key), Value: v})
	}
	sort.Slice(pairs, func(i, j int) bool { return string(pairs[i].Key) < string(pairs[j].Key) })
	return pairs
}

func newStorage(pairs []VMPair) *vm.MemStorage {
	st := vm.NewMemStorage()
	for _, kv := range pairs {
		st.Set(kv.Key, kv.Value)
	}
	return st
}
