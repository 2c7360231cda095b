package contract

import "medchain/internal/cryptoutil"

// This file implements the multi-version state plumbing the MVCC
// parallel execution engine (internal/parexec) is built on. The engine
// keeps a *version chain* per StateKey: every committed transaction
// appends the objects it wrote, tagged with its block position, and a
// later conflicting transaction reads the newest version older than its
// own position instead of being re-executed against live state.
// Versions reference the writer's (frozen) speculative snapshot, so
// committing is allocation-free and reading a version is a pointer
// share / deep copy of exactly one object.
//
// Concurrency contract: Commit appends to chains and must be called
// from a single goroutine (the engine's wave barrier); SnapshotAt only
// reads the chains and may run concurrently from the wave's workers.
// The base state must not be mutated while a Versions built on it is in
// use — the engine materializes writes into the base only after all
// waves have finished.

// version is one committed entry of a key's chain: the writer's block
// position and the snapshot state holding its written object.
type version struct {
	idx int
	src *State
}

// Versions is a block-scoped multi-version cache over a base state.
// Each StateKey carries a chain of committed versions in ascending
// writer order; readers resolve "the newest version older than me" per
// key, falling back to the base.
type Versions struct {
	base   *State
	chains map[StateKey][]version
}

// NewVersions creates an empty multi-version cache over base.
func NewVersions(base *State) *Versions {
	return &Versions{base: base, chains: make(map[StateKey][]version)}
}

// Commit appends the objects named by acc's write keys from a finished
// speculative snapshot to the version chains, tagged with the writer's
// block position. With a sound dependency schedule, per-key positions
// arrive in ascending order (consecutive writers of a key are ordered
// by the read-modify-write dependency between them).
func (v *Versions) Commit(idx int, src *State, acc AccessSet) {
	for _, k := range acc.Writes {
		v.chains[k] = append(v.chains[k], version{idx: idx, src: src})
	}
}

// latest returns the state holding the newest committed version of k
// older than position idx: a frozen snapshot, or the base state.
func (v *Versions) latest(k StateKey, idx int) *State {
	ch := v.chains[k]
	for i := len(ch) - 1; i >= 0; i-- {
		if ch[i].idx < idx {
			return ch[i].src
		}
	}
	return v.base
}

// SnapshotAt builds the speculative state transaction idx executes
// against: for every key in its access set, the newest committed
// version older than idx, falling back to the base state. Read keys
// share the source object (frozen snapshots and the quiescent base are
// never mutated through a read); write keys get deep copies the
// execution is free to mutate. A whole-registry read (VM HOST
// registry.* calls) overlays the base registry with the newest visible
// version of every dataset and tool written earlier in the block.
func (v *Versions) SnapshotAt(idx int, acc AccessSet) *State {
	s := v.base
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.child()
	for _, k := range acc.Reads {
		if k.kind == kindRegistry {
			// Base registry first, then every newer dataset/tool the
			// block committed before idx. Keys are distinct, so the
			// overlay order across chains is immaterial.
			datasetKind.shareAll(c, s)
			toolKind.shareAll(c, s)
			for ck := range v.chains {
				if ck.kind == kindDataset || ck.kind == kindTool {
					kinds[ck.kind].share(c, v.latest(ck, idx), ck)
				}
			}
			continue
		}
		kinds[k.kind].share(c, v.latest(k, idx), k)
	}
	for _, k := range acc.Writes {
		kinds[k.kind].copyInto(c, v.latest(k, idx), k)
	}
	return c
}

// dropAdoptedWrite is a mutation seam (export_test.go sets it): a write
// key it claims is left out when AdoptSpeculative materialises a block.
// Nil outside tests.
var dropAdoptedWrite func(StateKey) bool

// SpecWrite is one transaction's finished speculative execution: the
// snapshot it ran on (Versions.SnapshotAt) and its declared footprint.
type SpecWrite struct {
	Snap *State
	Acc  AccessSet
}

// Root is the state root after the block.
func (p *PendingRoot) Root() cryptoutil.Digest { return rootDigest(p.node(1)) }

// PreviewRoot derives the root s will have after writes are merged in
// order, leaving s as it is: the patch those writes make to s's tree,
// re-hashed at the written keys only, each leaf taken from its last
// writer's snapshot. Its cost follows the writes, not the state.
func (s *State) PreviewRoot(writes []SpecWrite) *PendingRoot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTree()
	var (
		changes []leafChange
		seen    = make(map[StateKey]struct{})
		enc     leafEnc
	)
	for j := len(writes) - 1; j >= 0; j-- {
		for _, k := range writes[j].Acc.Writes {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				changes = append(changes, leafChangeOf(writes[j].Snap, k, &enc))
			}
		}
	}
	return s.tree.diff(changes)
}

// AdoptSpeculative materialises transactions executed on snapshots over
// s — the one merge step of the MVCC engine: for every write in
// canonical order, so the newest writer of each key lands last, the
// objects named by its footprint's write keys are adopted from its
// snapshot (they were private deep copies, so adopting the pointers is
// safe and allocation-free). Then p — the patch PreviewRoot derived from
// the same writes — is installed in s's tree, so the block is hashed
// once. s must not have been written since the snapshots were taken
// (they would be stale, patch or no patch); as a guard, a state that was
// marked, re-rooted or given another tree since PreviewRoot, or a caller
// with no p, marks the writes instead.
func (s *State) AdoptSpeculative(writes []SpecWrite, p *PendingRoot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range writes {
		for _, k := range w.Acc.Writes {
			if dropAdoptedWrite == nil || !dropAdoptedWrite(k) {
				kinds[k.kind].share(s, w.Snap, k)
			}
		}
	}
	if p != nil && s.tree == p.base && s.tree.gen == p.gen && len(s.dirty) == 0 {
		s.tree.install(p)
		return
	}
	for _, w := range writes {
		s.markWritten(w.Acc)
	}
}
