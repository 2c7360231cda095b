package contract

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

// MergeSpeculative adopts the objects named by the access set's write
// keys from a finished speculative snapshot into s — the materialize
// step of the MVCC engine, called in canonical transaction order so the
// newest writer of each key lands last. The snapshot is consumed: its
// written objects were private deep copies, so adopting the pointers is
// safe and allocation-free.
func (s *State) MergeSpeculative(from *State, acc AccessSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range acc.Writes {
		kinds[k.kind].share(s, from, k)
	}
	s.markWritten(acc)
}
