package contract

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"medchain/internal/cryptoutil"
	"medchain/internal/merkle"
)

// This file is the state root: a hash tree that is a pure function of
// the state's contents and that a State keeps between Root calls, so a
// block pays for the keys it wrote and not for the keys that exist
// (DESIGN.md "State root").
//
// Every stored object contributes one entry — the hash of its StateKey
// and the digest of its leaf encoding. The top rootDepth bits of the key
// hash pick one of rootBuckets buckets; a bucket's digest covers its
// entries in key-hash order; a fixed binary tree of merkle.HashNode
// nodes sits over the bucket digests, and the root commits to
// RootFormat and the top node. Nothing in it depends on the order
// objects were written in, so a tree built from scratch equals one
// maintained incrementally.

// RootFormat names this construction. Root commits to it, and the
// storage engine records it in every data directory so roots written
// under another format are refused instead of replayed.
const RootFormat = "medchain/state-root/v2"

const (
	rootDepth   = 12
	rootBuckets = 1 << rootDepth
	// bucketPrefix starts a bucket's preimage. Leaf encodings and node
	// preimages start with a length prefix whose first byte is zero.
	bucketPrefix = 0x02
)

// leafEnc is the canonical encoding of one object's contribution to the
// root: the parts its kind's leaf function appends, each length-prefixed.
type leafEnc []byte

func (h *leafEnc) add(parts ...string) {
	for _, p := range parts {
		*h = append(binary.BigEndian.AppendUint64(*h, uint64(len(p))), p...)
	}
}

func (h *leafEnc) raw(b []byte) {
	*h = append(binary.BigEndian.AppendUint64(*h, uint64(len(b))), b...)
}

// hash places the key in the tree. It covers the kind's tag, not its
// number, so reordering the keyKind constants moves no entry.
func (k StateKey) hash() cryptoutil.Digest {
	h := make(leafEnc, 0, 96)
	h.add(k.kind.String(), k.id)
	h.raw(k.addr[:])
	return sha256.Sum256(h)
}

// StateLeaf is one object's entry in its bucket.
type StateLeaf struct {
	// Key is the hash of the object's StateKey.
	Key cryptoutil.Digest `json:"key"`
	// Leaf is the digest of the object's leaf encoding.
	Leaf cryptoutil.Digest `json:"leaf"`
}

// leafChange is one re-hashed key: its new entry, or its removal.
type leafChange struct {
	StateLeaf
	present bool
}

func bucketOf(key cryptoutil.Digest) int {
	return int(binary.BigEndian.Uint16(key[:2]) >> (16 - rootDepth))
}

// mergeBucket applies changes (ascending by key hash) to a bucket's
// entries and returns the new entries in a fresh slice.
func mergeBucket(old []StateLeaf, changes []leafChange) []StateLeaf {
	out := make([]StateLeaf, 0, len(old)+len(changes))
	for _, c := range changes {
		for len(old) > 0 && bytes.Compare(old[0].Key[:], c.Key[:]) < 0 {
			out, old = append(out, old[0]), old[1:]
		}
		if len(old) > 0 && old[0].Key == c.Key {
			old = old[1:]
		}
		if c.present {
			out = append(out, c.StateLeaf)
		}
	}
	return append(out, old...)
}

// hashBucket is the digest of a bucket's entries; zero when empty.
func hashBucket(entries []StateLeaf) cryptoutil.Digest {
	if len(entries) == 0 {
		return cryptoutil.ZeroDigest
	}
	buf := make([]byte, 1, 1+2*cryptoutil.DigestSize*len(entries))
	buf[0] = bucketPrefix
	for _, e := range entries {
		buf = append(append(buf, e.Key[:]...), e.Leaf[:]...)
	}
	return sha256.Sum256(buf)
}

// hashNode is merkle.HashNode with an empty subtree hashing to zero, so
// the zero rootTree is the tree of the empty state.
func hashNode(l, r cryptoutil.Digest) cryptoutil.Digest {
	if l.IsZero() && r.IsZero() {
		return cryptoutil.ZeroDigest
	}
	return merkle.HashNode(l, r)
}

func rootDigest(top cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.SumAll([]byte(RootFormat), top[:])
}

// rootTree is the tree a rooted State keeps. Its size is fixed (~360 KB)
// plus one StateLeaf per object.
type rootTree struct {
	// nodes holds the binary tree in heap order: nodes[1] is the top,
	// node i has children 2i and 2i+1, and nodes[rootBuckets+b] is
	// bucket b's digest.
	nodes [2 * rootBuckets]cryptoutil.Digest
	// buckets[b] holds bucket b's entries, ascending by key hash. A
	// bucket is replaced, never modified in place, so Clone shares them.
	buckets [rootBuckets][]StateLeaf
	// gen counts the patches installed: a patch fits the tree it was
	// derived from only while this has not moved.
	gen uint64
}

// PendingRoot is what a set of leaf changes does to a rootTree — the
// buckets replaced and the nodes re-hashed, by index — computed without
// touching the tree, so its size follows the changes, not the tree:
// the step of every incremental Root, and the root of a block not yet
// committed (State.PreviewRoot).
type PendingRoot struct {
	base    *rootTree // the tree it was derived from,
	gen     uint64    // and that tree's gen then
	buckets map[int][]StateLeaf
	nodes   map[int]cryptoutil.Digest
}

// update re-hashes the leaves of keys — objects written, created or
// deleted since the tree was last current — then their buckets and the
// node paths above those. The build from scratch is update on the zero
// tree with every key of the state.
func (t *rootTree) update(s *State, keys []StateKey) {
	changes := make([]leafChange, len(keys))
	var enc leafEnc
	for i, k := range keys {
		changes[i] = leafChangeOf(s, k, &enc)
	}
	t.install(t.diff(changes))
}

// leafChangeOf hashes k's object as s holds it (or notes its absence),
// encoding into the caller's reusable buffer.
func leafChangeOf(s *State, k StateKey, enc *leafEnc) leafChange {
	c := leafChange{StateLeaf: StateLeaf{Key: k.hash()}}
	*enc = (*enc)[:0]
	if c.present = kinds[k.kind].leafOf(s, k, enc); c.present {
		c.Leaf = sha256.Sum256(*enc)
	}
	return c
}

// diff derives the patch changes make to t: the changed buckets merged
// and re-hashed, then the node paths above them, reading t where the
// patch holds nothing yet. t is not modified.
func (t *rootTree) diff(changes []leafChange) *PendingRoot {
	slices.SortFunc(changes, func(a, b leafChange) int { return bytes.Compare(a.Key[:], b.Key[:]) })
	p := &PendingRoot{base: t, gen: t.gen, buckets: make(map[int][]StateLeaf), nodes: make(map[int]cryptoutil.Digest)}

	var stale []int // nodes whose children changed, ascending
	for len(changes) > 0 {
		b := bucketOf(changes[0].Key)
		n := 1
		for n < len(changes) && bucketOf(changes[n].Key) == b {
			n++
		}
		p.buckets[b] = mergeBucket(t.buckets[b], changes[:n])
		p.nodes[rootBuckets+b] = hashBucket(p.buckets[b])
		if up := (rootBuckets + b) / 2; len(stale) == 0 || stale[len(stale)-1] != up {
			stale = append(stale, up)
		}
		changes = changes[n:]
	}
	for len(stale) > 0 && stale[0] > 0 {
		parents := stale[:0]
		for _, i := range stale {
			p.nodes[i] = hashNode(p.node(2*i), p.node(2*i+1))
			if up := i / 2; len(parents) == 0 || parents[len(parents)-1] != up {
				parents = append(parents, up)
			}
		}
		stale = parents
	}
	return p
}

// node is node i of the base tree as patched by p.
func (p *PendingRoot) node(i int) cryptoutil.Digest {
	if d, ok := p.nodes[i]; ok {
		return d
	}
	return p.base.nodes[i]
}

// install writes a patch derived from t, and nothing installed since,
// into t.
func (t *rootTree) install(p *PendingRoot) {
	for b, entries := range p.buckets {
		t.buckets[b] = entries
	}
	for i, d := range p.nodes {
		t.nodes[i] = d
	}
	t.gen++
}

// markWritten records the keys a transaction may have changed, so the
// next Root re-hashes only those. The declared write set is therefore
// consensus-relevant under serial execution too: a key a handler
// mutates but its table entry does not declare leaves a stale leaf in
// the root. A state that was never rooted has no tree and records
// nothing. The caller holds s.mu.
func (s *State) markWritten(acc AccessSet) {
	if s.tree == nil {
		return
	}
	for _, k := range acc.Writes {
		s.dirty[k] = struct{}{}
	}
}

// syncTree makes the tree current: built from every key on first use,
// re-hashed at the marked keys afterwards. The caller holds s.mu.
func (s *State) syncTree() {
	var keys []StateKey
	if s.tree == nil {
		s.tree, s.dirty = new(rootTree), make(map[StateKey]struct{})
		for kind, k := range kinds {
			k.eachKey(s, func(key StateKey) {
				key.kind = keyKind(kind)
				keys = append(keys, key)
			})
		}
	} else {
		keys = make([]StateKey, 0, len(s.dirty))
		for k := range s.dirty {
			keys = append(keys, k)
		}
		clear(s.dirty)
	}
	if len(keys) > 0 {
		s.tree.update(s, keys)
	}
}

// Root returns the deterministic state root. Two states with the same
// contents have the same root whatever their histories. The first call
// hashes the whole state; later calls re-hash only the keys written
// since the previous one.
func (s *State) Root() cryptoutil.Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTree()
	return rootDigest(s.tree.nodes[1])
}

// StateProof shows that one object is part of a state root: its leaf
// encoding, the other entries of its bucket, and the sibling digests
// from the bucket up to the top node.
type StateProof struct {
	Leaf   []byte              `json:"leaf"`
	Bucket []StateLeaf         `json:"bucket,omitempty"`
	Path   []cryptoutil.Digest `json:"path"`
}

// Prove returns the inclusion proof of k's object against Root(); false
// when the state holds no object under k.
func (s *State) Prove(k StateKey) (*StateProof, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTree()
	var enc leafEnc
	if !kinds[k.kind].leafOf(s, k, &enc) {
		return nil, false
	}
	key := k.hash()
	b := bucketOf(key)
	p := &StateProof{Leaf: enc}
	for _, e := range s.tree.buckets[b] {
		if e.Key != key {
			p.Bucket = append(p.Bucket, e)
		}
	}
	for i := rootBuckets + b; i > 1; i /= 2 {
		p.Path = append(p.Path, s.tree.nodes[i^1])
	}
	return p, true
}

// VerifyStateProof reports whether p proves that the object under k,
// with leaf encoding p.Leaf, is part of the state with the given root.
func VerifyStateProof(root cryptoutil.Digest, k StateKey, p *StateProof) bool {
	if p == nil || len(p.Path) != rootDepth {
		return false
	}
	self := leafChange{StateLeaf{Key: k.hash(), Leaf: sha256.Sum256(p.Leaf)}, true}
	h := hashBucket(mergeBucket(p.Bucket, []leafChange{self}))
	i := rootBuckets + bucketOf(self.Key)
	for _, sibling := range p.Path {
		if i&1 == 0 {
			h = hashNode(h, sibling)
		} else {
			h = hashNode(sibling, h)
		}
		i /= 2
	}
	return rootDigest(h) == root
}
