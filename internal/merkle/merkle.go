// Package merkle implements a binary Merkle hash tree with inclusion
// proofs. It is used for block transaction roots and for anchoring
// off-chain data sets on the medical blockchain (Irving & Holden style
// integrity timestamps, paper §III.A).
//
// Leaves and interior nodes are domain-separated (0x00 / 0x01 prefixes)
// so a leaf can never be confused with an interior node. A tree over
// zero leaves has the zero digest as its root. Odd nodes at any level
// are promoted (not duplicated), which avoids the CVE-2012-2459 style
// duplication ambiguity.
package merkle

import (
	"errors"
	"fmt"

	"medchain/internal/cryptoutil"
)

var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// ErrProof is returned when a proof fails to verify structurally.
var ErrProof = errors.New("merkle: invalid proof")

// HashLeaf computes the domain-separated hash of a leaf payload.
func HashLeaf(data []byte) cryptoutil.Digest {
	return cryptoutil.SumAll(leafPrefix, data)
}

// HashNode computes the domain-separated hash of an interior node from
// its two children. The contract state root builds its fixed tree from
// the same node hash.
func HashNode(l, r cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.SumAll(nodePrefix, l[:], r[:])
}

// Tree is an immutable Merkle tree built over a list of leaf payloads.
type Tree struct {
	levels [][]cryptoutil.Digest // levels[0] = leaf hashes, last = [root]
	n      int
}

// New builds a tree over the given leaves. A nil or empty slice yields
// a tree whose root is the zero digest.
func New(leaves [][]byte) *Tree {
	t := &Tree{n: len(leaves)}
	if len(leaves) == 0 {
		return t
	}
	level := make([]cryptoutil.Digest, len(leaves))
	for i, leaf := range leaves {
		level[i] = HashLeaf(leaf)
	}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]cryptoutil.Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, HashNode(level[i], level[i+1]))
			} else {
				// Promote the odd node unchanged.
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Root returns the tree root (zero digest for an empty tree).
func (t *Tree) Root() cryptoutil.Digest {
	if len(t.levels) == 0 {
		return cryptoutil.ZeroDigest
	}
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.n }

// ProofStep is one sibling hash on the path from a leaf to the root.
type ProofStep struct {
	// Hash is the sibling digest.
	Hash cryptoutil.Digest `json:"hash"`
	// Left reports whether the sibling is on the left of the path node.
	Left bool `json:"left"`
}

// Proof is an inclusion proof for one leaf.
type Proof struct {
	// Index is the leaf index the proof was generated for.
	Index int `json:"index"`
	// Steps are the sibling hashes from leaf level to the root.
	Steps []ProofStep `json:"steps"`
}

// Prove returns the inclusion proof for leaf i.
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= t.n {
		return nil, fmt.Errorf("merkle: leaf index %d out of range [0,%d)", i, t.n)
	}
	p := &Proof{Index: i}
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		var sib int
		if idx%2 == 0 {
			sib = idx + 1
		} else {
			sib = idx - 1
		}
		if sib < len(level) {
			p.Steps = append(p.Steps, ProofStep{Hash: level[sib], Left: sib < idx})
		}
		idx /= 2
	}
	return p, nil
}

// Verify checks that leaf data at the proof's position hashes up to
// root through the proof's sibling path.
func Verify(root cryptoutil.Digest, leaf []byte, p *Proof) bool {
	if p == nil {
		return false
	}
	h := HashLeaf(leaf)
	for _, s := range p.Steps {
		if s.Left {
			h = HashNode(s.Hash, h)
		} else {
			h = HashNode(h, s.Hash)
		}
	}
	return h == root
}

// RootOf is a convenience that builds a tree and returns its root.
func RootOf(leaves [][]byte) cryptoutil.Digest {
	return New(leaves).Root()
}
