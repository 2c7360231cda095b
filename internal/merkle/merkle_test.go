package merkle

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"medchain/internal/cryptoutil"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestEmptyTreeRoot(t *testing.T) {
	tr := New(nil)
	if !tr.Root().IsZero() {
		t.Fatal("empty tree root is not zero")
	}
	if tr.Len() != 0 {
		t.Fatalf("empty tree Len = %d", tr.Len())
	}
}

func TestSingleLeaf(t *testing.T) {
	tr := New([][]byte{[]byte("only")})
	if tr.Root() != HashLeaf([]byte("only")) {
		t.Fatal("single-leaf root must equal the leaf hash")
	}
	p, err := tr.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 0 {
		t.Fatalf("single-leaf proof has %d steps, want 0", len(p.Steps))
	}
	if !Verify(tr.Root(), []byte("only"), p) {
		t.Fatal("single-leaf proof rejected")
	}
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	base := leaves(8)
	root := RootOf(base)
	for i := range base {
		mod := leaves(8)
		mod[i] = []byte("tampered")
		if RootOf(mod) == root {
			t.Fatalf("tampering leaf %d did not change root", i)
		}
	}
}

func TestRootDependsOnOrder(t *testing.T) {
	a := RootOf([][]byte{[]byte("x"), []byte("y")})
	b := RootOf([][]byte{[]byte("y"), []byte("x")})
	if a == b {
		t.Fatal("root is order-insensitive")
	}
}

func TestLeafNodeDomainSeparation(t *testing.T) {
	// The hash of a 2-leaf tree must not equal the leaf hash of the
	// concatenated children — prefixes separate the domains.
	l, r := HashLeaf([]byte("a")), HashLeaf([]byte("b"))
	interior := HashNode(l, r)
	var concat []byte
	concat = append(concat, l[:]...)
	concat = append(concat, r[:]...)
	if interior == HashLeaf(concat) {
		t.Fatal("leaf/node domains collide")
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ls := leaves(n)
			tr := New(ls)
			for i := 0; i < n; i++ {
				p, err := tr.Prove(i)
				if err != nil {
					t.Fatalf("Prove(%d): %v", i, err)
				}
				if !Verify(tr.Root(), ls[i], p) {
					t.Fatalf("proof for leaf %d/%d rejected", i, n)
				}
			}
		})
	}
}

func TestProofWrongLeafRejected(t *testing.T) {
	ls := leaves(10)
	tr := New(ls)
	p, err := tr.Prove(3)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(tr.Root(), []byte("forged"), p) {
		t.Fatal("forged leaf accepted")
	}
	if Verify(tr.Root(), ls[4], p) {
		t.Fatal("wrong leaf accepted under another leaf's proof")
	}
}

func TestProofWrongRootRejected(t *testing.T) {
	ls := leaves(10)
	tr := New(ls)
	p, err := tr.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	other := RootOf(leaves(11))
	if Verify(other, ls[0], p) {
		t.Fatal("proof accepted under wrong root")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tr := New(leaves(4))
	for _, i := range []int{-1, 4, 100} {
		if _, err := tr.Prove(i); err == nil {
			t.Fatalf("Prove(%d) succeeded, want error", i)
		}
	}
}

func TestVerifyNilProof(t *testing.T) {
	if Verify(cryptoutil.ZeroDigest, []byte("x"), nil) {
		t.Fatal("nil proof accepted")
	}
}

func TestTamperedProofStepRejected(t *testing.T) {
	ls := leaves(16)
	tr := New(ls)
	p, err := tr.Prove(5)
	if err != nil {
		t.Fatal(err)
	}
	p.Steps[1].Hash[0] ^= 0xFF
	if Verify(tr.Root(), ls[5], p) {
		t.Fatal("tampered proof step accepted")
	}
}

func TestFlippedProofDirectionRejected(t *testing.T) {
	ls := leaves(16)
	tr := New(ls)
	p, err := tr.Prove(5)
	if err != nil {
		t.Fatal(err)
	}
	p.Steps[0].Left = !p.Steps[0].Left
	if Verify(tr.Root(), ls[5], p) {
		t.Fatal("direction-flipped proof accepted")
	}
}

func TestDeterministicRoot(t *testing.T) {
	if RootOf(leaves(13)) != RootOf(leaves(13)) {
		t.Fatal("root not deterministic")
	}
}

// Property: every leaf of a random tree proves against the root, and a
// random different payload does not.
func TestProofProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%50
		ls := make([][]byte, n)
		r := rand.New(rand.NewSource(seed))
		for i := range ls {
			b := make([]byte, 1+r.Intn(40))
			r.Read(b)
			ls[i] = b
		}
		tr := New(ls)
		i := rng.Intn(n)
		p, err := tr.Prove(i)
		if err != nil {
			return false
		}
		if !Verify(tr.Root(), ls[i], p) {
			return false
		}
		forged := append([]byte(nil), ls[i]...)
		forged = append(forged, 0x01)
		return !Verify(tr.Root(), forged, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: proof length is at most ceil(log2(n)).
func TestProofLengthBound(t *testing.T) {
	for _, n := range []int{2, 3, 8, 31, 64, 200} {
		tr := New(leaves(n))
		maxSteps := 0
		for i := 0; i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Steps) > maxSteps {
				maxSteps = len(p.Steps)
			}
		}
		bound := 0
		for s := 1; s < n; s *= 2 {
			bound++
		}
		if maxSteps > bound {
			t.Fatalf("n=%d: proof of %d steps exceeds log bound %d", n, maxSteps, bound)
		}
	}
}

func BenchmarkTreeBuild1k(b *testing.B) {
	ls := leaves(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(ls)
	}
}

func BenchmarkProveVerify(b *testing.B) {
	ls := leaves(1024)
	tr := New(ls)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := tr.Prove(i % 1024)
		if err != nil {
			b.Fatal(err)
		}
		if !Verify(tr.Root(), ls[i%1024], p) {
			b.Fatal("verify failed")
		}
	}
}
