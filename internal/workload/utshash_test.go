package workload

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// childIndices are the child numbers every descriptor is checked at: the
// first few, the two sides of a decimal carry, and the top of BE32's range.
var childIndices = []uint32{0, 1, 2, 99, 100, 1 << 31, 1<<32 - 1}

// checkChildDesc compares hash with crypto/sha1.Sum of the 24-byte child
// message on seeded random descriptors at every childIndices entry, then
// along a 100 000-step chain in which each digest is the next parent.
func checkChildDesc(t *testing.T, hash func(dst, parent *[20]byte, i uint32)) {
	want := func(parent [20]byte, i uint32) [20]byte {
		var msg [24]byte
		copy(msg[:20], parent[:])
		binary.BigEndian.PutUint32(msg[20:], i)
		return sha1.Sum(msg[:])
	}
	rng := rand.New(rand.NewPCG(29, 1))
	for k := 0; k < 200; k++ {
		var parent [20]byte
		for j := range parent {
			parent[j] = byte(rng.Uint32())
		}
		for _, i := range childIndices {
			var got [20]byte
			hash(&got, &parent, i)
			if w := want(parent, i); got != w {
				t.Fatalf("parent %x child %d: got %x, want %x", parent, i, got, w)
			}
		}
	}
	var got, ref [20]byte
	for step := 0; step < 100_000; step++ {
		i := childIndices[step%len(childIndices)]
		hash(&got, &got, i)
		ref = want(ref, i)
		if got != ref {
			t.Fatalf("chain step %d: got %x, want %x", step, got, ref)
		}
	}
}

// TestChildMatchesSHA1 holds both ways Child can hash — the SHA-NI kernel
// and the crypto/sha1 fallback — to crypto/sha1.Sum of the message UTS
// defines. TestUTSTreeSizesOrdered's known counts hold childDesc, the
// one hash behind Child and every walk.
func TestChildMatchesSHA1(t *testing.T) {
	t.Run("fallback", func(t *testing.T) { checkChildDesc(t, childDescSHA1) })
	t.Run("kernel", func(t *testing.T) {
		if !haveSHANI {
			t.Skip("no SHA-1 kernel here: the CPU lacks the SHA, SSSE3 or SSE4.1 extensions, or is not amd64")
		}
		checkChildDesc(t, childDescNI)
	})
}

// TestUTSChildAllocFree: deriving a child allocates nothing — the padded
// block and the digest stay on the stack.
func TestUTSChildAllocFree(t *testing.T) {
	tree := T1LPrime()
	n := tree.Root()
	if allocs := testing.AllocsPerRun(1000, func() { n = tree.Child(n, 3) }); allocs != 0 {
		t.Errorf("Child allocated %v times per call, want 0", allocs)
	}
}

// BenchmarkUTSChild: one child descriptor per op, each the parent of the
// next, through Child and through the crypto/sha1 fallback.
func BenchmarkUTSChild(b *testing.B) {
	b.Run("Child", func(b *testing.B) {
		tree := T1LPrime()
		n := tree.Root()
		for i := 0; i < b.N; i++ {
			n = tree.Child(n, i)
		}
		sinkDesc = n.Desc
	})
	b.Run("sha1", func(b *testing.B) {
		var d [20]byte
		for i := 0; i < b.N; i++ {
			childDescSHA1(&d, &d, uint32(i))
		}
		sinkDesc = d
	})
}

var sinkDesc [20]byte
