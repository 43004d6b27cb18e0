package workload

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"contsteal/internal/allocs"
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

// TestSHA1x16MatchesSHA1 holds every lane of the sixteen-lane kernel to
// crypto/sha1.Sum of the child message, with 1 to 16 lanes filled and the
// rest left as an earlier call had them: 1,000 seeded random parents, each
// at every childIndices entry, at every live-lane count.
func TestSHA1x16MatchesSHA1(t *testing.T) {
	if !haveSHA1x16 {
		t.Skip("no SHA-1 lane kernel here: the CPU lacks AVX-512F, the operating system does not save the AVX-512 registers, or this is not amd64")
	}
	rng := rand.New(rand.NewPCG(44, 16))
	parents := make([][20]byte, 1000)
	for p := range parents {
		for j := range parents[p] {
			parents[p][j] = byte(rng.Uint32())
		}
	}
	msgs := len(parents) * len(childIndices)
	w := getWalker()
	defer putWalker(w)
	for live := 1; live <= lanes; live++ {
		for start := 0; start < msgs; start += live {
			var want [lanes][20]byte
			for l := 0; l < live; l++ {
				m := (start + l) % msgs
				parent, i := &parents[m%len(parents)], childIndices[m/len(parents)]
				for j := range 5 {
					w.w[j][l] = binary.BigEndian.Uint32(parent[4*j:])
				}
				w.w[5][l] = i
				childDescSHA1(&want[l], parent, i)
			}
			w.h = sha1IVLanes
			sha1x16(&w.h, &w.w)
			for l := 0; l < live; l++ {
				var got [20]byte
				for j := range 5 {
					binary.BigEndian.PutUint32(got[4*j:], w.h[j][l])
				}
				if got != want[l] {
					t.Fatalf("%d live lanes, lane %d (parent word 0 %#x, child %d): got %x, want %x",
						live, l, w.w[0][l], w.w[5][l], got, want[l])
				}
			}
		}
	}
}

// TestUTSChildAllocFree: deriving a child allocates nothing — the padded
// block and the digest stay on the stack.
func TestUTSChildAllocFree(t *testing.T) {
	tree := T1LPrime()
	n := tree.Root()
	if m := allocs.Count(1000, func() { n = tree.Child(n, 3) }); m != 0 {
		t.Errorf("1,000 Child calls allocated %d times, want 0", m)
	}
}

// BenchmarkUTSChild measures the latency of one child descriptor: each is
// the parent of the next, so every hash waits for the one before it,
// through Child and through the crypto/sha1 fallback. The count walk hashes
// independent nodes instead (BenchmarkCountSerial).
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
