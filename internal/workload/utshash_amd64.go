package workload

import "encoding/binary"

// haveSHANI reports whether this CPU runs sha1BlockNI: the SHA extensions
// plus the SSSE3 (PSHUFB) and SSE4.1 (PEXTRD) instructions around them.
// CPUID alone decides; there is no switch.
var haveSHANI = detectSHANI()

func detectSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		ssse3  = 1 << 9  // leaf 1, ECX
		sse41  = 1 << 19 // leaf 1, ECX
		shaExt = 1 << 29 // leaf 7, EBX
	)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&shaExt != 0
}

// haveSHA1x16 reports whether this CPU runs sha1x16: AVX-512 Foundation,
// with the operating system saving the SSE, AVX and AVX-512 register
// state (XCR0 bits 1, 2 and 5-7). Like haveSHANI, CPUID and XGETBV alone
// decide. It is a variable only so that tests can take the one-at-a-time
// path on a CPU that has the kernel.
var haveSHA1x16 = detectSHA1x16()

func detectSHA1x16() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		osxsave = 1 << 27 // leaf 1, ECX: XGETBV is enabled
		avx512f = 1 << 16 // leaf 7, EBX
		// XCR0: SSE (1), AVX (2), opmask (5), upper halves of Z0-Z15 (6),
		// Z16-Z31 (7).
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	return ecx1&osxsave != 0 && ebx7&avx512f != 0 && xgetbv0()&zmmState == zmmState
}

// childDescNI hashes the 24-byte child message as the one block SHA-1 pads
// it to: parent ‖ BE32(i) ‖ 0x80 ‖ zeros ‖ BE64(192), 192 being the message
// length in bits. The block stays on the stack.
func childDescNI(dst, parent *[20]byte, i uint32) {
	var blk [64]byte
	copy(blk[:20], parent[:])
	binary.BigEndian.PutUint32(blk[20:], i)
	blk[24] = 0x80
	binary.BigEndian.PutUint64(blk[56:], 24*8)
	sha1BlockNI(dst, &blk)
}

// sha1BlockNI compresses blk from the SHA-1 initial value and writes the
// big-endian digest to dig. It needs haveSHANI.
//
//go:noescape
func sha1BlockNI(dig *[20]byte, blk *[64]byte)

// sha1x16 runs sixteen independent SHA-1 compressions, one per lane: lane
// k compresses the message words w[0][k] … w[15][k] into the chaining
// value h[0][k] … h[4][k], which it updates in place. Words are the
// big-endian words of the block and digest. It needs haveSHA1x16.
//
//go:noescape
func sha1x16(h *[5][16]uint32, w *[16][16]uint32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
