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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
