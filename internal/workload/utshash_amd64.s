#include "textflag.h"

// The SHA-1 of one UTS child descriptor is a single compression of a fixed,
// already padded 64-byte block (see utshash_amd64.go). Two kernels run it:
// sha1BlockNI one block at a time, for UTSTree.Child and for the count
// walk's short batches, and sha1x16 below sixteen blocks at a time, for the
// count walk. The first runs the compression with the SHA extensions
// (SHA1RNDS4, SHA1NEXTE, SHA1MSG1, SHA1MSG2) from the SHA-1 initial value,
// following Intel's reference schedule for one block: rounds in groups of
// four, with the message schedule for group g+3 computed while group g
// runs.
//
// Register use: X0 = ABCD, X1/X2 = E (they alternate between round groups),
// X3..X6 = the four message words in flight, X7 = byte-flip mask,
// X8/X9 = the initial value, added back after the last round.

// func sha1BlockNI(dig *[20]byte, blk *[64]byte)
TEXT ·sha1BlockNI(SB), NOSPLIT, $0-16
	MOVQ dig+0(FP), DI
	MOVQ blk+8(FP), SI

	MOVOU sha1IV<>+0(SB), X0
	MOVOU sha1IV<>+16(SB), X1
	MOVOU flipMask<>+0(SB), X7
	MOVO  X1, X8
	MOVO  X0, X9

	// Rounds 0-3
	MOVOU     0(SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-19
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 20-23
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 24-27
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 28-31
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 32-35
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 36-39
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 40-43
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 44-47
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 48-51
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 52-55
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 56-59
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 60-63
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $3, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 64-67
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 68-71
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the initial value back and store the digest big-endian: the flip
	// turns lanes (A B C D) into the bytes of A, B, C, D in that order, and E
	// is the top lane of X1.
	SHA1NEXTE X8, X1
	PADDD     X9, X0
	PSHUFB    X7, X0
	MOVOU     X0, 0(DI)
	PEXTRD    $3, X1, AX
	BSWAPL    AX
	MOVL      AX, 16(DI)
	RET

// The SHA-1 initial value in the register layout of the rounds: ABCD with A
// in the top lane, then E in the top lane of its own register.
DATA sha1IV<>+0(SB)/4, $0x10325476
DATA sha1IV<>+4(SB)/4, $0x98badcfe
DATA sha1IV<>+8(SB)/4, $0xefcdab89
DATA sha1IV<>+12(SB)/4, $0x67452301
DATA sha1IV<>+16(SB)/4, $0
DATA sha1IV<>+20(SB)/4, $0
DATA sha1IV<>+24(SB)/4, $0
DATA sha1IV<>+28(SB)/4, $0xc3d2e1f0
GLOBL sha1IV<>(SB), RODATA|NOPTR, $32

// Reverses the 16 bytes of a register: big-endian message words become
// native lanes with the first word on top, and back again for the digest.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// The sixteen-lane kernel: sha1x16 runs sixteen independent SHA-1
// compressions at once, one per 32-bit lane of the AVX-512 registers. Each
// round is a ternary-logic op for the round function, two rotates and four
// adds on all sixteen lanes; no round waits on another lane, so the kernel
// is bound by vector throughput rather than by the latency of one chain.
//
// Register use: Z0..Z4 = a, b, c, d, e (the roles rotate one register a
// round, so after 80 rounds they are back where they started), Z5 = the
// round constant K, Z6/Z7 = scratch, Z16..Z31 = the message schedule, a
// window of sixteen words in which W[t] replaces W[t-16] in register
// Z16 + t mod 16. Z15 (X15 is the zero register of Go's internal ABI) is
// left alone.

// VPTERNLOGD immediates for f(b, c, d), with b in the destination operand:
// the truth table of each function, indexed by b<<2 | c<<1 | d.
#define CH $0xca
#define PARITY $0x96
#define MAJ $0xe8

// ROUND runs one SHA-1 round on all lanes: e += rotl5(a) + f(b, c, d) + K +
// w, b = rotl30(b). The caller renames the registers for the next round.
#define ROUND(f, a, b, c, d, e, w) \
	VPADDD     w, e, e;    \
	VPADDD     Z5, e, e;   \
	VMOVDQA32  b, Z6;      \
	VPTERNLOGD f, d, c, Z6; \
	VPADDD     Z6, e, e;   \
	VPROLD     $5, a, Z7;  \
	VPADDD     Z7, e, e;   \
	VPROLD     $30, b, b

// SCHEDULE computes W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]) into
// the register that held W[t-16].
#define SCHEDULE(w16, w14, w8, w3) \
	VPTERNLOGD PARITY, w3, w8, w16; \
	VPXORD     w14, w16, w16;       \
	VPROLD     $1, w16, w16

// func sha1x16(h *[5][16]uint32, w *[16][16]uint32)
TEXT ·sha1x16(SB), NOSPLIT, $0-16
	MOVQ h+0(FP), DI
	MOVQ w+8(FP), SI

	VMOVDQU32 0(DI), Z0
	VMOVDQU32 64(DI), Z1
	VMOVDQU32 128(DI), Z2
	VMOVDQU32 192(DI), Z3
	VMOVDQU32 256(DI), Z4
	VMOVDQU32 0(SI), Z16
	VMOVDQU32 64(SI), Z17
	VMOVDQU32 128(SI), Z18
	VMOVDQU32 192(SI), Z19
	VMOVDQU32 256(SI), Z20
	VMOVDQU32 320(SI), Z21
	VMOVDQU32 384(SI), Z22
	VMOVDQU32 448(SI), Z23
	VMOVDQU32 512(SI), Z24
	VMOVDQU32 576(SI), Z25
	VMOVDQU32 640(SI), Z26
	VMOVDQU32 704(SI), Z27
	VMOVDQU32 768(SI), Z28
	VMOVDQU32 832(SI), Z29
	VMOVDQU32 896(SI), Z30
	VMOVDQU32 960(SI), Z31

	// Rounds 0-19
	MOVL         $0x5a827999, AX
	VPBROADCASTD AX, Z5
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, Z16)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, Z17)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, Z18)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, Z19)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, Z20)
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, Z21)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, Z22)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, Z23)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, Z24)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, Z25)
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, Z26)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, Z27)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, Z28)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, Z29)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, Z30)
	ROUND(CH, Z0, Z1, Z2, Z3, Z4, Z31)
	SCHEDULE(Z16, Z18, Z24, Z29)
	ROUND(CH, Z4, Z0, Z1, Z2, Z3, Z16)
	SCHEDULE(Z17, Z19, Z25, Z30)
	ROUND(CH, Z3, Z4, Z0, Z1, Z2, Z17)
	SCHEDULE(Z18, Z20, Z26, Z31)
	ROUND(CH, Z2, Z3, Z4, Z0, Z1, Z18)
	SCHEDULE(Z19, Z21, Z27, Z16)
	ROUND(CH, Z1, Z2, Z3, Z4, Z0, Z19)

	// Rounds 20-39
	MOVL         $0x6ed9eba1, AX
	VPBROADCASTD AX, Z5
	SCHEDULE(Z20, Z22, Z28, Z17)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z20)
	SCHEDULE(Z21, Z23, Z29, Z18)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z21)
	SCHEDULE(Z22, Z24, Z30, Z19)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z22)
	SCHEDULE(Z23, Z25, Z31, Z20)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z23)
	SCHEDULE(Z24, Z26, Z16, Z21)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z24)
	SCHEDULE(Z25, Z27, Z17, Z22)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z25)
	SCHEDULE(Z26, Z28, Z18, Z23)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z26)
	SCHEDULE(Z27, Z29, Z19, Z24)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z27)
	SCHEDULE(Z28, Z30, Z20, Z25)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z28)
	SCHEDULE(Z29, Z31, Z21, Z26)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z29)
	SCHEDULE(Z30, Z16, Z22, Z27)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z30)
	SCHEDULE(Z31, Z17, Z23, Z28)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z31)
	SCHEDULE(Z16, Z18, Z24, Z29)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z16)
	SCHEDULE(Z17, Z19, Z25, Z30)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z17)
	SCHEDULE(Z18, Z20, Z26, Z31)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z18)
	SCHEDULE(Z19, Z21, Z27, Z16)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z19)
	SCHEDULE(Z20, Z22, Z28, Z17)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z20)
	SCHEDULE(Z21, Z23, Z29, Z18)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z21)
	SCHEDULE(Z22, Z24, Z30, Z19)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z22)
	SCHEDULE(Z23, Z25, Z31, Z20)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z23)

	// Rounds 40-59
	MOVL         $0x8f1bbcdc, AX
	VPBROADCASTD AX, Z5
	SCHEDULE(Z24, Z26, Z16, Z21)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, Z24)
	SCHEDULE(Z25, Z27, Z17, Z22)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, Z25)
	SCHEDULE(Z26, Z28, Z18, Z23)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, Z26)
	SCHEDULE(Z27, Z29, Z19, Z24)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, Z27)
	SCHEDULE(Z28, Z30, Z20, Z25)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, Z28)
	SCHEDULE(Z29, Z31, Z21, Z26)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, Z29)
	SCHEDULE(Z30, Z16, Z22, Z27)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, Z30)
	SCHEDULE(Z31, Z17, Z23, Z28)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, Z31)
	SCHEDULE(Z16, Z18, Z24, Z29)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, Z16)
	SCHEDULE(Z17, Z19, Z25, Z30)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, Z17)
	SCHEDULE(Z18, Z20, Z26, Z31)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, Z18)
	SCHEDULE(Z19, Z21, Z27, Z16)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, Z19)
	SCHEDULE(Z20, Z22, Z28, Z17)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, Z20)
	SCHEDULE(Z21, Z23, Z29, Z18)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, Z21)
	SCHEDULE(Z22, Z24, Z30, Z19)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, Z22)
	SCHEDULE(Z23, Z25, Z31, Z20)
	ROUND(MAJ, Z0, Z1, Z2, Z3, Z4, Z23)
	SCHEDULE(Z24, Z26, Z16, Z21)
	ROUND(MAJ, Z4, Z0, Z1, Z2, Z3, Z24)
	SCHEDULE(Z25, Z27, Z17, Z22)
	ROUND(MAJ, Z3, Z4, Z0, Z1, Z2, Z25)
	SCHEDULE(Z26, Z28, Z18, Z23)
	ROUND(MAJ, Z2, Z3, Z4, Z0, Z1, Z26)
	SCHEDULE(Z27, Z29, Z19, Z24)
	ROUND(MAJ, Z1, Z2, Z3, Z4, Z0, Z27)

	// Rounds 60-79
	MOVL         $0xca62c1d6, AX
	VPBROADCASTD AX, Z5
	SCHEDULE(Z28, Z30, Z20, Z25)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z28)
	SCHEDULE(Z29, Z31, Z21, Z26)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z29)
	SCHEDULE(Z30, Z16, Z22, Z27)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z30)
	SCHEDULE(Z31, Z17, Z23, Z28)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z31)
	SCHEDULE(Z16, Z18, Z24, Z29)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z16)
	SCHEDULE(Z17, Z19, Z25, Z30)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z17)
	SCHEDULE(Z18, Z20, Z26, Z31)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z18)
	SCHEDULE(Z19, Z21, Z27, Z16)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z19)
	SCHEDULE(Z20, Z22, Z28, Z17)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z20)
	SCHEDULE(Z21, Z23, Z29, Z18)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z21)
	SCHEDULE(Z22, Z24, Z30, Z19)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z22)
	SCHEDULE(Z23, Z25, Z31, Z20)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z23)
	SCHEDULE(Z24, Z26, Z16, Z21)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z24)
	SCHEDULE(Z25, Z27, Z17, Z22)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z25)
	SCHEDULE(Z26, Z28, Z18, Z23)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z26)
	SCHEDULE(Z27, Z29, Z19, Z24)
	ROUND(PARITY, Z0, Z1, Z2, Z3, Z4, Z27)
	SCHEDULE(Z28, Z30, Z20, Z25)
	ROUND(PARITY, Z4, Z0, Z1, Z2, Z3, Z28)
	SCHEDULE(Z29, Z31, Z21, Z26)
	ROUND(PARITY, Z3, Z4, Z0, Z1, Z2, Z29)
	SCHEDULE(Z30, Z16, Z22, Z27)
	ROUND(PARITY, Z2, Z3, Z4, Z0, Z1, Z30)
	SCHEDULE(Z31, Z17, Z23, Z28)
	ROUND(PARITY, Z1, Z2, Z3, Z4, Z0, Z31)

	// Add the chaining value back and store the digest words.
	VPADDD    0(DI), Z0, Z0
	VPADDD    64(DI), Z1, Z1
	VPADDD    128(DI), Z2, Z2
	VPADDD    192(DI), Z3, Z3
	VPADDD    256(DI), Z4, Z4
	VMOVDQU32 Z0, 0(DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	VMOVDQU32 Z4, 256(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
