#include "textflag.h"

// The SHA-1 of one UTS child descriptor is a single compression of a fixed,
// already padded 64-byte block (see utshash_amd64.go). This kernel runs that
// compression with the SHA extensions (SHA1RNDS4, SHA1NEXTE, SHA1MSG1,
// SHA1MSG2) from the SHA-1 initial value, following Intel's reference
// schedule for one block: rounds in groups of four, with the message
// schedule for group g+3 computed while group g runs.
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
