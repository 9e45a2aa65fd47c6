#include "textflag.h"

// func HasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5) and the OS saves
// the YMM state across context switches: OSXSAVE and AVX in leaf 1's ECX
// (bits 27, 28), then XCR0 bits 1 and 2 (XMM and YMM) read with XGETBV.
TEXT ·HasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET
