#include "textflag.h"

// The VPSHUFB control that reverses the bytes of each 64-bit word; VPSHUFB
// shuffles within each 128-bit lane, so both lanes hold the same pattern.
DATA swap64mask<>+0x00(SB)/8, $0x0001020304050607
DATA swap64mask<>+0x08(SB)/8, $0x08090a0b0c0d0e0f
DATA swap64mask<>+0x10(SB)/8, $0x0001020304050607
DATA swap64mask<>+0x18(SB)/8, $0x08090a0b0c0d0e0f
GLOBL swap64mask<>(SB), RODATA|NOPTR, $32

// func swap64AVX2(dst, src unsafe.Pointer, n int)
//
// dst word i = src word i with its 8 bytes reversed, for i in [0, n), n a
// positive multiple of 8: the big-endian coercion in both directions. It
// moves bytes and does no arithmetic, so every bit pattern (NaN payloads,
// denormals, signed zeros) crosses unchanged. Loads and stores are
// unaligned. Each step loads its 64 bytes before it stores them, so dst may
// be src itself; any other overlap is not allowed.
TEXT ·swap64AVX2(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	SHLQ    $3, CX                  // CX = bytes to move
	VMOVDQU swap64mask<>(SB), Y2
	XORQ    AX, AX                  // AX = byte offset

loop:
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU 32(SI)(AX*1), Y1
	VPSHUFB Y2, Y0, Y0
	VPSHUFB Y2, Y1, Y1
	VMOVDQU Y0, (DI)(AX*1)
	VMOVDQU Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop

	VZEROUPPER
	RET
