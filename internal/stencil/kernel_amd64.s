#include "textflag.h"

// func spanAVX2(dst, up, down, left, right *float64, n int)
//
// dst[j] = (((up[j] + down[j]) + left[j]) + right[j]) * 0.25 for j in
// [0, n), n a positive multiple of 4. Each lane does the scalar loop's
// operations in the scalar loop's order with the same IEEE rounding: no FMA,
// no reassociation, MXCSR as the caller left it (so denormals are computed,
// not flushed). Loads and stores are unaligned. dst may be up or down itself
// (same address: the in-place sweep): each step's loads all precede its
// stores, and a step stores only the words of up and down it loaded. Any
// other overlap of dst with up or down, and any overlap with left or right —
// one row seen one word apart, so a step would load what the step before
// stored — is not allowed.
TEXT ·spanAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ up+8(FP), SI
	MOVQ down+16(FP), DX
	MOVQ left+24(FP), R8
	MOVQ right+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ $0x3FD0000000000000, AX // 0.25
	MOVQ AX, X4
	VBROADCASTSD X4, Y4
	SHLQ $3, CX                  // CX = bytes in the span
	MOVQ CX, BX
	ANDQ $-64, BX                // BX = bytes covered by whole 8-point steps
	XORQ AX, AX                  // AX = byte offset
	CMPQ AX, BX
	JGE  four

eight:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y1
	VADDPD  (DX)(AX*1), Y0, Y0
	VADDPD  32(DX)(AX*1), Y1, Y1
	VADDPD  (R8)(AX*1), Y0, Y0
	VADDPD  32(R8)(AX*1), Y1, Y1
	VADDPD  (R9)(AX*1), Y0, Y0
	VADDPD  32(R9)(AX*1), Y1, Y1
	VMULPD  Y4, Y0, Y0
	VMULPD  Y4, Y1, Y1
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, BX
	JLT     eight

four:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*1), Y0
	VADDPD  (DX)(AX*1), Y0, Y0
	VADDPD  (R8)(AX*1), Y0, Y0
	VADDPD  (R9)(AX*1), Y0, Y0
	VMULPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)

done:
	VZEROUPPER
	RET
