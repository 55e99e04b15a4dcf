#include "textflag.h"

// AVX2 twins of the fused pipeline's in-place pointwise passes. Each
// computes, one sample to a lane, the arithmetic its Go twin computes for
// that sample in the same order, with multiply and add rounded separately (no
// FMA), so the two agree on every bit. Callers have bounds-checked everything
// a kernel touches.

// two31 is 2³¹ as a float32, the first value VCVTTPS2DQ cannot convert.
DATA two31<>+0(SB)/4, $0x4f000000
GLOBL two31<>(SB), RODATA|NOPTR, $4

// func applyLUTAVX2(pix *float32, n int, lut *float32, last int, scale float32) int
//
// applyLUT over pix[:n], n > 0 a multiple of 8, on a table whose last index
// is last ≥ 1. VMAXPS returns its second source when it is a NaN or both are
// zeros, so with v second a NaN and a -0 reach the square root as they do in
// Go; VSQRTPS rounds as float32(math.Sqrt(float64(v))) does, which Go
// compiles to the scalar form of the same instruction. Go converts the index
// to 64 bits and then either saturates or, on a NaN, an infinity or 2⁶³ and
// more, panics; VCVTTPS2DQ converts nothing from 2³¹ up. So the kernel stops
// at the first vector with an index not below 2³¹ and returns how many
// samples it has written, leaving that vector and the rest to the Go loop.
// Below 2³¹ a lane past the table takes lut[last], as in Go, by a blend; its
// gather index is clamped into the table first.
TEXT ·applyLUTAVX2(SB), NOSPLIT, $0-48
	MOVQ pix+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ lut+16(FP), DX
	MOVQ last+24(FP), AX
	VBROADCASTSS scale+32(FP), Y15
	VBROADCASTSS two31<>(SB), Y14
	VXORPS Y13, Y13, Y13
	VBROADCASTSS (DX)(AX*4), Y12 // lut[last]
	DECQ AX
	VMOVQ AX, X11
	VPBROADCASTD X11, Y11      // last-1, the largest index that interpolates
	SHLQ $2, CX
	XORQ BX, BX

lutLoop:
	VMOVUPS (DI)(BX*1), Y0
	VMAXPS Y0, Y13, Y0         // v < 0 becomes 0
	VSQRTPS Y0, Y0
	VMULPS Y15, Y0, Y0         // u
	VCMPPS $0x11, Y14, Y0, Y1  // u < 2³¹, false on a NaN
	VMOVMSKPS Y1, AX
	CMPL AX, $0xff
	JNE  lutDone
	VCVTTPS2DQ Y0, Y1          // j
	VCVTDQ2PS Y1, Y2
	VSUBPS Y2, Y0, Y0          // frac = u - float32(j)
	VPCMPGTD Y11, Y1, Y2       // j ≥ last
	VPMINSD Y11, Y1, Y1
	VPCMPEQD Y3, Y3, Y3
	VGATHERDPS Y3, (DX)(Y1*4), Y4 // lut[j]
	VPCMPEQD Y3, Y3, Y3
	VGATHERDPS Y3, 4(DX)(Y1*4), Y5 // lut[j+1]
	VSUBPS Y4, Y5, Y5
	VMULPS Y0, Y5, Y5
	VADDPS Y5, Y4, Y4          // lut[j] + (lut[j+1]-lut[j])·frac
	VBLENDVPS Y2, Y12, Y4, Y4
	VMOVUPS Y4, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   lutLoop

lutDone:
	SHRQ $2, BX
	MOVQ BX, ret+40(FP)
	VZEROUPPER
	RET

// MIX is m[off]·r + m[off+1]·g + m[off+2]·b on {Y0, Y1, Y2} with the row of
// the matrix in {m0, m1, m2}, into Y3.
#define MIX(m0, m1, m2) \
	VMULPS Y0, m0, Y3; \
	VMULPS Y1, m1, Y4; \
	VADDPS Y4, Y3, Y3; \
	VMULPS Y2, m2, Y4; \
	VADDPS Y4, Y3, Y3

// func applyMatrixAVX2(red, green, blue *float32, n int, m *float32)
//
// applyMatrix over n samples of the three planes in place, n > 0 a multiple
// of 8; m is the row-major 3×3 matrix.
TEXT ·applyMatrixAVX2(SB), NOSPLIT, $0-40
	MOVQ red+0(FP), DI
	MOVQ green+8(FP), R8
	MOVQ blue+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ m+32(FP), AX
	VBROADCASTSS 0(AX), Y7
	VBROADCASTSS 4(AX), Y8
	VBROADCASTSS 8(AX), Y9
	VBROADCASTSS 12(AX), Y10
	VBROADCASTSS 16(AX), Y11
	VBROADCASTSS 20(AX), Y12
	VBROADCASTSS 24(AX), Y13
	VBROADCASTSS 28(AX), Y14
	VBROADCASTSS 32(AX), Y15
	XORQ BX, BX

matrixLoop:
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS (R8)(BX*1), Y1
	VMOVUPS (R9)(BX*1), Y2
	MIX(Y7, Y8, Y9)
	VMOVUPS Y3, (DI)(BX*1)
	MIX(Y10, Y11, Y12)
	VMOVUPS Y3, (R8)(BX*1)
	MIX(Y13, Y14, Y15)
	VMOVUPS Y3, (R9)(BX*1)
	ADDQ $32, BX
	SUBQ $8, CX
	JNE  matrixLoop
	VZEROUPPER
	RET

// func unsharpAVX2(pix, blur *float32, n int, amount float32)
//
// pix[i] = pix[i] + amount·(pix[i] - blur[i]) over n samples, n > 0 a
// multiple of 8.
TEXT ·unsharpAVX2(SB), NOSPLIT, $0-28
	MOVQ pix+0(FP), DI
	MOVQ blur+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS amount+24(FP), Y2
	XORQ BX, BX

unsharpLoop:
	VMOVUPS (DI)(BX*1), Y0
	VSUBPS (SI)(BX*1), Y0, Y1
	VMULPS Y1, Y2, Y1
	VADDPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	SUBQ $8, CX
	JNE  unsharpLoop
	VZEROUPPER
	RET
