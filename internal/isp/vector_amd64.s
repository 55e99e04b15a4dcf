//go:build !purego

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

// tailMask<>+32-4k is the VMASKMOVPS mask of the first k lanes, k ≤ 8.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// parityMask<>+32q selects the lanes of x parity q in a vector that starts at
// an even x.
DATA parityMask<>+0(SB)/8, $0x00000000ffffffff
DATA parityMask<>+8(SB)/8, $0x00000000ffffffff
DATA parityMask<>+16(SB)/8, $0x00000000ffffffff
DATA parityMask<>+24(SB)/8, $0x00000000ffffffff
DATA parityMask<>+32(SB)/8, $0xffffffff00000000
DATA parityMask<>+40(SB)/8, $0xffffffff00000000
DATA parityMask<>+48(SB)/8, $0xffffffff00000000
DATA parityMask<>+56(SB)/8, $0xffffffff00000000
GLOBL parityMask<>(SB), RODATA|NOPTR, $64

DATA signBit<>+0(SB)/4, $0x80000000
GLOBL signBit<>(SB), RODATA|NOPTR, $4

DATA half<>+0(SB)/4, $0x3f000000
GLOBL half<>(SB), RODATA|NOPTR, $4

DATA quarter<>+0(SB)/4, $0x3e800000
GLOBL quarter<>(SB), RODATA|NOPTR, $4

// STORE writes Y0 to the 8 outputs at (DI)(BX*1), or, with CX < 8 outputs
// left in the row, to the first CX of them under a lane mask; it then
// advances BX and CX and loops to vec while outputs remain.
#define STORE(vec, tail, done) \
	CMPQ CX, $8; \
	JLT  tail; \
	VMOVUPS Y0, (DI)(BX*1); \
	ADDQ $32, BX; \
	SUBQ $8, CX; \
	JNE  vec; \
	JMP  done; \
tail: \
	NEGQ CX; \
	LEAQ tailMask<>+32(SB), AX; \
	VMOVDQU (AX)(CX*4), Y1; \
	LEAQ (DI)(BX*1), AX; \
	VMASKMOVPS Y0, Y1, (AX); \
done: \
	VZEROUPPER; \
	RET

// TAPS adds the taps of the lanePlan at plan to out, a tap at a time: each
// loaded from (AX) plus the tap's offset, less the sample at (DX) plus that
// offset when green is set. The plan's ntap is in R9, 2 or 4.
#define TAP(plan, off, out, green) \
	MOVLQSX off(plan), R11; \
	VMOVUPS (AX)(R11*4), Y4; \
	green; \
	VADDPS Y4, out, out

#define NOGREEN
#define LESSGREEN VSUBPS (DX)(R11*4), Y4, Y4

// func bilinearChanAVX2(dst, src, init *float32, w int, pl *lanePlan)
//
// bilinearChan over one row of w > 0 outputs: src is the padded centre of
// output 0, pl the two plans of even and odd x. Each vector computes both
// plans in every lane, starting each sum from the init row, and keeps the
// one of the lane's parity. A quotient by 2 or 4 is the product with the
// exact reciprocal, as in Go.
TEXT ·bilinearChanAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ init+16(FP), R10
	MOVQ w+24(FP), CX
	MOVQ pl+32(FP), R8
	XORQ BX, BX

bilinearVec:
	LEAQ (SI)(BX*1), AX
	MOVL 0(R8), R9
	TESTL R9, R9
	JNE  bilinearEvenTaps
	VMOVUPS (AX), Y2
	JMP  bilinearOdd

bilinearEvenTaps:
	VMOVUPS (R10)(BX*1), Y2
	TAP(R8, 8, Y2, NOGREEN)
	TAP(R8, 12, Y2, NOGREEN)
	CMPL R9, $2
	JEQ  bilinearEvenScale
	TAP(R8, 16, Y2, NOGREEN)
	TAP(R8, 20, Y2, NOGREEN)

bilinearEvenScale:
	VBROADCASTSS 4(R8), Y5
	VMULPS Y5, Y2, Y2

bilinearOdd:
	MOVL 24(R8), R9
	TESTL R9, R9
	JNE  bilinearOddTaps
	VMOVUPS (AX), Y3
	JMP  bilinearBlend

bilinearOddTaps:
	VMOVUPS (R10)(BX*1), Y3
	TAP(R8, 32, Y3, NOGREEN)
	TAP(R8, 36, Y3, NOGREEN)
	CMPL R9, $2
	JEQ  bilinearOddScale
	TAP(R8, 40, Y3, NOGREEN)
	TAP(R8, 44, Y3, NOGREEN)

bilinearOddScale:
	VBROADCASTSS 28(R8), Y5
	VMULPS Y5, Y3, Y3

bilinearBlend:
	VBLENDPS $0xaa, Y3, Y2, Y0
	STORE(bilinearVec, bilinearTail, bilinearDone)

// ABS is fmath.Abs of v in place, t a temporary: -v where v < 0, else v.
// VMAXPS returns its second source when it is a NaN or both are zeros, so
// with v second a NaN and a -0 come out as they went in.
#define ABS(v, t) \
	VXORPS Y15, v, t; \
	VMAXPS v, t, v

// func edgeGreenRowAVX2(dst, src *float32, w, stride, gp int)
//
// edgeGreenRow over one row of w > 0 outputs: src is the padded centre of
// output 0 on a plane of the given stride, gp the row's green parity. Every
// lane computes the interpolation and the lanes of parity gp take the copy.
TEXT ·edgeGreenRowAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), CX
	MOVQ stride+24(FP), R9
	MOVQ gp+32(FP), AX
	SHLQ $2, R9                // stride in bytes
	MOVQ R9, R10
	NEGQ R10
	SHLQ $5, AX
	LEAQ parityMask<>(SB), DX
	VMOVDQU (DX)(AX*1), Y12    // the green lanes
	VBROADCASTSS signBit<>(SB), Y15
	VBROADCASTSS half<>(SB), Y14
	VBROADCASTSS quarter<>(SB), Y13
	XORQ BX, BX

greenVec:
	LEAQ (SI)(BX*1), AX
	VMOVUPS -4(AX), Y0         // left
	VMOVUPS 4(AX), Y1          // right
	VMOVUPS (AX)(R10*1), Y2    // up
	VMOVUPS (AX)(R9*1), Y3     // down
	VMOVUPS (AX), Y4           // centre
	VADDPS Y4, Y4, Y5          // 2·centre
	VSUBPS Y1, Y0, Y6
	ABS(Y6, Y7)
	VSUBPS -8(AX), Y5, Y7
	VSUBPS 8(AX), Y7, Y7
	ABS(Y7, Y8)
	VADDPS Y7, Y6, Y6          // gh
	VSUBPS Y3, Y2, Y7
	ABS(Y7, Y8)
	VSUBPS (AX)(R10*2), Y5, Y8
	VSUBPS (AX)(R9*2), Y8, Y8
	ABS(Y8, Y9)
	VADDPS Y8, Y7, Y7          // gv
	VADDPS Y1, Y0, Y0          // left + right
	VADDPS Y3, Y2, Y8          // up + down
	VADDPS Y2, Y0, Y9
	VADDPS Y3, Y9, Y9
	VMULPS Y13, Y9, Y9         // (left + right + up + down) / 4
	VMULPS Y14, Y0, Y0         // (left + right) / 2
	VMULPS Y14, Y8, Y8         // (up + down) / 2
	VCMPPS $0x11, Y7, Y6, Y10  // gh < gv
	VCMPPS $0x11, Y6, Y7, Y11  // gv < gh
	VBLENDVPS Y11, Y8, Y9, Y9
	VBLENDVPS Y10, Y0, Y9, Y9
	VBLENDVPS Y12, Y4, Y9, Y0
	STORE(greenVec, greenTail, greenDone)

// func edgeRBChanAVX2(dst, src, green, init *float32, w int, pl *lanePlan)
//
// edgeRBChan over one row of w > 0 outputs: src and green are the padded
// centres of output 0 on two planes of one stride, pl the plans of even and
// odd x, each computed in every lane as in bilinearChanAVX2.
TEXT ·edgeRBChanAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ green+16(FP), R12
	MOVQ init+24(FP), R10
	MOVQ w+32(FP), CX
	MOVQ pl+40(FP), R8
	XORQ BX, BX

rbVec:
	LEAQ (SI)(BX*1), AX
	LEAQ (R12)(BX*1), DX
	MOVL 0(R8), R9
	TESTL R9, R9
	JNE  rbEvenTaps
	VMOVUPS (AX), Y2
	JMP  rbOdd

rbEvenTaps:
	VMOVUPS (R10)(BX*1), Y2
	TAP(R8, 8, Y2, LESSGREEN)
	TAP(R8, 12, Y2, LESSGREEN)
	CMPL R9, $2
	JEQ  rbEvenScale
	TAP(R8, 16, Y2, LESSGREEN)
	TAP(R8, 20, Y2, LESSGREEN)

rbEvenScale:
	VBROADCASTSS 4(R8), Y5
	VMULPS Y5, Y2, Y2
	VADDPS (DX), Y2, Y2

rbOdd:
	MOVL 24(R8), R9
	TESTL R9, R9
	JNE  rbOddTaps
	VMOVUPS (AX), Y3
	JMP  rbBlend

rbOddTaps:
	VMOVUPS (R10)(BX*1), Y3
	TAP(R8, 32, Y3, LESSGREEN)
	TAP(R8, 36, Y3, LESSGREEN)
	CMPL R9, $2
	JEQ  rbOddScale
	TAP(R8, 40, Y3, LESSGREEN)
	TAP(R8, 44, Y3, LESSGREEN)

rbOddScale:
	VBROADCASTSS 28(R8), Y5
	VMULPS Y5, Y3, Y3
	VADDPS (DX), Y3, Y3

rbBlend:
	VBLENDPS $0xaa, Y3, Y2, Y0
	STORE(rbVec, rbTail, rbDone)
