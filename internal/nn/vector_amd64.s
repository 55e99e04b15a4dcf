#include "textflag.h"

// AVX2 twins of the inference kernels. Each computes, one output pixel to a
// lane, the arithmetic its Go twin computes for that pixel in the same order,
// with multiply and add rounded separately (no FMA), so the two agree on
// every bit. Callers have bounds-checked everything a kernel touches.

DATA absMask<>+0(SB)/8, $0x7fffffff7fffffff
DATA absMask<>+8(SB)/8, $0x7fffffff7fffffff
DATA absMask<>+16(SB)/8, $0x7fffffff7fffffff
DATA absMask<>+24(SB)/8, $0x7fffffff7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $32

DATA six<>+0(SB)/4, $0x40c00000
GLOBL six<>(SB), RODATA|NOPTR, $4

DATA signBit<>+0(SB)/4, $0x80000000
GLOBL signBit<>(SB), RODATA|NOPTR, $4

DATA half<>+0(SB)/4, $0x3f000000
GLOBL half<>(SB), RODATA|NOPTR, $4

DATA qmax<>+0(SB)/4, $127
GLOBL qmax<>(SB), RODATA|NOPTR, $4

DATA qmin<>+0(SB)/4, $-127
GLOBL qmin<>(SB), RODATA|NOPTR, $4

// tailMask + 4·(8-n) is a lane mask with the first n lanes set.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// CLAMP is Go's min(max(v, 0), hi) on the bit pattern, with Y13 = +0,
// Y14 = hi and Y15 = absMask. VMAXPS/VMINPS return their second source when
// it is a NaN or both are zeros, so with v second a NaN survives both and the
// only wrong bit left is the sign of a -0 or of the NaN, which Go's lowering
// of min/max clears too.
#define CLAMP(v) \
	VMAXPS v, Y13, v; \
	VMINPS v, Y14, v; \
	VANDPS Y15, v, v

// MAC4 adds the weight at w times the pixels {Y8, Y9} into the accumulator
// pair {lo, hi}.
#define MAC4(w, lo, hi) \
	VBROADCASTSS w, Y10; \
	VMULPS Y10, Y8, Y11; \
	VADDPS Y11, lo, lo; \
	VMULPS Y10, Y9, Y12; \
	VADDPS Y12, hi, hi

// BN4 is v·scale + shift on the accumulator pair {lo, hi} of the channel at
// offset off of the tile.
#define BN4(off, lo, hi) \
	VBROADCASTSS off(R12), Y8; \
	VBROADCASTSS off(R13), Y9; \
	VMULPS Y8, lo, lo; \
	VADDPS Y9, lo, lo; \
	VMULPS Y8, hi, hi; \
	VADDPS Y9, hi, hi

// func gemmBNTilesAVX2(dst, w, a *float32, outC, p, ps, k int, scale, shift *float32, relu6 bool)
//
// gemmBN over channels [0, outC) and pixels [0, ps): outC a multiple of 4,
// ps of 16, k > 0. A tile is 4 channels × 16 pixels in Y0–Y7; each lane is
// the ordered sum s += w[c][j]·a[j][pi] over j.
TEXT ·gemmBNTilesAVX2(SB), NOSPLIT, $0-73
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ a+16(FP), DX
	MOVQ outC+24(FP), R8
	MOVQ p+32(FP), R9
	MOVQ ps+40(FP), R10
	MOVQ k+48(FP), R11
	MOVQ scale+56(FP), R12
	MOVQ shift+64(FP), R13
	SHLQ $2, R9                // plane stride of a and dst in bytes
	SHLQ $2, R10
	SHLQ $2, R11               // weight row stride in bytes
	LEAQ (R11)(R11*2), R14
	VXORPS Y13, Y13, Y13
	VBROADCASTSS six<>(SB), Y14
	VMOVUPS absMask<>(SB), Y15

gemmChannels:
	XORQ BX, BX                // pixel offset in bytes

gemmPixels:
	LEAQ (DX)(BX*1), AX        // a[0][pi]
	MOVQ SI, CX                // w[c][0]
	LEAQ (SI)(R11*1), R15      // end of w[c]
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gemmReduce:
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	MAC4((CX), Y0, Y1)
	MAC4((CX)(R11*1), Y2, Y3)
	MAC4((CX)(R11*2), Y4, Y5)
	MAC4((CX)(R14*1), Y6, Y7)
	ADDQ R9, AX
	ADDQ $4, CX
	CMPQ CX, R15
	JB   gemmReduce

	BN4(0, Y0, Y1)
	BN4(4, Y2, Y3)
	BN4(8, Y4, Y5)
	BN4(12, Y6, Y7)
	CMPB relu6+72(FP), $0
	JEQ  gemmStore
	CLAMP(Y0)
	CLAMP(Y1)
	CLAMP(Y2)
	CLAMP(Y3)
	CLAMP(Y4)
	CLAMP(Y5)
	CLAMP(Y6)
	CLAMP(Y7)

gemmStore:
	LEAQ (DI)(BX*1), AX        // dst[c][pi]
	LEAQ (R9)(R9*2), CX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, (AX)(R9*1)
	VMOVUPS Y3, 32(AX)(R9*1)
	VMOVUPS Y4, (AX)(R9*2)
	VMOVUPS Y5, 32(AX)(R9*2)
	VMOVUPS Y6, (AX)(CX*1)
	VMOVUPS Y7, 32(AX)(CX*1)
	ADDQ $64, BX
	CMPQ BX, R10
	JB   gemmPixels

	LEAQ (DI)(R9*4), DI
	LEAQ (SI)(R11*4), SI
	ADDQ $16, R12
	ADDQ $16, R13
	SUBQ $4, R8
	JA   gemmChannels
	VZEROUPPER
	RET

// QMAC4 adds the weight pair at w times the panel pairs {Y8, Y9} into the
// accumulator pair {lo, hi}: VPMADDWD is w[2j]·x[2j] + w[2j+1]·x[2j+1] in
// each 32-bit lane.
#define QMAC4(w, lo, hi) \
	VPBROADCASTD w, Y10; \
	VPMADDWD Y10, Y8, Y11; \
	VPADDD Y11, lo, lo; \
	VPMADDWD Y10, Y9, Y11; \
	VPADDD Y11, hi, hi

// QFIN4 is float32(acc)·(ws·ax) + bias on the accumulator pair {lo, hi} of
// the channel at offset off of the tile; Y12 holds ax.
#define QFIN4(off, lo, hi) \
	VBROADCASTSS off(R12), Y8; \
	VMULPS Y12, Y8, Y8; \
	VBROADCASTSS off(R13), Y9; \
	VCVTDQ2PS lo, lo; \
	VCVTDQ2PS hi, hi; \
	VMULPS Y8, lo, lo; \
	VADDPS Y9, lo, lo; \
	VMULPS Y8, hi, hi; \
	VADDPS Y9, hi, hi

// func qgemmTilesAVX2(dst *float32, w *int16, panel *int8, outC, p, ps, kp int, ws, bias *float32, ax, clamp float32)
//
// qgemm over channels [0, outC) and pixels [0, ps): outC a multiple of 4, ps
// of 16, kp > 0 tap pairs. w is (outC, 2·kp) int16 and the panel holds, for
// tap pair j and pixel pi, the bytes x[2j][pi], x[2j+1][pi] at (j·p + pi)·2.
// A tile is 4 channels × 16 pixels of int32 sums in Y0–Y7; integer addition
// is exact, so the pairwise association changes no sum.
TEXT ·qgemmTilesAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ outC+24(FP), R8
	MOVQ p+32(FP), R9
	MOVQ ps+40(FP), R10
	MOVQ kp+48(FP), R11
	MOVQ ws+56(FP), R12
	MOVQ bias+64(FP), R13
	VBROADCASTSS ax+72(FP), Y12
	VBROADCASTSS clamp+76(FP), Y14
	SHLQ $2, R11               // weight row stride in bytes
	LEAQ (R11)(R11*2), R14
	VXORPS Y13, Y13, Y13
	VMOVUPS absMask<>(SB), Y15

qgemmChannels:
	XORQ BX, BX                // pixel index

qgemmPixels:
	LEAQ (DX)(BX*2), AX        // panel pair 0 of pixel pi
	MOVQ SI, CX                // w[c][0]
	LEAQ (SI)(R11*1), R15      // end of w[c]
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

qgemmReduce:
	VPMOVSXBW (AX), Y8
	VPMOVSXBW 16(AX), Y9
	QMAC4((CX), Y0, Y1)
	QMAC4((CX)(R11*1), Y2, Y3)
	QMAC4((CX)(R11*2), Y4, Y5)
	QMAC4((CX)(R14*1), Y6, Y7)
	LEAQ (AX)(R9*2), AX
	ADDQ $4, CX
	CMPQ CX, R15
	JB   qgemmReduce

	QFIN4(0, Y0, Y1)
	QFIN4(4, Y2, Y3)
	QFIN4(8, Y4, Y5)
	QFIN4(12, Y6, Y7)
	MOVL clamp+76(FP), CX      // clamp > 0, on the bit pattern
	CMPL CX, $0
	JLE  qgemmStore
	CLAMP(Y0)
	CLAMP(Y1)
	CLAMP(Y2)
	CLAMP(Y3)
	CLAMP(Y4)
	CLAMP(Y5)
	CLAMP(Y6)
	CLAMP(Y7)

qgemmStore:
	LEAQ (DI)(BX*4), AX        // dst[c][pi]
	LEAQ (R9)(R9*2), CX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, (AX)(R9*4)
	VMOVUPS Y3, 32(AX)(R9*4)
	VMOVUPS Y4, (AX)(R9*8)
	VMOVUPS Y5, 32(AX)(R9*8)
	VMOVUPS Y6, (AX)(CX*4)
	VMOVUPS Y7, 32(AX)(CX*4)
	ADDQ $16, BX
	CMPQ BX, R10
	JB   qgemmPixels

	MOVQ R9, CX
	SHLQ $4, CX
	ADDQ CX, DI                // four planes of dst
	LEAQ (SI)(R11*4), SI
	ADDQ $16, R12
	ADDQ $16, R13
	SUBQ $4, R8
	JA   qgemmChannels
	VZEROUPPER
	RET

// The depthwise kernels keep the nine taps in Y0–Y8, scale in Y9, shift in
// Y10 and the accumulator in Y11; Y12 and Y13 are scratch. AX, BX and DX walk
// the three input rows of the output row at R12.

// TAPS1 adds one input row's three taps of eight adjacent outputs.
#define TAPS1(row, t0, t1, t2) \
	VMULPS 0(row), t0, Y12; \
	VADDPS Y12, Y11, Y11; \
	VMULPS 4(row), t1, Y12; \
	VADDPS Y12, Y11, Y11; \
	VMULPS 8(row), t2, Y12; \
	VADDPS Y12, Y11, Y11

// TAPS2 is TAPS1 at stride 2: the even and odd elements of row[0:16] and the
// even ones of row[2:18], each in the lane order 0 1 4 5 2 3 6 7 that
// VSHUFPS leaves and DWPERM2 undoes once.
#define TAPS2(row, t0, t1, t2) \
	VMOVUPS 0(row), Y12; \
	VSHUFPS $0x88, 32(row), Y12, Y13; \
	VMULPS Y13, t0, Y13; \
	VADDPS Y13, Y11, Y11; \
	VSHUFPS $0xdd, 32(row), Y12, Y12; \
	VMULPS Y12, t1, Y12; \
	VADDPS Y12, Y11, Y11; \
	VMOVUPS 8(row), Y12; \
	VSHUFPS $0x88, 40(row), Y12, Y12; \
	VMULPS Y12, t2, Y12; \
	VADDPS Y12, Y11, Y11

#define DWPERM1
#define DWPERM2 VPERMPD $0xd8, Y11, Y11

// DWPLANE is the body of both depthwise kernels once the arguments are in
// DI, SI, R8–R11 (dst, src, rows, n and the two strides), AX (ker), R13
// (relu6), Y9 and Y10: TAPS and PERM are those of the stride, step the bytes
// eight outputs advance an input row by and rowStep the register holding the
// bytes between the first input rows of two output rows. A full vector is stored whole, the last n%8 outputs of a row
// under a lane mask; the loads past them stay inside the caller's slack.
#define DWPLANE(TAPS, PERM, step, rowStep) \
	SHLQ $2, R10; \
	SHLQ $2, R11; \
	LEAQ (R11)(R11*1), R14; \
	VBROADCASTSS 0(AX), Y0; \
	VBROADCASTSS 4(AX), Y1; \
	VBROADCASTSS 8(AX), Y2; \
	VBROADCASTSS 12(AX), Y3; \
	VBROADCASTSS 16(AX), Y4; \
	VBROADCASTSS 20(AX), Y5; \
	VBROADCASTSS 24(AX), Y6; \
	VBROADCASTSS 28(AX), Y7; \
	VBROADCASTSS 32(AX), Y8; \
	VBROADCASTSS six<>(SB), Y14; \
	VMOVUPS absMask<>(SB), Y15; \
row: \
	MOVQ SI, AX; \
	LEAQ (SI)(R11*1), BX; \
	LEAQ (SI)(R11*2), DX; \
	MOVQ DI, R12; \
	MOVQ R9, CX; \
vector: \
	VXORPS Y11, Y11, Y11; \
	TAPS(AX, Y0, Y1, Y2); \
	TAPS(BX, Y3, Y4, Y5); \
	TAPS(DX, Y6, Y7, Y8); \
	PERM; \
	VMULPS Y9, Y11, Y11; \
	VADDPS Y10, Y11, Y11; \
	TESTQ R13, R13; \
	JEQ  store; \
	VXORPS Y13, Y13, Y13; \
	CLAMP(Y11); \
store: \
	CMPQ CX, $8; \
	JLT  tail; \
	VMOVUPS Y11, (R12); \
	ADDQ $step, AX; \
	ADDQ $step, BX; \
	ADDQ $step, DX; \
	ADDQ $32, R12; \
	SUBQ $8, CX; \
	JNE  vector; \
	JMP  nextRow; \
tail: \
	NEGQ CX; \
	LEAQ tailMask<>+32(SB), AX; \
	VMOVDQU (AX)(CX*4), Y12; \
	VMASKMOVPS Y11, Y12, (R12); \
nextRow: \
	ADDQ rowStep, SI; \
	ADDQ R10, DI; \
	DECQ R8; \
	JNE  row; \
	VZEROUPPER; \
	RET

// func dw3x3s1AVX2(dst, src *float32, rows, n, dstStride, srcStride int, ker *float32, scale, shift float32, relu6 bool)
//
// A 3×3 depthwise plane at stride 1 whose every tap is in bounds: rows × n
// outputs, dst[y][x] = bnAct(Σ ker[ky][kx]·src[y+ky][x+kx]), the nine taps
// added in ky,kx order from +0. It reads up to 7 elements past a row's last
// window.
TEXT ·dw3x3s1AVX2(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	MOVQ ker+48(FP), AX
	MOVBQZX relu6+64(FP), R13
	VBROADCASTSS scale+56(FP), Y9
	VBROADCASTSS shift+60(FP), Y10
	DWPLANE(TAPS1, DWPERM1, 32, R11)

// func dw3x3s2AVX2(dst, src *float32, rows, n, dstStride, srcStride int, ker *float32, scale, shift float32, relu6 bool)
//
// The same at stride 2, dst[y][x] = bnAct(Σ ker[ky][kx]·src[2y+ky][2x+kx]).
// It reads up to 14 elements past a row's last window.
TEXT ·dw3x3s2AVX2(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	MOVQ ker+48(FP), AX
	MOVBQZX relu6+64(FP), R13
	VBROADCASTSS scale+56(FP), Y9
	VBROADCASTSS shift+60(FP), Y10
	DWPLANE(TAPS2, DWPERM2, 64, R14)

// func absMaxAVX2(src *float32, n int) uint32
//
// The largest bit pattern of src[:n] with the sign bit cleared, n > 0 a
// multiple of 8.
TEXT ·absMaxAVX2(SB), NOSPLIT, $0-20
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), CX
	VMOVDQU absMask<>(SB), Y1
	VPXOR Y0, Y0, Y0

absMaxLoop:
	VPAND (SI), Y1, Y2
	VPMAXUD Y2, Y0, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JNE  absMaxLoop
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VPMAXUD X1, X0, X0
	VMOVD X0, AX
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// QUANT is quantize(v, inv) in every lane of v, as an int32: v·inv, plus 0.5
// with the product's sign (qround), truncated, clamped to ±127. Y10 holds
// inv, Y11 the sign bit, Y12 0.5, Y13 -127 and Y14 127; t is scratch.
// VCVTTPS2DQ is the conversion Go compiles int32(float32) to, so what is out
// of range or NaN becomes -2³¹ and clamps to -127 in both.
#define QUANT(v, t) \
	VMULPS Y10, v, v; \
	VANDPS Y11, v, t; \
	VORPS Y12, t, t; \
	VADDPS t, v, v; \
	VCVTTPS2DQ v, v; \
	VPMAXSD Y13, v, v; \
	VPMINSD Y14, v, v

#define QUANTCONSTS \
	VPBROADCASTD signBit<>(SB), Y11; \
	VPBROADCASTD half<>(SB), Y12; \
	VPBROADCASTD qmin<>(SB), Y13; \
	VPBROADCASTD qmax<>(SB), Y14

// func quantizePlaneAVX2(dst, src *float32, rows, n, dstStride int, inv float32)
//
// dst[y][x] = float32(quantize(src[y·n+x], inv)) for rows rows of n values,
// dst rows dstStride apart: a quantized plane kept in float32, which holds
// every int8 exactly. The last n%8 values of a row load and store under a
// lane mask.
TEXT ·quantizePlaneAVX2(SB), NOSPLIT, $0-44
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	VBROADCASTSS inv+40(FP), Y10
	QUANTCONSTS
	SHLQ $2, R10
	MOVQ R9, CX
	ANDQ $7, CX
	NEGQ CX
	LEAQ tailMask<>+32(SB), AX
	VMOVDQU (AX)(CX*4), Y15    // first n%8 lanes

qplaneRow:
	MOVQ DI, AX
	MOVQ R9, CX
	SHRQ $3, CX
	JEQ  qplaneTail

qplaneVector:
	VMOVUPS (SI), Y0
	QUANT(Y0, Y1)
	VCVTDQ2PS Y0, Y0
	VMOVUPS Y0, (AX)
	ADDQ $32, SI
	ADDQ $32, AX
	DECQ CX
	JNE  qplaneVector

qplaneTail:
	MOVQ R9, CX
	ANDQ $7, CX
	JEQ  qplaneNext
	VMASKMOVPS (SI), Y15, Y0
	QUANT(Y0, Y1)
	VCVTDQ2PS Y0, Y0
	VMASKMOVPS Y0, Y15, (AX)
	LEAQ (SI)(CX*4), SI

qplaneNext:
	ADDQ R10, DI
	DECQ R8
	JNE  qplaneRow
	VZEROUPPER
	RET

// PAIR16 packs sixteen quantized pixels of two taps, Y0 Y1 of the even one
// and Y2 Y3 of the odd one, into the 32 bytes x[2j][pi], x[2j+1][pi], … at (AX):
// each 32-bit lane takes its low half from the even tap and its high half
// from the odd one, VPACKSSWB narrows the halves to bytes within each
// 128-bit lane and VPERMQ puts the pixels back in order.
#define PAIR16 \
	VPSLLD $16, Y2, Y2; \
	VPSLLD $16, Y3, Y3; \
	VPBLENDW $0xaa, Y2, Y0, Y0; \
	VPBLENDW $0xaa, Y3, Y1, Y1; \
	VPACKSSWB Y1, Y0, Y0; \
	VPERMQ $0xd8, Y0, Y0; \
	VMOVDQU Y0, (AX)

// func quantizePanelAVX2(dst *int8, src *float32, p, ps, k int, inv float32)
//
// quantizePanel over pixels [0, ps) of every tap, ps a multiple of 16: src is
// k planes of p values, dst the pair-interleaved panel.
TEXT ·quantizePanelAVX2(SB), NOSPLIT, $0-44
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ p+16(FP), R9
	MOVQ ps+24(FP), R10
	MOVQ k+32(FP), R8
	VBROADCASTSS inv+40(FP), Y10
	QUANTCONSTS
	LEAQ (SI)(R9*4), DX        // the odd tap's plane
	CMPQ R8, $2
	JLT  qpanelLast

qpanelPair:
	XORQ BX, BX

qpanelPixels:
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS 32(SI)(BX*4), Y1
	VMOVUPS (DX)(BX*4), Y2
	VMOVUPS 32(DX)(BX*4), Y3
	QUANT(Y0, Y4)
	QUANT(Y1, Y4)
	QUANT(Y2, Y4)
	QUANT(Y3, Y4)
	LEAQ (DI)(BX*2), AX
	PAIR16
	ADDQ $16, BX
	CMPQ BX, R10
	JB   qpanelPixels
	LEAQ (SI)(R9*8), SI
	LEAQ (DX)(R9*8), DX
	LEAQ (DI)(R9*2), DI
	SUBQ $2, R8
	CMPQ R8, $2
	JGE  qpanelPair

qpanelLast:
	TESTQ R8, R8
	JEQ  qpanelDone
	XORQ BX, BX

qpanelOdd:                     // an odd last tap: its partner is zero
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS 32(SI)(BX*4), Y1
	QUANT(Y0, Y4)
	QUANT(Y1, Y4)
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	LEAQ (DI)(BX*2), AX
	PAIR16
	ADDQ $16, BX
	CMPQ BX, R10
	JB   qpanelOdd

qpanelDone:
	VZEROUPPER
	RET
