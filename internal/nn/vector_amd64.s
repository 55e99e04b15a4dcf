//go:build !purego

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

// dwZeros stands in for an input row above or below the plane: 72 bytes are
// read from it.
GLOBL dwZeros<>(SB), RODATA|NOPTR, $96

// The depthwise kernel takes a whole layer a call and reads the planes where
// they lie: there is no padded copy, so a padding tap must read a zero some
// other way. A row above or below the plane is dwZeros; a column left or right
// of it is a lane its load masks off (VMASKMOVPS loads +0 there and does not
// touch the memory), under the masks the caller made for each vector of eight
// outputs along a row. Either way the tap adds ker·0, as it did over a padded
// plane.
//
// Per channel the nine taps, scale and shift are broadcast into the frame, 32
// bytes each. Four output rows are computed at a time, in Y0, Y1, Y12 and Y13,
// so that an input row several of them read is loaded once; Y2–Y5 hold a
// row's loads, of which Y4, Y5 and Y2 end up as its vectors for kx = 0, 1 and
// 2; Y6 is scratch, Y7–Y10 the load masks of the vector's column, Y11 its
// store mask, Y14 is 6 and Y15 +0.

// DWNEXT points AX at the next input row, BX, whose index is DX: at dwZeros
// when the row is above or below the plane, R9 rows high.
#define DWNEXT \
	MOVQ BX, AX; \
	CMPQ DX, R9; \
	CMOVQCC CX, AX; \
	ADDQ R10, BX; \
	INCQ DX

// DWROW1 loads the next input row's vectors for eight adjacent outputs; the
// loads start at elements 0, 1 and 2 of the row.
#define DWROW1 \
	DWNEXT; \
	VMASKMOVPS 0(AX), Y7, Y4; \
	VMASKMOVPS 4(AX), Y8, Y5; \
	VMASKMOVPS 8(AX), Y9, Y2

// DWROW2 is DWROW1 at stride 2: the even and odd elements of row[0:16] and
// the even ones of row[2:18], from loads that start at elements 0, 8, 2 and
// 10, each in the lane order 0 1 4 5 2 3 6 7 that VSHUFPS leaves and one
// VPERMPD of the sum undoes.
#define DWROW2 \
	DWNEXT; \
	VMASKMOVPS 0(AX), Y7, Y2; \
	VMASKMOVPS 32(AX), Y8, Y3; \
	VSHUFPS $0x88, Y3, Y2, Y4; \
	VSHUFPS $0xdd, Y3, Y2, Y5; \
	VMASKMOVPS 8(AX), Y9, Y2; \
	VMASKMOVPS 40(AX), Y10, Y3; \
	VSHUFPS $0x88, Y3, Y2, Y2

// DWACC adds the row's three vectors times tap row ky to acc.
#define DWACC(acc, ky) \
	VMULPS (96*ky+0)(SP), Y4, Y6; \
	VADDPS Y6, acc, acc; \
	VMULPS (96*ky+32)(SP), Y5, Y6; \
	VADDPS Y6, acc, acc; \
	VMULPS (96*ky+64)(SP), Y2, Y6; \
	VADDPS Y6, acc, acc

// DWBCAST broadcasts the float at p into the frame at offset k.
#define DWBCAST(p, k) \
	VBROADCASTSS p, Y6; \
	VMOVUPS Y6, (k)(SP)

// DWBN is v·scale + shift.
#define DWBN(v) \
	VMULPS (288)(SP), v, v; \
	VADDPS (320)(SP), v, v

// DWCLAMP is CLAMP with the registers the kernel has left.
#define DWCLAMP(v) \
	VMAXPS v, Y15, v; \
	VMINPS v, Y14, v; \
	VANDPS absMask<>(SB), v, v

// func dw3x3AVX2(dst, src *float32, ch, inH, inW, outH, outW, stride, pad int, ker, scale, shift *float32, masks *uint32, relu6 bool) int
//
// A 3×3 depthwise layer at stride 1 or 2 over ch planes of inH × inW, pad 0
// or 1: dst[c][y][x] = bnAct(Σ ker[c][ky][kx]·src[c][y·stride-pad+ky][x·stride-pad+kx],
// scale[c], shift[c]), the nine taps added in ky,kx order from +0 with a tap
// outside the plane read as 0. masks holds 32 lanes for each vector of eight
// outputs along a row: the lanes inside the row of its loads at elements 0, 1
// and 2 (stride 1) or 0, 8, 2 and 10 (stride 2) from the vector's first tap.
// It returns the channels done: ch, or the index of the first channel with a
// tap that is not finite, where ker·0 would be NaN and the Go loop skips the
// tap.
//
// Channels are the outer loop, then the vectors of eight outputs along a row,
// then the output rows four at a time, so a column's masks are loaded once a
// channel. R15 is iy, the input row of the first taps of the four, R14 that
// row and R8 the first of the output rows.
TEXT ·dw3x3AVX2(SB), NOSPLIT, $384-120
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ inH+24(FP), R9
	MOVQ inW+32(FP), R10
	SHLQ $2, R10               // input row in bytes
	MOVQ outW+48(FP), R11
	SHLQ $2, R11               // output row in bytes
	MOVQ outH+40(FP), AX
	IMULQ stride+56(FP), AX
	SUBQ pad+64(FP), AX
	MOVQ AX, 352(SP)           // iy of the row after the last
	MOVQ stride+56(FP), AX
	IMULQ R10, AX
	SHLQ $2, AX
	MOVQ AX, 360(SP)           // bytes between the first input rows of two fours
	MOVQ $0, 368(SP)           // channel
	LEAQ dwZeros<>(SB), CX
	VBROADCASTSS six<>(SB), Y14
	VXORPS Y15, Y15, Y15

dwChannel:
	MOVQ 368(SP), DX
	LEAQ (DX)(DX*8), AX
	MOVQ ker+72(FP), BX
	LEAQ (BX)(AX*4), BX        // ker[c]
	VMOVUPS (BX), Y1
	VSUBPS Y1, Y1, Y1          // k-k is +0, or NaN when k is not finite
	VBROADCASTSS 32(BX), Y2
	VSUBPS Y2, Y2, Y2
	VORPS Y2, Y1, Y1
	VPTEST Y1, Y1
	JNZ  dwDone
	DWBCAST(0(BX), 0)
	DWBCAST(4(BX), 32)
	DWBCAST(8(BX), 64)
	DWBCAST(12(BX), 96)
	DWBCAST(16(BX), 128)
	DWBCAST(20(BX), 160)
	DWBCAST(24(BX), 192)
	DWBCAST(28(BX), 224)
	DWBCAST(32(BX), 256)
	MOVQ scale+80(FP), AX
	DWBCAST((AX)(DX*4), 288)
	MOVQ shift+88(FP), AX
	DWBCAST((AX)(DX*4), 320)
	MOVQ outW+48(FP), R13      // outputs left in a row

dwColumn:
	MOVQ outW+48(FP), AX
	SUBQ R13, AX               // the column's first output x
	LEAQ (DI)(AX*4), R8        // dst[c][0][x]
	MOVQ AX, BX
	SHLQ $4, BX
	ADDQ masks+96(FP), BX
	VMOVDQU 0(BX), Y7
	VMOVDQU 32(BX), Y8
	VMOVDQU 64(BX), Y9
	VMOVDQU 96(BX), Y10
	IMULQ stride+56(FP), AX
	LEAQ (SI)(AX*4), R14       // src[c][0][x·stride]
	MOVQ pad+64(FP), R15
	LEAQ 4(R10), AX
	IMULQ R15, AX
	SUBQ AX, R14               // src[c][-pad][x·stride-pad]
	NEGQ R15
	MOVQ $8, AX
	CMPQ R13, AX
	CMOVQLT R13, AX
	NEGQ AX
	LEAQ tailMask<>+32(SB), BX
	VMOVDQU (BX)(AX*4), Y11    // first min(8, left) lanes

dwRows:
	MOVQ R14, BX
	MOVQ R15, DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	CMPQ stride+56(FP), $1
	JNE  dwStride2
	DWROW1
	DWACC(Y0, 0)
	DWROW1
	DWACC(Y0, 1)
	DWACC(Y1, 0)
	DWROW1
	DWACC(Y0, 2)
	DWACC(Y1, 1)
	DWACC(Y12, 0)
	DWROW1
	DWACC(Y1, 2)
	DWACC(Y12, 1)
	DWACC(Y13, 0)
	DWROW1
	DWACC(Y12, 2)
	DWACC(Y13, 1)
	DWROW1
	DWACC(Y13, 2)
	JMP  dwFinish

dwStride2:
	DWROW2
	DWACC(Y0, 0)
	DWROW2
	DWACC(Y0, 1)
	DWROW2
	DWACC(Y0, 2)
	DWACC(Y1, 0)
	DWROW2
	DWACC(Y1, 1)
	DWROW2
	DWACC(Y1, 2)
	DWACC(Y12, 0)
	DWROW2
	DWACC(Y12, 1)
	DWROW2
	DWACC(Y12, 2)
	DWACC(Y13, 0)
	DWROW2
	DWACC(Y13, 1)
	DWROW2
	DWACC(Y13, 2)
	VPERMPD $0xd8, Y0, Y0
	VPERMPD $0xd8, Y1, Y1
	VPERMPD $0xd8, Y12, Y12
	VPERMPD $0xd8, Y13, Y13

dwFinish:
	DWBN(Y0)
	DWBN(Y1)
	DWBN(Y12)
	DWBN(Y13)
	CMPB relu6+104(FP), $0
	JEQ  dwStore
	DWCLAMP(Y0)
	DWCLAMP(Y1)
	DWCLAMP(Y12)
	DWCLAMP(Y13)

dwStore:                       // the rows of the four that there are
	MOVQ stride+56(FP), BX
	LEAQ (R15)(BX*1), AX       // iy of the second
	LEAQ (R11)(R11*2), DX
	CMPQ R13, $8
	JLT  dwTail
	VMOVUPS Y0, (R8)
	CMPQ AX, 352(SP)
	JGE  dwNextColumn
	VMOVUPS Y1, (R8)(R11*1)
	ADDQ BX, AX
	CMPQ AX, 352(SP)
	JGE  dwNextColumn
	VMOVUPS Y12, (R8)(R11*2)
	ADDQ BX, AX
	CMPQ AX, 352(SP)
	JGE  dwNextColumn
	VMOVUPS Y13, (R8)(DX*1)
	JMP  dwNextRows

dwTail:
	VMASKMOVPS Y0, Y11, (R8)
	CMPQ AX, 352(SP)
	JGE  dwNextColumn
	VMASKMOVPS Y1, Y11, (R8)(R11*1)
	ADDQ BX, AX
	CMPQ AX, 352(SP)
	JGE  dwNextColumn
	VMASKMOVPS Y12, Y11, (R8)(R11*2)
	ADDQ BX, AX
	CMPQ AX, 352(SP)
	JGE  dwNextColumn
	VMASKMOVPS Y13, Y11, (R8)(DX*1)

dwNextRows:
	ADDQ 360(SP), R14
	LEAQ (AX)(BX*1), R15
	LEAQ (R8)(R11*4), R8
	CMPQ R15, 352(SP)
	JLT  dwRows

dwNextColumn:
	SUBQ $8, R13
	JGT  dwColumn
	MOVQ R9, AX
	IMULQ R10, AX
	ADDQ AX, SI
	MOVQ outH+40(FP), AX
	IMULQ R11, AX
	ADDQ AX, DI
	MOVQ 368(SP), AX
	INCQ AX
	MOVQ AX, 368(SP)
	CMPQ AX, ch+16(FP)
	JLT  dwChannel

dwDone:
	MOVQ 368(SP), AX
	MOVQ AX, ret+112(FP)
	VZEROUPPER
	RET

// func absMaxPlanesAVX2(dst *uint32, src *float32, planes, n int)
//
// dst[c] is the largest bit pattern of src[c·n:(c+1)·n] with the sign bit
// cleared, for planes planes of n values, n > 0 a multiple of 8.
TEXT ·absMaxPlanesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ planes+16(FP), R8
	MOVQ n+24(FP), R9
	VMOVDQU absMask<>(SB), Y1

absMaxPlane:
	VPXOR Y0, Y0, Y0
	MOVQ R9, CX

absMaxLoop:
	VPAND (SI), Y1, Y2
	VPMAXUD Y2, Y0, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JNE  absMaxLoop
	VEXTRACTI128 $1, Y0, X2
	VPMAXUD X2, X0, X0
	VPSHUFD $0x4e, X0, X2
	VPMAXUD X2, X0, X0
	VPSHUFD $0xb1, X0, X2
	VPMAXUD X2, X0, X0
	VMOVD X0, (DI)
	ADDQ $4, DI
	DECQ R8
	JNE  absMaxPlane
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

// func quantizePlanesAVX2(dst, src *float32, planes, n int, inv *float32)
//
// dst[c][i] = float32(quantize(src[c][i], inv[c])) for planes planes of n
// values: quantized planes kept in float32, which holds every int8 exactly.
// The last n%8 values of a plane load and store under a lane mask.
TEXT ·quantizePlanesAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ planes+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ inv+32(FP), R10
	QUANTCONSTS
	MOVQ R9, CX
	ANDQ $7, CX
	NEGQ CX
	LEAQ tailMask<>+32(SB), AX
	VMOVDQU (AX)(CX*4), Y15    // first n%8 lanes

qplane:
	VBROADCASTSS (R10), Y10
	MOVQ R9, CX
	SHRQ $3, CX
	JEQ  qplaneTail

qplaneVector:
	VMOVUPS (SI), Y0
	QUANT(Y0, Y1)
	VCVTDQ2PS Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNE  qplaneVector

qplaneTail:
	MOVQ R9, CX
	ANDQ $7, CX
	JEQ  qplaneNext
	VMASKMOVPS (SI), Y15, Y0
	QUANT(Y0, Y1)
	VCVTDQ2PS Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
	LEAQ (SI)(CX*4), SI
	LEAQ (DI)(CX*4), DI

qplaneNext:
	ADDQ $4, R10
	DECQ R8
	JNE  qplane
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
