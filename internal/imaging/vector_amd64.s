//go:build !purego

#include "textflag.h"

// AVX2 twins of the capture path's imaging loops. Each computes, one output
// sample to a lane, the arithmetic its Go twin computes for that sample in
// the same order, with multiply and add rounded separately (no FMA), so the
// two agree on every bit. Callers have bounds-checked everything a kernel
// touches.

DATA one<>+0(SB)/4, $0x3f800000
GLOBL one<>(SB), RODATA|NOPTR, $4

DATA half<>+0(SB)/4, $0x3f000000
GLOBL half<>(SB), RODATA|NOPTR, $4

DATA f255<>+0(SB)/4, $0x437f0000
GLOBL f255<>(SB), RODATA|NOPTR, $4

DATA i255<>+0(SB)/4, $255
GLOBL i255<>(SB), RODATA|NOPTR, $4

// two31 is 2³¹ as a float32, the first value VCVTTPS2DQ cannot convert.
DATA two31<>+0(SB)/4, $0x4f000000
GLOBL two31<>(SB), RODATA|NOPTR, $4

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

// func blurRowsAVX2(dst, src *float32, rows, n, dstStride, srcStride, tapStride int, kernel *float32, kn int, init *float32)
//
// One pass of the separable blur over rows rows of n outputs, no tap clamped:
// dst[y·dstStride+x] = init[x] + Σₖ src[y·srcStride+x+k·tapStride]·kernel[k],
// the kn taps added in ascending k. init[x] is +0 where the Go loop's sum
// starts from zero and -0, which any first product survives unchanged, where
// it starts from that product. Whole vectors are loaded even for the last
// n%8 outputs of a row, which are stored under a lane mask; the loads past
// them stay inside the caller's slack.
//
// A row is taken 32 outputs at a time while it has them, four accumulators
// a tap, so that the four add chains overlap instead of each vector waiting
// on its own; the rest, eight at a time. Each output's sum is the same
// either way.
TEXT ·blurRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	MOVQ tapStride+48(FP), R12
	MOVQ kernel+56(FP), R13
	MOVQ kn+64(FP), R14
	MOVQ init+72(FP), R15
	SHLQ $2, R10
	SHLQ $2, R11
	SHLQ $2, R12
	LEAQ (R13)(R14*4), R13     // end of the kernel
	SHLQ $2, R14
	NEGQ R14                   // byte offset of tap 0 from there

blurRow:
	XORQ BX, BX                // x in bytes
	MOVQ R9, CX                // outputs left in the row

blurBlock:
	CMPQ CX, $32
	JLT  blurVector
	VMOVUPS (R15)(BX*1), Y0
	VMOVUPS 32(R15)(BX*1), Y2
	VMOVUPS 64(R15)(BX*1), Y3
	VMOVUPS 96(R15)(BX*1), Y4
	LEAQ (SI)(BX*1), AX        // tap 0 of output x
	MOVQ R14, DX

blurBlockTap:
	VBROADCASTSS (R13)(DX*1), Y1
	VMULPS (AX), Y1, Y5
	VMULPS 32(AX), Y1, Y6
	VMULPS 64(AX), Y1, Y7
	VMULPS 96(AX), Y1, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VADDPS Y8, Y4, Y4
	ADDQ R12, AX
	ADDQ $4, DX
	JNE  blurBlockTap

	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y2, 32(DI)(BX*1)
	VMOVUPS Y3, 64(DI)(BX*1)
	VMOVUPS Y4, 96(DI)(BX*1)
	ADDQ $128, BX
	SUBQ $32, CX
	JNE  blurBlock
	JMP  blurNext

blurVector:
	VMOVUPS (R15)(BX*1), Y0
	LEAQ (SI)(BX*1), AX        // tap 0 of output x
	MOVQ R14, DX

blurTap:
	VBROADCASTSS (R13)(DX*1), Y1
	VMULPS (AX), Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ R12, AX
	ADDQ $4, DX
	JNE  blurTap

	CMPQ CX, $8
	JLT  blurTail
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	SUBQ $8, CX
	JNE  blurVector
	JMP  blurNext

blurTail:
	NEGQ CX
	LEAQ tailMask<>+32(SB), AX
	VMOVDQU (AX)(CX*4), Y1
	LEAQ (DI)(BX*1), AX
	VMASKMOVPS Y0, Y1, (AX)

blurNext:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JNE  blurRow
	VZEROUPPER
	RET

// func clamp01AVX2(p *float32, n int)
//
// Image.Clamp over p[:n], n > 0 a multiple of 8. VMAXPS/VMINPS return their
// second source when it is a NaN or both are zeros, so with v second a NaN
// and a -0 pass through as they do through the Go comparisons.
TEXT ·clamp01AVX2(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y1, Y1, Y1
	VBROADCASTSS one<>(SB), Y2

clampLoop:
	VMOVUPS (DI), Y0
	VMAXPS Y0, Y1, Y0
	VMINPS Y0, Y2, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  clampLoop
	VZEROUPPER
	RET

// func rgbToYCbCrAVX2(y, cb, cr, red, green, blue *float32, n int, coef *float32)
//
// RGBToYCbCrInto over n samples, n > 0 a multiple of 8. coef is the table
// yccFromRGB: the weights of Y, Cb and Cr in the order the Go expressions
// read them, each the magnitude that expression multiplies by.
TEXT ·rgbToYCbCrAVX2(SB), NOSPLIT, $0-64
	MOVQ y+0(FP), DI
	MOVQ cb+8(FP), R8
	MOVQ cr+16(FP), R9
	MOVQ red+24(FP), SI
	MOVQ green+32(FP), R10
	MOVQ blue+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ coef+56(FP), AX
	VBROADCASTSS 0(AX), Y7     // yR
	VBROADCASTSS 4(AX), Y8     // yG
	VBROADCASTSS 8(AX), Y9     // yB
	VBROADCASTSS 12(AX), Y10   // cbR (negative)
	VBROADCASTSS 16(AX), Y11   // cbG
	VBROADCASTSS 20(AX), Y12   // cbB = crR = 0.5
	VBROADCASTSS 24(AX), Y13   // crG
	VBROADCASTSS 28(AX), Y14   // crB
	XORQ BX, BX

yccLoop:
	VMOVUPS (SI)(BX*1), Y0     // r
	VMOVUPS (R10)(BX*1), Y1    // g
	VMOVUPS (R11)(BX*1), Y2    // b
	VMULPS Y0, Y7, Y3          // yR·r + yG·g + yB·b
	VMULPS Y1, Y8, Y4
	VADDPS Y4, Y3, Y3
	VMULPS Y2, Y9, Y4
	VADDPS Y4, Y3, Y3
	VMOVUPS Y3, (DI)(BX*1)
	VMULPS Y0, Y10, Y3         // cbR·r - cbG·g + 0.5·b
	VMULPS Y1, Y11, Y4
	VSUBPS Y4, Y3, Y3
	VMULPS Y2, Y12, Y4
	VADDPS Y4, Y3, Y3
	VMOVUPS Y3, (R8)(BX*1)
	VMULPS Y0, Y12, Y3         // 0.5·r - crG·g - crB·b
	VMULPS Y1, Y13, Y4
	VSUBPS Y4, Y3, Y3
	VMULPS Y2, Y14, Y4
	VSUBPS Y4, Y3, Y3
	VMOVUPS Y3, (R9)(BX*1)
	ADDQ $32, BX
	SUBQ $8, CX
	JNE  yccLoop
	VZEROUPPER
	RET

// QUANT8 is float32(quant8(v))/255 in every lane of v: v·255 + 0.5,
// truncated, clamped to [0, 255], converted back and divided. Y8 holds 255.0,
// Y9 0.5, Y10 2³¹, Y11 the integer 0 and Y12 the integer 255; t is scratch.
// Go truncates to 64 bits, VCVTTPS2DQ to 32: both turn a NaN or a sum below
// -2³¹ into a negative number that clamps to 0, but a sum of 2³¹ or more is
// 255 in Go and would be 0 here, so ok — all ones going in — keeps the lanes
// whose sum is below 2³¹ and the caller stores nothing unless that is all.
#define QUANT8(v, t, ok) \
	VMULPS Y8, v, v; \
	VADDPS Y9, v, v; \
	VCMPPS $0x11, Y10, v, t; \
	VANDPS t, ok, ok; \
	VCVTTPS2DQ v, v; \
	VPMAXSD Y11, v, v; \
	VPMINSD Y12, v, v; \
	VCVTDQ2PS v, v; \
	VDIVPS Y8, v, v

// func ycbcrToRGBQuant8AVX2(red, green, blue, y, cb, cr *float32, n int, coef *float32) int
//
// ToRGBQuant8Into over n samples, n > 0 a multiple of 8; coef is the table
// rgbFromYCC. It returns how many samples it converted: all of them, or the
// start of the first vector holding a sample only the Go loop converts as Go
// does (see QUANT8).
TEXT ·ycbcrToRGBQuant8AVX2(SB), NOSPLIT, $0-72
	MOVQ red+0(FP), DI
	MOVQ green+8(FP), R8
	MOVQ blue+16(FP), R9
	MOVQ y+24(FP), SI
	MOVQ cb+32(FP), R10
	MOVQ cr+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ coef+56(FP), AX
	VBROADCASTSS 0(AX), Y13    // rCr
	VBROADCASTSS 4(AX), Y14    // gCb
	VBROADCASTSS 8(AX), Y15    // gCr
	VBROADCASTSS 12(AX), Y7    // bCb
	VBROADCASTSS f255<>(SB), Y8
	VBROADCASTSS half<>(SB), Y9
	VBROADCASTSS two31<>(SB), Y10
	VPXOR Y11, Y11, Y11
	VPBROADCASTD i255<>(SB), Y12
	SHLQ $2, CX
	XORQ BX, BX

rgbLoop:
	VMOVUPS (SI)(BX*1), Y0     // y
	VMOVUPS (R10)(BX*1), Y1    // cb
	VMOVUPS (R11)(BX*1), Y2    // cr
	VPCMPEQD Y6, Y6, Y6        // ok
	VMULPS Y2, Y13, Y3         // y + rCr·cr
	VADDPS Y3, Y0, Y3
	QUANT8(Y3, Y5, Y6)
	VMULPS Y1, Y14, Y4         // y - gCb·cb - gCr·cr
	VSUBPS Y4, Y0, Y4
	VMULPS Y2, Y15, Y2
	VSUBPS Y2, Y4, Y4
	QUANT8(Y4, Y5, Y6)
	VMULPS Y1, Y7, Y1          // y + bCb·cb
	VADDPS Y1, Y0, Y0
	QUANT8(Y0, Y5, Y6)
	VMOVMSKPS Y6, AX
	CMPL AX, $0xff
	JNE  rgbDone
	VMOVUPS Y3, (DI)(BX*1)
	VMOVUPS Y4, (R8)(BX*1)
	VMOVUPS Y0, (R9)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   rgbLoop

rgbDone:
	SHRQ $2, BX
	MOVQ BX, ret+64(FP)
	VZEROUPPER
	RET

DATA nine<>+0(SB)/4, $0x41100000
GLOBL nine<>(SB), RODATA|NOPTR, $4

DATA quarter<>+0(SB)/4, $0x3e800000
GLOBL quarter<>(SB), RODATA|NOPTR, $4

DATA magnitude<>+0(SB)/4, $0x7fffffff
GLOBL magnitude<>(SB), RODATA|NOPTR, $4

// The row kernels below take n ≥ 8 outputs and cover a row with whole
// vectors: when n is not a multiple of 8 the last vector is the one ending at
// n, so it recomputes a few outputs of the one before it, from the same
// inputs, to the same values. None of them writes what it reads.
//
// NEXT advances the byte offset BX of the vector just done towards last, the
// offset of the final one, and jumps to loop unless that one is done.
#define NEXT(last, loop, done) \
	CMPQ BX, last; \
	JEQ  done; \
	ADDQ $32, BX; \
	CMPQ BX, last; \
	JBE  loop; \
	MOVQ last, BX; \
	JMP  loop

// func box3RowAVX2(dst, r0, r1, r2 *float32, n int)
//
// The radius-1 interior of BoxBlurInto: for x < n, dst[x] is the sum from +0
// of r0[x], r0[x+1], r0[x+2], then r1's and r2's three, divided by 9.
TEXT ·box3RowAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ r2+24(FP), R8
	MOVQ n+32(FP), R9
	LEAQ -32(R9*4), R9
	VBROADCASTSS nine<>(SB), Y7
	XORQ BX, BX

boxVector:
	VXORPS Y0, Y0, Y0
	VADDPS (SI)(BX*1), Y0, Y0
	VADDPS 4(SI)(BX*1), Y0, Y0
	VADDPS 8(SI)(BX*1), Y0, Y0
	VADDPS (DX)(BX*1), Y0, Y0
	VADDPS 4(DX)(BX*1), Y0, Y0
	VADDPS 8(DX)(BX*1), Y0, Y0
	VADDPS (R8)(BX*1), Y0, Y0
	VADDPS 4(R8)(BX*1), Y0, Y0
	VADDPS 8(R8)(BX*1), Y0, Y0
	VDIVPS Y7, Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	NEXT(R9, boxVector, boxDone)

boxDone:
	VZEROUPPER
	RET

// ORDERKEY turns the float32 bit patterns in v into orderKey's integers, or
// back (the map is its own inverse); Y15 holds 0x7fffffff and t is scratch.
#define ORDERKEY(v, t) \
	VPSRAD $31, v, t; \
	VPAND Y15, t, t; \
	VPXOR t, v, v

// PADCOLUMNS repeats the first and last of the w sorted columns at keys
// (the row from offset 4) into offsets 0 and 4(w+1); R13 holds w.
#define PADCOLUMNS(keys) \
	MOVL 4(keys), AX; \
	MOVL AX, (keys); \
	MOVL (keys)(R13*4), AX; \
	MOVL AX, 4(keys)(R13*4)

// func median3RowAVX2(dst, r0, r1, r2 *float32, keys *int32, w int)
//
// One output row of MedianDenoise3Into, w ≥ 8, from the rows above, at and
// below it (already clamped). Pass 1 sorts every column's three keys into
// the lo, mid and hi rows of keys (3·(w+2) integers, each row with the
// clamped column repeated at either end); pass 2 takes, for every x,
// med3(max of the lo of columns x-1, x, x+1, med3 of their mids, min of
// their his). The comparisons are on integers, so their order is free.
TEXT ·median3RowAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ r2+24(FP), R8
	MOVQ keys+32(FP), R10
	MOVQ w+40(FP), R13
	LEAQ 8(R13*4), R11
	LEAQ (R10)(R11*1), R12         // mid row
	LEAQ (R12)(R11*1), R11         // hi row
	LEAQ -32(R13*4), R9
	VPBROADCASTD magnitude<>(SB), Y15
	XORQ BX, BX

sortColumns:
	VMOVDQU (SI)(BX*1), Y0
	VMOVDQU (DX)(BX*1), Y1
	VMOVDQU (R8)(BX*1), Y2
	ORDERKEY(Y0, Y3)
	ORDERKEY(Y1, Y3)
	ORDERKEY(Y2, Y3)
	VPMINSD Y1, Y0, Y3             // a, b = min, max
	VPMAXSD Y1, Y0, Y4
	VPMINSD Y2, Y4, Y5             // b, c = min, max
	VPMAXSD Y2, Y4, Y6
	VPMINSD Y5, Y3, Y0             // lo, mid = min(a, b), max(a, b)
	VPMAXSD Y5, Y3, Y1
	VMOVDQU Y0, 4(R10)(BX*1)
	VMOVDQU Y1, 4(R12)(BX*1)
	VMOVDQU Y6, 4(R11)(BX*1)
	NEXT(R9, sortColumns, sorted)

sorted:
	PADCOLUMNS(R10)
	PADCOLUMNS(R12)
	PADCOLUMNS(R11)
	XORQ BX, BX

medians:
	VMOVDQU (R10)(BX*1), Y0        // max of the minima
	VPMAXSD 4(R10)(BX*1), Y0, Y0
	VPMAXSD 8(R10)(BX*1), Y0, Y0
	VMOVDQU (R12)(BX*1), Y1        // med3 of the medians
	VMOVDQU 4(R12)(BX*1), Y2
	VPMINSD Y2, Y1, Y3
	VPMAXSD Y2, Y1, Y4
	VPMINSD 8(R12)(BX*1), Y4, Y4
	VPMAXSD Y4, Y3, Y1
	VMOVDQU (R11)(BX*1), Y2        // min of the maxima
	VPMINSD 4(R11)(BX*1), Y2, Y2
	VPMINSD 8(R11)(BX*1), Y2, Y2
	VPMINSD Y1, Y0, Y3             // med3 of the three
	VPMAXSD Y1, Y0, Y4
	VPMINSD Y2, Y4, Y4
	VPMAXSD Y4, Y3, Y0
	ORDERKEY(Y0, Y3)
	VMOVDQU Y0, (DI)(BX*1)
	NEXT(R9, medians, mediansDone)

mediansDone:
	VZEROUPPER
	RET

// func halve2x2AVX2(dst, src *float32, rows, cells int)
//
// The exact 2:1 branch of boxDown on one plane of rows × cells outputs,
// cells ≥ 8: dst[y·cells+x] is the sum from +0 of t[2x], t[2x+1], b[2x] and
// b[2x+1], where t and b are source rows 2y and 2y+1, times ¼. VSHUFPS splits
// sixteen source samples into the even and odd ones, in the order
// 0 1 4 5 2 3 6 7 of the outputs, which VPERMPD puts right.
TEXT ·halve2x2AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cells+24(FP), R10
	LEAQ -32(R10*4), R9            // offset of the last vector of a row
	SHLQ $3, R10                   // bytes a source row
	VBROADCASTSS quarter<>(SB), Y7

halveRow:
	LEAQ (SI)(R10*1), DX           // the bottom source row
	XORQ BX, BX

halveVector:
	VMOVUPS (SI)(BX*2), Y0
	VMOVUPS 32(SI)(BX*2), Y1
	VSHUFPS $0x88, Y1, Y0, Y2      // top, even samples
	VSHUFPS $0xdd, Y1, Y0, Y3      // top, odd samples
	VMOVUPS (DX)(BX*2), Y0
	VMOVUPS 32(DX)(BX*2), Y1
	VSHUFPS $0x88, Y1, Y0, Y4      // bottom, even samples
	VSHUFPS $0xdd, Y1, Y0, Y5      // bottom, odd samples
	VXORPS Y6, Y6, Y6
	VADDPS Y2, Y6, Y6
	VADDPS Y3, Y6, Y6
	VADDPS Y4, Y6, Y6
	VADDPS Y5, Y6, Y6
	VMULPS Y7, Y6, Y6
	VPERMPD $0xd8, Y6, Y6
	VMOVUPS Y6, (DI)(BX*1)
	NEXT(R9, halveVector, halveNext)

halveNext:
	LEAQ 32(R9), AX                // bytes a destination row
	ADDQ AX, DI
	LEAQ (SI)(R10*2), SI
	DECQ R8
	JNE  halveRow
	VZEROUPPER
	RET
