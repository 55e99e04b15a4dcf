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
