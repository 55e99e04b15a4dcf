//go:build !purego

#include "textflag.h"

// The AVX2 twin of mosaicRow. It computes, one pixel to a lane, the float64
// arithmetic the Go loop computes for that pixel in the same order, every
// product and quotient rounded on its own (no FMA), so the two agree on
// every bit. The caller has bounds-checked everything the kernel touches.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

DATA signBit<>+0(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

// func mosaicRowAVX2(dst, sample *float32, noise, dx2 *float64, n int, k *mosaicConsts)
//
// mosaicRow over n > 0 pixels, a multiple of 4; noise holds the two draws
// of each pixel, shot then read, and a 2×2 lane shuffle splits a vector's
// eight into its four shot and four read draws. k is laid out as
// mosaicConsts: gains[4] at 0, dy2 32, vig 40, maxR2 48, shot 56, read 64,
// levels 72, flags 80. VMAXPD and VMINPD return their second source when it
// is a NaN or both are zeros, so with v second the clamps pass a NaN and a
// -0 as Go's comparisons do. math.Round rounds half away from zero: the
// kernel truncates, t, and steps t one away from zero where |x - t| ≥ 0.5;
// x - t is exact, and the step is taken by a blend, so t's sign survives
// where there is none (math.Round(-0.25) is -0).
TEXT ·mosaicRowAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ sample+8(FP), SI
	MOVQ noise+16(FP), R10
	MOVQ dx2+24(FP), R11
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R8
	VMOVUPD 0(R8), Y9          // gains by lane
	VBROADCASTSD 32(R8), Y10   // dy2
	VBROADCASTSD 40(R8), Y11   // vig
	VBROADCASTSD 48(R8), Y12   // maxR2
	VBROADCASTSD 56(R8), Y13   // shot
	VBROADCASTSD 64(R8), Y14   // read
	VBROADCASTSD 72(R8), Y15   // levels
	VBROADCASTSD one<>(SB), Y8
	VXORPD Y7, Y7, Y7
	MOVQ 80(R8), DX            // flags
	XORQ BX, BX

mosaicVec:
	VMOVUPS (SI)(BX*4), X0     // sample
	TESTQ $1, DX
	JEQ  mosaicGain
	VMOVUPD (R11)(BX*8), Y1
	VADDPD Y10, Y1, Y1         // dx2 + dy2
	VMULPD Y1, Y11, Y1         // vig·(dx2 + dy2)
	VDIVPD Y12, Y1, Y1         // / maxR2
	VSUBPD Y1, Y8, Y1          // 1 - …
	VCVTPD2PSY Y1, X1
	VMULPS X1, X0, X0          // sample·float32(1 - …)

mosaicGain:
	VCVTPS2PD X0, Y0
	VMULPD Y9, Y0, Y0          // v = float64(sample)·gain
	VMAXPD Y0, Y7, Y0          // v < 0 becomes 0
	TESTQ $2, DX
	JEQ  mosaicQuiet
	VSQRTPD Y0, Y1
	VMOVUPD (R10), Y2          // s0 r0 s1 r1
	VMOVUPD 32(R10), Y3        // s2 r2 s3 r3
	VPERM2F128 $0x20, Y3, Y2, Y4 // s0 r0 s2 r2
	VPERM2F128 $0x31, Y3, Y2, Y5 // s1 r1 s3 r3
	VUNPCKLPD Y5, Y4, Y2       // the shot draws
	VUNPCKHPD Y5, Y4, Y3       // the read draws
	VMULPD Y13, Y2, Y2         // shot draw·shot
	VMULPD Y1, Y2, Y2          // ·sqrt(v)
	VMULPD Y14, Y3, Y3         // read draw·read
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0          // v += shot term + read term
	VMAXPD Y0, Y7, Y0

mosaicQuiet:
	VMINPD Y0, Y8, Y0          // v > 1 becomes 1
	VMULPD Y15, Y0, Y0         // x = v·levels
	VROUNDPD $3, Y0, Y1        // t = trunc(x)
	VSUBPD Y1, Y0, Y2          // x - t
	VBROADCASTSD signBit<>(SB), Y3
	VANDNPD Y2, Y3, Y2         // |x - t|
	VBROADCASTSD half<>(SB), Y4
	VCMPPD $0x1d, Y4, Y2, Y2   // |x - t| ≥ 0.5, false on a NaN
	VANDPD Y3, Y0, Y3
	VORPD Y8, Y3, Y3           // ±1 with x's sign
	VADDPD Y3, Y1, Y3
	VBLENDVPD Y2, Y3, Y1, Y1   // math.Round(x)
	VDIVPD Y15, Y1, Y1         // / levels
	VCVTPD2PSY Y1, X1
	VMOVUPS X1, (DI)(BX*4)
	ADDQ $64, R10
	ADDQ $4, BX
	CMPQ BX, CX
	JB   mosaicVec
	VZEROUPPER
	RET

DATA mersenne<>+0(SB)/8, $0x7fffffff
GLOBL mersenne<>(SB), RODATA|NOPTR, $8

// func seedAVX2(vec *uint64, x uint64, n int)
//
// Seed's loop over words 0 to n−1 of the register, n a multiple of 4 below
// 607: vec[r] = m₀<<40 ^ m₁<<20 ^ m₂ ^ rngCooked[606−r], where mₛ is
// x·seedPow[s][r] mod (2³¹−1), one VPMULUDQ (both factors below 2³¹) and
// mulMod's two folds. rngCooked is read backwards, four words at a time,
// their lanes reversed.
TEXT ·seedAVX2(SB), NOSPLIT, $0-24
	MOVQ vec+0(FP), DI
	VPBROADCASTQ x+8(FP), Y15
	MOVQ n+16(FP), CX
	VPBROADCASTQ mersenne<>(SB), Y14
	LEAQ ·seedPow(SB), SI
	LEAQ ·rngCooked+(603*8)(SB), DX
	XORQ BX, BX

seedVec:
	VPMULUDQ (SI)(BX*8), Y15, Y0       // x·seedPow[0][r]
	VPMULUDQ (607*8)(SI)(BX*8), Y15, Y1 // x·seedPow[1][r]
	VPMULUDQ (1214*8)(SI)(BX*8), Y15, Y2 // x·seedPow[2][r]
	VPAND Y14, Y0, Y3
	VPSRLQ $31, Y0, Y0
	VPADDQ Y3, Y0, Y0
	VPAND Y14, Y0, Y3
	VPSRLQ $31, Y0, Y0
	VPADDQ Y3, Y0, Y0
	VPAND Y14, Y1, Y3
	VPSRLQ $31, Y1, Y1
	VPADDQ Y3, Y1, Y1
	VPAND Y14, Y1, Y3
	VPSRLQ $31, Y1, Y1
	VPADDQ Y3, Y1, Y1
	VPAND Y14, Y2, Y3
	VPSRLQ $31, Y2, Y2
	VPADDQ Y3, Y2, Y2
	VPAND Y14, Y2, Y3
	VPSRLQ $31, Y2, Y2
	VPADDQ Y3, Y2, Y2
	VPSLLQ $40, Y0, Y0
	VPSLLQ $20, Y1, Y1
	VPXOR Y1, Y0, Y0
	VPXOR Y2, Y0, Y0
	VPERMQ $0x1b, (DX), Y3             // rngCooked[606−r … 603−r]
	VPXOR Y3, Y0, Y0
	VMOVDQU Y0, (DI)(BX*8)
	SUBQ $32, DX
	ADDQ $4, BX
	CMPQ BX, CX
	JB   seedVec
	VZEROUPPER
	RET

// func addBlockAVX2(dst, src *uint64, n int)
//
// addBlock over n > 0 words, a multiple of 4: dst[k] += src[k], the
// generator's steps of one block, which read nothing the block writes.
TEXT ·addBlockAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX

addVec:
	VMOVDQU (SI)(BX*8), Y0
	VPADDQ  (DI)(BX*8), Y0, Y0
	VMOVDQU Y0, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JB   addVec
	VZEROUPPER
	RET

// packLow and packHigh pick the low and the high dword of each of four
// qwords.
DATA packLow<>+0(SB)/4, $0
DATA packLow<>+4(SB)/4, $2
DATA packLow<>+8(SB)/4, $4
DATA packLow<>+12(SB)/4, $6
DATA packLow<>+16(SB)/4, $0
DATA packLow<>+20(SB)/4, $2
DATA packLow<>+24(SB)/4, $4
DATA packLow<>+28(SB)/4, $6
GLOBL packLow<>(SB), RODATA|NOPTR, $32

DATA packHigh<>+0(SB)/4, $1
DATA packHigh<>+4(SB)/4, $3
DATA packHigh<>+8(SB)/4, $5
DATA packHigh<>+12(SB)/4, $7
DATA packHigh<>+16(SB)/4, $1
DATA packHigh<>+20(SB)/4, $3
DATA packHigh<>+24(SB)/4, $5
DATA packHigh<>+28(SB)/4, $7
GLOBL packHigh<>(SB), RODATA|NOPTR, $32

DATA lowSeven<>+0(SB)/4, $0x7f
GLOBL lowSeven<>(SB), RODATA|NOPTR, $4

// func normFastAVX2(dst *float64, src *uint64, n int) int
//
// normFast over n > 0 draws, a multiple of 4, a vector of four at a time:
// j = int32(src >> 31), i = j & 0x7f, one gather of the strip's kn[i] and
// wn[i] from knwn, and the four normals float64(j)·float64(wn[i]), both
// conversions exact and the product rounded once, as the Go loop computes
// them. |j| is VPABSD's, which leaves MinInt32 as 2³¹, and the test is
// unsigned (max(|j|, kn[i]) == |j| is |j| ≥ kn[i]), as absInt32's uint32
// comparison is. A vector is stored whole; the kernel returns the index of
// its first draw off the fast path, whose slot and the ones after it the
// caller overwrites, or n.
TEXT ·normFastAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·knwn(SB), R8
	VMOVDQU packLow<>(SB), Y15
	VMOVDQU packHigh<>(SB), Y14
	VPBROADCASTD lowSeven<>(SB), X13
	XORQ BX, BX

normVec:
	VMOVDQU (SI)(BX*8), Y0
	VPSRLQ $31, Y0, Y0
	VPERMD Y0, Y15, Y0         // X0: the four j
	VPAND X13, X0, X1          // i
	VPCMPEQD Y2, Y2, Y2
	VPGATHERDQ Y2, (R8)(X1*8), Y3 // kn[i] | wn[i]<<32
	VPERMD Y3, Y15, Y4         // X4: kn[i]
	VPERMD Y3, Y14, Y5         // X5: wn[i]
	VCVTDQ2PD X0, Y6
	VCVTPS2PD X5, Y7
	VMULPD Y7, Y6, Y6
	VMOVUPD Y6, (DI)(BX*8)
	VPABSD X0, X1
	VPMAXUD X4, X1, X2
	VPCMPEQD X1, X2, X2        // |j| ≥ kn[i]
	VMOVMSKPS X2, AX
	TESTL AX, AX
	JNE  normOff
	ADDQ $4, BX
	CMPQ BX, CX
	JB   normVec
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

normOff:
	BSFL AX, AX
	ADDQ AX, BX
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// caLanes are a step's columns from its first, caLo and caHi the samples
// VPERMPS spreads over the even lanes of the step's first and second eight
// columns.
DATA caLanes<>+0(SB)/8, $0x0000000200000000
DATA caLanes<>+8(SB)/8, $0x0000000600000004
DATA caLanes<>+16(SB)/8, $0x0000000a00000008
DATA caLanes<>+24(SB)/8, $0x0000000e0000000c
GLOBL caLanes<>(SB), RODATA|NOPTR, $32

DATA caLo<>+0(SB)/8, $0x0000000000000000
DATA caLo<>+8(SB)/8, $0x0000000100000001
DATA caLo<>+16(SB)/8, $0x0000000200000002
DATA caLo<>+24(SB)/8, $0x0000000300000003
GLOBL caLo<>(SB), RODATA|NOPTR, $32

DATA caHi<>+0(SB)/8, $0x0000000400000004
DATA caHi<>+8(SB)/8, $0x0000000500000005
DATA caHi<>+16(SB)/8, $0x0000000600000006
DATA caHi<>+24(SB)/8, $0x0000000700000007
GLOBL caHi<>(SB), RODATA|NOPTR, $32

DATA oneF32<>+0(SB)/4, $1.0
GLOBL oneF32<>(SB), RODATA|NOPTR, $4

// func caRowAVX2(sample, row *float32, x, n int, s float32)
//
// caSampleFast's interior path for the columns x, x+2, …, x+16n-2 of a row,
// eight a step, one to a lane: fx = float32(x) - s, x0 = int(fx) (truncation,
// fx ≥ 0), frac = fx - float32(x0), then the two taps gathered from row[x0]
// and row[x0+1], each product rounded before the first is added to the
// second. A step's samples go to the even columns of sample[x:x+16] by blend;
// the odd ones keep what they hold.
TEXT ·caRowAVX2(SB), NOSPLIT, $0-36
	MOVQ sample+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ x+16(FP), AX
	MOVQ n+24(FP), CX
	VBROADCASTSS s+32(FP), Y10
	VMOVDQU caLanes<>(SB), Y11
	VBROADCASTSS oneF32<>(SB), Y12
	VMOVDQU caLo<>(SB), Y13
	VMOVDQU caHi<>(SB), Y14
	LEAQ (DI)(AX*4), DI        // sample[x]

caStep:
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	VPADDD Y11, Y0, Y0         // the step's columns
	VCVTDQ2PS Y0, Y0
	VSUBPS Y10, Y0, Y0         // fx
	VCVTTPS2DQ Y0, Y1          // x0
	VCVTDQ2PS Y1, Y2
	VSUBPS Y2, Y0, Y2          // frac
	VSUBPS Y2, Y12, Y3         // 1 - frac
	VPCMPEQD Y4, Y4, Y4        // gather every lane
	VGATHERDPS Y4, (SI)(Y1*4), Y5  // row[x0]
	VPCMPEQD Y4, Y4, Y4
	VGATHERDPS Y4, 4(SI)(Y1*4), Y6 // row[x0+1]
	VMULPS Y3, Y5, Y5
	VMULPS Y2, Y6, Y6
	VADDPS Y6, Y5, Y5
	VPERMPS Y5, Y13, Y7        // samples 0-3 to the first eight columns' even lanes
	VBLENDPS $0xaa, (DI), Y7, Y7
	VMOVUPS Y7, (DI)
	VPERMPS Y5, Y14, Y7        // samples 4-7 to the second eight's
	VBLENDPS $0xaa, 32(DI), Y7, Y7
	VMOVUPS Y7, 32(DI)
	ADDQ $16, AX
	ADDQ $64, DI
	DECQ CX
	JNE  caStep
	VZEROUPPER
	RET
