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

// func mosaicRowAVX2(dst, sample *float32, shotN, readN, dx2 *float64, n int, k *mosaicConsts)
//
// mosaicRow over n > 0 pixels, a multiple of 4. k is laid out as
// mosaicConsts: gains[4] at 0, dy2 32, vig 40, maxR2 48, shot 56, read 64,
// levels 72, flags 80. VMAXPD and VMINPD return their second source when it
// is a NaN or both are zeros, so with v second the clamps pass a NaN and a
// -0 as Go's comparisons do. math.Round rounds half away from zero: the
// kernel truncates, t, and steps t one away from zero where |x - t| ≥ 0.5;
// x - t is exact, and the step is taken by a blend, so t's sign survives
// where there is none (math.Round(-0.25) is -0).
TEXT ·mosaicRowAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ sample+8(FP), SI
	MOVQ shotN+16(FP), R9
	MOVQ readN+24(FP), R10
	MOVQ dx2+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ k+48(FP), R8
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
	VMOVUPD (R9)(BX*8), Y2
	VMULPD Y13, Y2, Y2         // shotN·shot
	VMULPD Y1, Y2, Y2          // ·sqrt(v)
	VMOVUPD (R10)(BX*8), Y3
	VMULPD Y14, Y3, Y3         // readN·read
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
	ADDQ $4, BX
	CMPQ BX, CX
	JB   mosaicVec
	VZEROUPPER
	RET
