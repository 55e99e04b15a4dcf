//go:build !purego

#include "textflag.h"

// AVX2 twins of the 8×8 and 16×16 transforms. A separable pass of either
// direction is a small matrix product whose every output is the dot product
// the Go kernels unroll — taps multiplied and added in ascending index, the
// first product opening the sum — so one kernel a block size, with the eight
// or sixteen outputs of a row in the lanes and multiply and add rounded
// separately (no FMA), serves all four passes bit for bit. Callers have
// bounds-checked everything a kernel touches.

// TAP8 adds a[i][c]·b[c][:] to the row sum in Y8; off is 4c and brow the
// register holding row c of b.
#define TAP8(off, brow) \
	VBROADCASTSS off(SI), Y9; \
	VMULPS brow, Y9, Y9; \
	VADDPS Y9, Y8, Y8

// func matmul8AVX2(dst, a, b *float32)
//
// dst = a·b for row-major 8×8 matrices: dst[i][j] = Σ_c a[i][c]·b[c][j]. b is
// loaded whole before the first store and row i of a before row i of dst is
// stored, so dst may be either.
TEXT ·matmul8AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	VMOVUPS 0(DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	VMOVUPS 96(DX), Y3
	VMOVUPS 128(DX), Y4
	VMOVUPS 160(DX), Y5
	VMOVUPS 192(DX), Y6
	VMOVUPS 224(DX), Y7
	MOVQ $8, CX

matmul8Row:
	VBROADCASTSS 0(SI), Y8
	VMULPS Y0, Y8, Y8
	TAP8(4, Y1)
	TAP8(8, Y2)
	TAP8(12, Y3)
	TAP8(16, Y4)
	TAP8(20, Y5)
	TAP8(24, Y6)
	TAP8(28, Y7)
	VMOVUPS Y8, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNE  matmul8Row
	VZEROUPPER
	RET

// TAP16 adds a[i][c]·b[c][:] to the row sum in {Y0, Y1}; off is 4c, lo and
// hi the byte offsets of the two halves of row c of b.
#define TAP16(off, lo, hi) \
	VBROADCASTSS off(SI), Y2; \
	VMULPS lo(DX), Y2, Y3; \
	VADDPS Y3, Y0, Y0; \
	VMULPS hi(DX), Y2, Y3; \
	VADDPS Y3, Y1, Y1

// func matmul16AVX2(dst, a, b *float32)
//
// dst = a·b for row-major 16×16 matrices. Row i of a is read before row i of
// dst is stored, so dst may be a; it must not be b.
TEXT ·matmul16AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ $16, CX

matmul16Row:
	VBROADCASTSS 0(SI), Y2
	VMULPS 0(DX), Y2, Y0
	VMULPS 32(DX), Y2, Y1
	TAP16(4, 64, 96)
	TAP16(8, 128, 160)
	TAP16(12, 192, 224)
	TAP16(16, 256, 288)
	TAP16(20, 320, 352)
	TAP16(24, 384, 416)
	TAP16(28, 448, 480)
	TAP16(32, 512, 544)
	TAP16(36, 576, 608)
	TAP16(40, 640, 672)
	TAP16(44, 704, 736)
	TAP16(48, 768, 800)
	TAP16(52, 832, 864)
	TAP16(56, 896, 928)
	TAP16(60, 960, 992)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNE  matmul16Row
	VZEROUPPER
	RET

DATA signBit<>+0(SB)/4, $0x80000000
GLOBL signBit<>(SB), RODATA|NOPTR, $4

DATA half<>+0(SB)/4, $0x3f000000
GLOBL half<>(SB), RODATA|NOPTR, $4

DATA quarter<>+0(SB)/4, $0x3e800000
GLOBL quarter<>(SB), RODATA|NOPTR, $4

DATA threeQuarters<>+0(SB)/4, $0x3f400000
GLOBL threeQuarters<>(SB), RODATA|NOPTR, $4

// func quantizeScanAVX2(out *int32, freq, scanQuant *float32, zz *int32, n int)
//
// quantizeScan over one block of n > 0 samples, a multiple of 8: out[i] =
// quantRound(freq[zz[i]] / scanQuant[i]). The block is gathered in scan
// order; the quotient gets 0.5 with its own sign added and is truncated, and
// VCVTTPS2DQ, like amd64's int32(float32), makes 0x80000000 of a NaN or of a
// sum outside int32.
TEXT ·quantizeScanAVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ freq+8(FP), SI
	MOVQ scanQuant+16(FP), DX
	MOVQ zz+24(FP), R8
	MOVQ n+32(FP), CX
	VPBROADCASTD signBit<>(SB), Y5
	VBROADCASTSS half<>(SB), Y6
	SHLQ $2, CX
	XORQ BX, BX

quantLoop:
	VMOVDQU (R8)(BX*1), Y1         // scan positions
	VPCMPEQD Y2, Y2, Y2            // gather every lane
	VGATHERDPS Y2, (SI)(Y1*4), Y0  // freq[zz[i]]
	VDIVPS (DX)(BX*1), Y0, Y0      // q = freq[zz[i]] / scanQuant[i]
	VANDPS Y5, Y0, Y3              // q's sign
	VORPS Y6, Y3, Y3               // ±0.5
	VADDPS Y3, Y0, Y0              // q ± 0.5
	VCVTTPS2DQ Y0, Y0
	VMOVDQU Y0, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   quantLoop
	VZEROUPPER
	RET

// func dequantizeScanAVX2(freq *float32, cf *int32, quant *float32, unzz *int32, n int)
//
// dequantizeScan over one block of n > 0 samples, a multiple of 8, in
// frequency order: freq[j] = float32(cf[unzz[j]]) · quant[j], the coefficient
// of each frequency gathered from its place in the scan.
TEXT ·dequantizeScanAVX2(SB), NOSPLIT, $0-40
	MOVQ freq+0(FP), DI
	MOVQ cf+8(FP), SI
	MOVQ quant+16(FP), DX
	MOVQ unzz+24(FP), R8
	MOVQ n+32(FP), CX
	SHLQ $2, CX
	XORQ BX, BX

dequantLoop:
	VMOVDQU (R8)(BX*1), Y1         // scan places
	VPCMPEQD Y2, Y2, Y2            // gather every lane
	VPGATHERDD Y2, (SI)(Y1*4), Y0  // cf[unzz[j]]
	VCVTDQ2PS Y0, Y0
	VMULPS (DX)(BX*1), Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   dequantLoop
	VZEROUPPER
	RET

// func loadBlockAVX2(block, src *float32, stride, n int, mid float32)
//
// The interior branch of loadBlock: block[y·n+x] = src[y·stride+x] - mid for
// an n×n block, n = 4 or a multiple of 8.
TEXT ·loadBlockAVX2(SB), NOSPLIT, $0-36
	MOVQ block+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ n+24(FP), R8
	VBROADCASTSS mid+32(FP), Y1
	SHLQ $2, DX
	MOVQ R8, CX
	SHLQ $2, CX                    // bytes a block row
	CMPQ CX, $16
	JEQ  loadNarrow

loadRow:
	XORQ BX, BX

loadVector:
	VMOVUPS (SI)(BX*1), Y0
	VSUBPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   loadVector
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R8
	JNE  loadRow
	VZEROUPPER
	RET

loadNarrow:
	VMOVUPS (SI), X0
	VSUBPS X1, X0, X0
	VMOVUPS X0, (DI)
	ADDQ $16, DI
	ADDQ DX, SI
	DECQ R8
	JNE  loadNarrow
	VZEROUPPER
	RET

// func storeBlockAVX2(dst, spatial *float32, stride, n int, mid float32)
//
// The interior branch of storeBlock: dst[y·stride+x] = spatial[y·n+x] + mid
// for an n×n block, n = 4 or a multiple of 8.
TEXT ·storeBlockAVX2(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ spatial+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ n+24(FP), R8
	VBROADCASTSS mid+32(FP), Y1
	SHLQ $2, DX
	MOVQ R8, CX
	SHLQ $2, CX                    // bytes a block row
	CMPQ CX, $16
	JEQ  storeNarrow

storeRow:
	XORQ BX, BX

storeVector:
	VMOVUPS (SI)(BX*1), Y0
	VADDPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JB   storeVector
	ADDQ CX, SI
	ADDQ DX, DI
	DECQ R8
	JNE  storeRow
	VZEROUPPER
	RET

storeNarrow:
	VMOVUPS (SI), X0
	VADDPS X1, X0, X0
	VMOVUPS X0, (DI)
	ADDQ $16, SI
	ADDQ DX, DI
	DECQ R8
	JNE  storeNarrow
	VZEROUPPER
	RET

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

// func downsample2xAVX2(dst, src *float32, rows, cells, dstStride, srcStride int)
//
// The full cells of downsample2x: for rows output rows of cells ≥ 8 outputs,
// dst[y·dstStride+x] = (t[2x] + t[2x+1] + b[2x] + b[2x+1]) / 4, where t and b
// are source rows 2y and 2y+1, added left to right. Four is a power of two,
// so the quotient is the product with ¼. VSHUFPS splits sixteen source
// samples into the even and odd ones, in the order 0 1 4 5 2 3 6 7 of the
// outputs, which VPERMPD puts right.
TEXT ·downsample2xAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cells+24(FP), R9
	MOVQ dstStride+32(FP), R10
	MOVQ srcStride+40(FP), R11
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ -32(R9*4), R9             // offset of the last vector of a row
	VBROADCASTSS quarter<>(SB), Y7

downRow:
	LEAQ (SI)(R11*1), DX           // the bottom source row
	XORQ BX, BX

downVector:
	VMOVUPS (SI)(BX*2), Y0
	VMOVUPS 32(SI)(BX*2), Y1
	VSHUFPS $0x88, Y1, Y0, Y2      // top, even samples
	VSHUFPS $0xdd, Y1, Y0, Y3      // top, odd samples
	VMOVUPS (DX)(BX*2), Y0
	VMOVUPS 32(DX)(BX*2), Y1
	VSHUFPS $0x88, Y1, Y0, Y4      // bottom, even samples
	VSHUFPS $0xdd, Y1, Y0, Y5      // bottom, odd samples
	VADDPS Y3, Y2, Y2
	VADDPS Y4, Y2, Y2
	VADDPS Y5, Y2, Y2
	VMULPS Y7, Y2, Y2
	VPERMPD $0xd8, Y2, Y2
	VMOVUPS Y2, (DI)(BX*1)
	NEXT(R9, downVector, downNext)

downNext:
	ADDQ R10, DI
	LEAQ (SI)(R11*2), SI
	DECQ R8
	JNE  downRow
	VZEROUPPER
	RET

// func nearestRowAVX2(dst, src *float32, n int)
//
// Nearest-neighbour chroma upsampling of a row: dst[2j] = dst[2j+1] = src[j]
// for j < n, n ≥ 8.
TEXT ·nearestRowAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R9
	LEAQ -32(R9*4), R9
	XORQ BX, BX

nearestVector:
	VMOVUPS (SI)(BX*1), Y0
	VUNPCKLPS Y0, Y0, Y1           // 0 0 1 1 | 4 4 5 5
	VUNPCKHPS Y0, Y0, Y2           // 2 2 3 3 | 6 6 7 7
	VPERM2F128 $0x20, Y2, Y1, Y3
	VPERM2F128 $0x31, Y2, Y1, Y4
	VMOVUPS Y3, (DI)(BX*2)
	VMOVUPS Y4, 32(DI)(BX*2)
	NEXT(R9, nearestVector, nearestDone)

nearestDone:
	VZEROUPPER
	RET

// func fancyRowAVX2(dst, src *float32, n int)
//
// The horizontal pass of triangle-filter upsampling between source samples j
// and j+1, j < n, n ≥ 8: with d = src[j+1] - src[j], dst[2j] = src[j] + d·¼
// and dst[2j+1] = src[j] + d·¾ (dst is output x = 1 of the row).
TEXT ·fancyRowAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R9
	LEAQ -32(R9*4), R9
	VBROADCASTSS quarter<>(SB), Y6
	VBROADCASTSS threeQuarters<>(SB), Y7
	XORQ BX, BX

fancyVector:
	VMOVUPS (SI)(BX*1), Y0         // src[j]
	VMOVUPS 4(SI)(BX*1), Y1        // src[j+1]
	VSUBPS Y0, Y1, Y1              // d
	VMULPS Y6, Y1, Y2
	VADDPS Y2, Y0, Y2              // src[j] + d·¼
	VMULPS Y7, Y1, Y3
	VADDPS Y3, Y0, Y3              // src[j] + d·¾
	VUNPCKLPS Y3, Y2, Y4
	VUNPCKHPS Y3, Y2, Y5
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	VMOVUPS Y0, (DI)(BX*2)
	VMOVUPS Y1, 32(DI)(BX*2)
	NEXT(R9, fancyVector, fancyDone)

fancyDone:
	VZEROUPPER
	RET

// func lerpRowAVX2(dst, top, bot *float32, n int, wy float32)
//
// The vertical pass of triangle-filter upsampling: dst[x] = top[x] +
// (bot[x] - top[x])·wy for x < n, n ≥ 8.
TEXT ·lerpRowAVX2(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ top+8(FP), SI
	MOVQ bot+16(FP), DX
	MOVQ n+24(FP), R9
	VBROADCASTSS wy+32(FP), Y7
	LEAQ -32(R9*4), R9
	XORQ BX, BX

lerpVector:
	VMOVUPS (SI)(BX*1), Y0
	VMOVUPS (DX)(BX*1), Y1
	VSUBPS Y0, Y1, Y1
	VMULPS Y7, Y1, Y1
	VADDPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	NEXT(R9, lerpVector, lerpDone)

lerpDone:
	VZEROUPPER
	RET

// NZ8(k) ORs the zero flags of coefficients [8k, 8k+8) of the word at SI
// into bits [8k, 8k+8) of AX; Y15 is zero.
#define NZ8(k) \
	VPCMPEQD (32*k)(SI), Y15, Y0; \
	VMOVMSKPS Y0, BX; \
	SHLQ $(8*k), BX; \
	ORQ  BX, AX

// func nonzeroMaskAVX2(mask *uint64, cf *int32, words int)
//
// Bit j of mask[w] is cf[64w+j] != 0, for words whole words.
TEXT ·nonzeroMaskAVX2(SB), NOSPLIT, $0-24
	MOVQ mask+0(FP), DI
	MOVQ cf+8(FP), SI
	MOVQ words+16(FP), CX
	VPXOR Y15, Y15, Y15

nzWord:
	XORQ AX, AX
	NZ8(0)
	NZ8(1)
	NZ8(2)
	NZ8(3)
	NZ8(4)
	NZ8(5)
	NZ8(6)
	NZ8(7)
	NOTQ AX
	MOVQ AX, (DI)
	ADDQ $256, SI
	ADDQ $8, DI
	DECQ CX
	JNE  nzWord
	VZEROUPPER
	RET
