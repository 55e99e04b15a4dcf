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
