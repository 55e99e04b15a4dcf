// Package codec implements the image codecs whose reconstruction differences
// drive the paper's compression experiments: a JPEG-like 8×8 DCT codec with
// libjpeg-style quality scaling, a WebP-like 4×4 predictive transform codec,
// an HEIF-like 16×16 transform codec, and lossless PNG (with real zlib
// sizes). The codecs are "format-like": they share the transform/quantize
// structure of the real formats — which is what creates format-dependent
// reconstructions — without bitstream compatibility, which the experiments
// do not need.
package codec

import "math"

// The 2-D transforms below are dimension-specialized rewrites of the generic
// triple-loop separable DCT (kept as the reference implementation in
// dct_ref_test.go and byte-diffed against these kernels). Specializing the
// block size lets every basis row live in a fixed-size array — no slice
// bounds checks, no per-call re-slicing — and the dot products are fully
// unrolled. Accumulation stays in the reference's exact scan order
// (ascending tap index, left-associated adds), so the rewrite is provably
// bit-identical: same float32 operations, same order, same rounding.

// dctBasisValue is the orthonormal DCT-II basis entry c(k)·cos((2i+1)kπ/2n);
// the expression matches the generic reference construction exactly so the
// specialized tables hold bit-identical values.
func dctBasisValue(n, k, i int) float32 {
	c := math.Sqrt(2 / float64(n))
	if k == 0 {
		c = math.Sqrt(1 / float64(n))
	}
	return float32(c * math.Cos(float64(2*i+1)*float64(k)*math.Pi/float64(2*n)))
}

// Basis rows (basisN[k][i]) and their transposes (basisTN[i][k]). The
// forward transform dots input rows/columns against basis rows; the inverse
// dots against basis columns, which the transposed tables make contiguous.
var (
	basis4, basisT4   [4][4]float32
	basis8, basisT8   [8][8]float32
	basis16, basisT16 [16][16]float32

	// Precomputed zigzag scan tables per supported block size (the three
	// codec formats), replacing per-plane recomputation on every
	// encode/decode; pinned against the generative zigzagOrder in tests.
	zigzag4  = zigzagOrder(4)
	zigzag8  = zigzagOrder(8)
	zigzag16 = zigzagOrder(16)
)

func init() {
	for k := 0; k < 4; k++ {
		for i := 0; i < 4; i++ {
			basis4[k][i] = dctBasisValue(4, k, i)
			basisT4[i][k] = basis4[k][i]
		}
	}
	for k := 0; k < 8; k++ {
		for i := 0; i < 8; i++ {
			basis8[k][i] = dctBasisValue(8, k, i)
			basisT8[i][k] = basis8[k][i]
		}
	}
	for k := 0; k < 16; k++ {
		for i := 0; i < 16; i++ {
			basis16[k][i] = dctBasisValue(16, k, i)
			basisT16[i][k] = basis16[k][i]
		}
	}
}

// zigzagFor returns the scan table for an n×n block without recomputing it
// on the supported transform sizes.
func zigzagFor(n int) []int {
	switch n {
	case 4:
		return zigzag4
	case 8:
		return zigzag8
	case 16:
		return zigzag16
	default:
		return zigzagOrder(n)
	}
}

// forward2D computes the 2-D DCT of an n×n block via the size-specialized
// kernel. src and dst may alias. Only the codec block sizes are supported.
func forward2D(n int, dst, src []float32) {
	switch n {
	case 4:
		forward4(dst, src)
	case 8:
		forward8(dst, src)
	case 16:
		forward16(dst, src)
	default:
		panic("codec: unsupported DCT block size")
	}
}

// inverse2D computes the 2-D inverse DCT of an n×n block via the
// size-specialized kernel. src and dst may alias.
func inverse2D(n int, dst, src []float32) {
	switch n {
	case 4:
		inverse4(dst, src)
	case 8:
		inverse8(dst, src)
	case 16:
		inverse16(dst, src)
	default:
		panic("codec: unsupported DCT block size")
	}
}

// dotN is the fully-unrolled dot product of one data vector against one
// basis row. Left-associated addition reproduces the reference loop's
// s += a[i]*b[i] accumulation order exactly.

func dot4(a, b *[4]float32) float32 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3]
}

func dot8(a, b *[8]float32) float32 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] +
		a[4]*b[4] + a[5]*b[5] + a[6]*b[6] + a[7]*b[7]
}

func dot16(a, b *[16]float32) float32 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] +
		a[4]*b[4] + a[5]*b[5] + a[6]*b[6] + a[7]*b[7] +
		a[8]*b[8] + a[9]*b[9] + a[10]*b[10] + a[11]*b[11] +
		a[12]*b[12] + a[13]*b[13] + a[14]*b[14] + a[15]*b[15]
}

// The forward kernels run the reference's two separable passes — rows into
// stack scratch, then columns into dst — with each column gathered into a
// register-friendly fixed array before its dot products.

func forward4(dst, src []float32) {
	var tmp [16]float32
	b := &basis4
	for y := 0; y < 4; y++ {
		r := (*[4]float32)(src[y*4:])
		t := (*[4]float32)(tmp[y*4:])
		t[0] = dot4(r, &b[0])
		t[1] = dot4(r, &b[1])
		t[2] = dot4(r, &b[2])
		t[3] = dot4(r, &b[3])
	}
	for x := 0; x < 4; x++ {
		col := [4]float32{tmp[x], tmp[4+x], tmp[8+x], tmp[12+x]}
		dst[x] = dot4(&col, &b[0])
		dst[4+x] = dot4(&col, &b[1])
		dst[8+x] = dot4(&col, &b[2])
		dst[12+x] = dot4(&col, &b[3])
	}
}

func forward8(dst, src []float32) {
	if forward8Vector(dst, src) {
		return
	}
	var tmp [64]float32
	b := &basis8
	for y := 0; y < 8; y++ {
		r := (*[8]float32)(src[y*8:])
		t := (*[8]float32)(tmp[y*8:])
		t[0] = dot8(r, &b[0])
		t[1] = dot8(r, &b[1])
		t[2] = dot8(r, &b[2])
		t[3] = dot8(r, &b[3])
		t[4] = dot8(r, &b[4])
		t[5] = dot8(r, &b[5])
		t[6] = dot8(r, &b[6])
		t[7] = dot8(r, &b[7])
	}
	for x := 0; x < 8; x++ {
		col := [8]float32{
			tmp[x], tmp[8+x], tmp[16+x], tmp[24+x],
			tmp[32+x], tmp[40+x], tmp[48+x], tmp[56+x],
		}
		dst[x] = dot8(&col, &b[0])
		dst[8+x] = dot8(&col, &b[1])
		dst[16+x] = dot8(&col, &b[2])
		dst[24+x] = dot8(&col, &b[3])
		dst[32+x] = dot8(&col, &b[4])
		dst[40+x] = dot8(&col, &b[5])
		dst[48+x] = dot8(&col, &b[6])
		dst[56+x] = dot8(&col, &b[7])
	}
}

func forward16(dst, src []float32) {
	if forward16Vector(dst, src) {
		return
	}
	var tmp [256]float32
	b := &basis16
	for y := 0; y < 16; y++ {
		r := (*[16]float32)(src[y*16:])
		t := (*[16]float32)(tmp[y*16:])
		for k := 0; k < 16; k++ {
			t[k] = dot16(r, &b[k])
		}
	}
	for x := 0; x < 16; x++ {
		var col [16]float32
		for i := 0; i < 16; i++ {
			col[i] = tmp[i*16+x]
		}
		for k := 0; k < 16; k++ {
			dst[k*16+x] = dot16(&col, &b[k])
		}
	}
}

// The inverse kernels mirror the reference's pass order (columns first, then
// rows) and dot against the transposed tables: the reference accumulates
// s += src[k*n+x]·basis[k*n+i] over ascending k, which is exactly
// dot(column, basisT[i]).

func inverse4(dst, src []float32) {
	var tmp [16]float32
	bt := &basisT4
	for x := 0; x < 4; x++ {
		col := [4]float32{src[x], src[4+x], src[8+x], src[12+x]}
		tmp[x] = dot4(&col, &bt[0])
		tmp[4+x] = dot4(&col, &bt[1])
		tmp[8+x] = dot4(&col, &bt[2])
		tmp[12+x] = dot4(&col, &bt[3])
	}
	for y := 0; y < 4; y++ {
		r := (*[4]float32)(tmp[y*4:])
		d := (*[4]float32)(dst[y*4:])
		d[0] = dot4(r, &bt[0])
		d[1] = dot4(r, &bt[1])
		d[2] = dot4(r, &bt[2])
		d[3] = dot4(r, &bt[3])
	}
}

func inverse8(dst, src []float32) {
	if inverse8Vector(dst, src) {
		return
	}
	var tmp [64]float32
	bt := &basisT8
	for x := 0; x < 8; x++ {
		col := [8]float32{
			src[x], src[8+x], src[16+x], src[24+x],
			src[32+x], src[40+x], src[48+x], src[56+x],
		}
		tmp[x] = dot8(&col, &bt[0])
		tmp[8+x] = dot8(&col, &bt[1])
		tmp[16+x] = dot8(&col, &bt[2])
		tmp[24+x] = dot8(&col, &bt[3])
		tmp[32+x] = dot8(&col, &bt[4])
		tmp[40+x] = dot8(&col, &bt[5])
		tmp[48+x] = dot8(&col, &bt[6])
		tmp[56+x] = dot8(&col, &bt[7])
	}
	for y := 0; y < 8; y++ {
		r := (*[8]float32)(tmp[y*8:])
		d := (*[8]float32)(dst[y*8:])
		d[0] = dot8(r, &bt[0])
		d[1] = dot8(r, &bt[1])
		d[2] = dot8(r, &bt[2])
		d[3] = dot8(r, &bt[3])
		d[4] = dot8(r, &bt[4])
		d[5] = dot8(r, &bt[5])
		d[6] = dot8(r, &bt[6])
		d[7] = dot8(r, &bt[7])
	}
}

func inverse16(dst, src []float32) {
	if inverse16Vector(dst, src) {
		return
	}
	var tmp [256]float32
	bt := &basisT16
	for x := 0; x < 16; x++ {
		var col [16]float32
		for k := 0; k < 16; k++ {
			col[k] = src[k*16+x]
		}
		for i := 0; i < 16; i++ {
			tmp[i*16+x] = dot16(&col, &bt[i])
		}
	}
	for y := 0; y < 16; y++ {
		r := (*[16]float32)(tmp[y*16:])
		d := (*[16]float32)(dst[y*16:])
		for i := 0; i < 16; i++ {
			d[i] = dot16(r, &bt[i])
		}
	}
}

// quantizeScan divides the frequency block by the quant table in scan order
// and rounds half away from zero, writing zigzag-ordered coefficients. The
// 4-wide unroll keeps table and coefficient loads flowing around the divide
// latency; n² is a multiple of four for every supported block size, and the
// remainder loop covers any other table.
func quantizeScan(out []int32, freq, quant []float32, zz []int) {
	i := 0
	for ; i+4 <= len(zz); i += 4 {
		z0, z1, z2, z3 := zz[i], zz[i+1], zz[i+2], zz[i+3]
		out[i] = quantRound(freq[z0] / quant[z0])
		out[i+1] = quantRound(freq[z1] / quant[z1])
		out[i+2] = quantRound(freq[z2] / quant[z2])
		out[i+3] = quantRound(freq[z3] / quant[z3])
	}
	for ; i < len(zz); i++ {
		zi := zz[i]
		out[i] = quantRound(freq[zi] / quant[zi])
	}
}

// quantRound rounds half away from zero by adding 0.5 with q's sign bit
// copied onto it and truncating. AC quotients change sign unpredictably, so
// choosing between q+0.5 and q−0.5 with a branch mispredicts on most of them.
func quantRound(q float32) int32 {
	const signBit, half = 1 << 31, 0x3f000000
	return int32(q + math.Float32frombits(half|math.Float32bits(q)&signBit))
}

// dequantizeScan scatters zigzag-ordered coefficients back to the frequency
// block, multiplied by the quant table. The scan covers every index exactly
// once (zigzagOrder is a permutation — property-tested), so the block needs
// no zeroing pass: every entry is overwritten.
func dequantizeScan(freq []float32, cf []int32, quant []float32, zz []int) {
	i := 0
	for ; i+4 <= len(zz); i += 4 {
		z0, z1, z2, z3 := zz[i], zz[i+1], zz[i+2], zz[i+3]
		freq[z0] = float32(cf[i]) * quant[z0]
		freq[z1] = float32(cf[i+1]) * quant[z1]
		freq[z2] = float32(cf[i+2]) * quant[z2]
		freq[z3] = float32(cf[i+3]) * quant[z3]
	}
	for ; i < len(zz); i++ {
		zi := zz[i]
		freq[zi] = float32(cf[i]) * quant[zi]
	}
}

// zigzagOrder returns the zigzag scan order for an n×n block (indices into
// row-major coefficients, ordered by increasing frequency diagonal). It is
// the generative form the precomputed tables are built from (and pinned
// against in tests); hot paths use zigzagFor.
func zigzagOrder(n int) []int {
	order := make([]int, 0, n*n)
	for s := 0; s < 2*n-1; s++ {
		if s%2 == 0 {
			// walk up-right
			for y := minInt(s, n-1); y >= 0 && s-y < n; y-- {
				order = append(order, y*n+(s-y))
			}
		} else {
			for x := minInt(s, n-1); x >= 0 && s-x < n; x-- {
				order = append(order, (s-x)*n+x)
			}
		}
	}
	return order
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
