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

// dctBasisValue is the orthonormal DCT-II basis entry c(k)·cos((2i+1)kπ/2n);
// the expression matches the generic reference construction exactly so the
// tables hold bit-identical values.
func dctBasisValue(n, k, i int) float32 {
	c := math.Sqrt(2 / float64(n))
	if k == 0 {
		c = math.Sqrt(1 / float64(n))
	}
	return float32(c * math.Cos(float64(2*i+1)*float64(k)*math.Pi/float64(2*n)))
}

// Basis rows (basisN[k][i]) and their transposes (basisTN[i][k]) of the three
// codec block sizes. The rows of a table are cut from one row-major array, so
// row 0 extended to n·n elements is the whole matrix (dctMatrices).
var (
	basis4, basisT4   = dctBasis(4)
	basis8, basisT8   = dctBasis(8)
	basis16, basisT16 = dctBasis(16)

	// Precomputed zigzag scan tables per supported block size (the three
	// codec formats), replacing per-plane recomputation on every
	// encode/decode; pinned against the generative zigzagOrder in tests.
	zigzag4  = zigzagOrder(4)
	zigzag8  = zigzagOrder(8)
	zigzag16 = zigzagOrder(16)
)

func dctBasis(n int) (rows, rowsT [][]float32) {
	flat, flatT := make([]float32, n*n), make([]float32, n*n)
	for k := 0; k < n; k++ {
		rows, rowsT = append(rows, flat[k*n:(k+1)*n]), append(rowsT, flatT[k*n:(k+1)*n])
		for i := 0; i < n; i++ {
			flat[k*n+i] = dctBasisValue(n, k, i)
			flatT[i*n+k] = flat[k*n+i]
		}
	}
	return rows, rowsT
}

// dctMatrices returns the basis of an n×n block and its transpose, each as
// one row-major matrix. Only the codec block sizes are supported.
func dctMatrices(n int) (basis, basisT []float32) {
	switch n {
	case 4:
		return basis4[0][:16], basisT4[0][:16]
	case 8:
		return basis8[0][:64], basisT8[0][:64]
	case 16:
		return basis16[0][:256], basisT16[0][:256]
	}
	panic("codec: unsupported DCT block size")
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

// forward2D computes the 2-D DCT of an n×n block, rows then columns as the
// generic triple loop kept in dct_ref_test.go does: tmp = src·basisᵀ, then
// dst = basis·tmp. src and dst may alias.
func forward2D(n int, dst, src []float32) {
	basis, basisT := dctMatrices(n)
	var tmp [256]float32
	matmul(n, tmp[:n*n], src, basisT)
	matmul(n, dst, basis, tmp[:n*n])
}

// inverse2D computes the 2-D inverse DCT of an n×n block, columns then rows:
// tmp = basisᵀ·src, then dst = tmp·basis. src and dst may alias.
func inverse2D(n int, dst, src []float32) {
	basis, basisT := dctMatrices(n)
	var tmp [256]float32
	matmul(n, tmp[:n*n], basisT, src)
	matmul(n, dst, tmp[:n*n], basis)
}

// matmul computes dst = a·b for row-major n×n matrices; dst overlaps neither.
// Every dst[i][j] is the sum over c = 0..n-1 in order of a[i][c]·b[c][j],
// started from its first product and every product rounded before it is
// added, which is the reference's s += x·basis accumulation for each element
// of either pass. The Go loop and the vector kernels both build a row of dst
// at a time, adding a[i][c] times row c of b.
func matmul(n int, dst, a, b []float32) {
	dst, a, b = dst[:n*n], a[:n*n], b[:n*n]
	if matmulVector(n, dst, a, b) {
		return
	}
	for i := 0; i < n; i++ {
		out, row := dst[i*n:(i+1)*n], a[i*n:(i+1)*n]
		for j, bv := range b[:n] {
			out[j] = row[0] * bv
		}
		for c := 1; c < n; c++ {
			av := row[c]
			for j, bv := range b[c*n : (c+1)*n] {
				out[j] += float32(av * bv)
			}
		}
	}
}

// quantizeScan divides the frequency block by the quant table in scan order
// and rounds half away from zero, writing zigzag-ordered coefficients:
// out[i] = quantRound(freq[zz[i]] / quant[zz[i]]). scanQuant is the table
// already in scan order (scanQuant[i] = quant[zz[i]]), permuted once a plane,
// so the only indirection left is the one into the block, which the vector
// kernel gathers. The 4-wide unroll keeps table and coefficient loads
// flowing around the divide latency; n² is a multiple of four for every
// supported block size, and the remainder loop covers any other table.
func quantizeScan(out []int32, freq, scanQuant []float32, zz []int) {
	if quantizeScanVector(out, freq, scanQuant) {
		return
	}
	i := 0
	for ; i+4 <= len(zz); i += 4 {
		out[i] = quantRound(freq[zz[i]] / scanQuant[i])
		out[i+1] = quantRound(freq[zz[i+1]] / scanQuant[i+1])
		out[i+2] = quantRound(freq[zz[i+2]] / scanQuant[i+2])
		out[i+3] = quantRound(freq[zz[i+3]] / scanQuant[i+3])
	}
	for ; i < len(zz); i++ {
		out[i] = quantRound(freq[zz[i]] / scanQuant[i])
	}
}

// quantRound rounds half away from zero by adding 0.5 with q's sign bit
// copied onto it and truncating. AC quotients change sign unpredictably, so
// choosing between q+0.5 and q−0.5 with a branch mispredicts on most of them.
// A NaN or a sum outside int32 is MinInt32 on every GOARCH, the value amd64's
// conversion (and VCVTTPS2DQ) makes of it; Go leaves such a conversion to the
// architecture, and arm64's saturates instead.
func quantRound(q float32) int32 {
	const signBit, half = 1 << 31, 0x3f000000
	r := q + math.Float32frombits(half|math.Float32bits(q)&signBit)
	if !(r >= -0x1p31 && r < 0x1p31) {
		return math.MinInt32
	}
	return int32(r)
}

// dequantizeScan scatters zigzag-ordered coefficients back to the frequency
// block, multiplied by the quant table. The scan covers every index exactly
// once (zigzagOrder is a permutation — property-tested), so the block needs
// no zeroing pass: every entry is overwritten. The vector kernel computes
// the same products in frequency order instead, gathering each one's
// coefficient through the inverse scan, so it needs no scatter.
func dequantizeScan(freq []float32, cf []int32, quant []float32, zz []int) {
	if dequantizeScanVector(freq, cf, quant) {
		return
	}
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
