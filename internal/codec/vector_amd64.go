//go:build !purego

package codec

import "repro/internal/cpu"

// The amd64 build of the codec's vector half: the 8×8 and 16×16 matrix
// products of matmul (dct.go), the scans that quantize and dequantize a
// block, the level-shifted block load and store, the 4:2:0 chroma
// resampling of both directions; and the size model's nonzero mask.
// vector_other.go is the portable build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the Go kernel on this machine.
var useVector = cpu.AVX2

//go:noescape
func matmul8AVX2(dst, a, b *float32)

//go:noescape
func matmul16AVX2(dst, a, b *float32)

//go:noescape
func quantizeScanAVX2(out *int32, freq, scanQuant *float32, zz *int32, n int)

//go:noescape
func dequantizeScanAVX2(freq *float32, cf *int32, quant *float32, unzz *int32, n int)

//go:noescape
func loadBlockAVX2(block, src *float32, stride, n int, mid float32)

//go:noescape
func storeBlockAVX2(dst, spatial *float32, stride, n int, mid float32)

//go:noescape
func downsample2xAVX2(dst, src *float32, rows, cells, dstStride, srcStride int)

//go:noescape
func nearestRowAVX2(dst, src *float32, n int)

//go:noescape
func fancyRowAVX2(dst, src *float32, n int)

//go:noescape
func lerpRowAVX2(dst, top, bot *float32, n int, wy float32)

//go:noescape
func nonzeroMaskAVX2(mask *uint64, cf *int32, words int)

// The scan orders of the three block sizes as the 32-bit indices the gathers
// take: the zigzag order (quantize reads the block in scan order) and its
// inverse (dequantize reads, for each frequency in turn, its place in the
// scan).
var (
	zigzag4x32, unzigzag4x32   = gatherIndices(zigzag4)
	zigzag8x32, unzigzag8x32   = gatherIndices(zigzag8)
	zigzag16x32, unzigzag16x32 = gatherIndices(zigzag16)
)

func gatherIndices(zz []int) (scan, inverse []int32) {
	scan, inverse = make([]int32, len(zz)), make([]int32, len(zz))
	for i, z := range zz {
		scan[i], inverse[z] = int32(z), int32(i)
	}
	return scan, inverse
}

// scanIndices returns the gather tables of an n2-element block, or nil for a
// size without a vector kernel.
func scanIndices(n2 int) (scan, inverse []int32) {
	switch n2 {
	case 16:
		return zigzag4x32, unzigzag4x32
	case 64:
		return zigzag8x32, unzigzag8x32
	case 256:
		return zigzag16x32, unzigzag16x32
	}
	return nil, nil
}

// matmulVector is matmul on the vector kernel of its block size, if there is
// one, and reports whether it ran. Each of dst, a and b holds n·n elements.
func matmulVector(n int, dst, a, b []float32) bool {
	switch {
	case !useVector:
		return false
	case n == 8:
		matmul8AVX2(&dst[0], &a[0], &b[0])
	case n == 16:
		matmul16AVX2(&dst[0], &a[0], &b[0])
	default:
		return false
	}
	return true
}

// quantizeScanVector is quantizeScan on the vector kernel, and reports
// whether it ran: out and scanQuant hold one block in scan order, freq the
// block in row-major order.
func quantizeScanVector(out []int32, freq, scanQuant []float32) bool {
	scan, _ := scanIndices(len(out))
	if !useVector || scan == nil {
		return false
	}
	_, _ = freq[len(scan)-1], scanQuant[len(scan)-1]
	quantizeScanAVX2(&out[0], &freq[0], &scanQuant[0], &scan[0], len(scan))
	return true
}

// dequantizeScanVector is dequantizeScan on the vector kernel, and reports
// whether it ran: freq and quant hold one block in row-major order, cf the
// block's coefficients in scan order.
func dequantizeScanVector(freq []float32, cf []int32, quant []float32) bool {
	_, inverse := scanIndices(len(freq))
	if !useVector || inverse == nil {
		return false
	}
	_, _ = cf[len(inverse)-1], quant[len(inverse)-1]
	dequantizeScanAVX2(&freq[0], &cf[0], &quant[0], &inverse[0], len(inverse))
	return true
}

// loadBlockVector is the interior branch of loadBlock on the vector kernel,
// and reports whether it ran: src starts at the block's first sample, rows
// stride apart.
func loadBlockVector(block, src []float32, stride, n int, mid float32) bool {
	if !useVector || n != 4 && n&7 != 0 {
		return false
	}
	_, _ = block[n*n-1], src[(n-1)*stride+n-1]
	loadBlockAVX2(&block[0], &src[0], stride, n, mid)
	return true
}

// storeBlockVector is the interior branch of storeBlock on the vector kernel,
// and reports whether it ran: dst starts at the block's first sample, rows
// stride apart.
func storeBlockVector(dst, spatial []float32, stride, n int, mid float32) bool {
	if !useVector || n != 4 && n&7 != 0 {
		return false
	}
	_, _ = spatial[n*n-1], dst[(n-1)*stride+n-1]
	storeBlockAVX2(&dst[0], &spatial[0], stride, n, mid)
	return true
}

// downsample2xVector computes the full 2×2 cells of downsample2x — cells of
// them in each of its first rows output rows — and returns how many cells of
// a row that was: cells, or 0 when the kernel did not run.
func downsample2xVector(dst, src []float32, rows, cells, dstStride, srcStride int) int {
	if !useVector || rows == 0 || cells < 8 {
		return 0
	}
	_, _ = dst[(rows-1)*dstStride+cells-1], src[(2*rows-1)*srcStride+2*cells-1]
	downsample2xAVX2(&dst[0], &src[0], rows, cells, dstStride, srcStride)
	return cells
}

// nearestRowVector replicates the samples of row each into two adjacent
// samples of out for as long as neither runs out, and returns how many
// samples of out it wrote, an even number; 0 when the kernel did not run.
func nearestRowVector(out, row []float32) int {
	n := min(len(out)/2, len(row))
	if !useVector || n < 8 {
		return 0
	}
	nearestRowAVX2(&out[0], &row[0], n)
	return 2 * n
}

// upsampleFancyVector is the triangle-filter branch of upsample2x on the
// vector kernels, and reports whether it ran. Output rows 2k+1 and 2k+2 blend
// the same two source rows horizontally, with the same taps, so each source
// row is blended once into scratch (fancyRowAVX2 for the samples whose taps
// are ¼ and ¾ of the way between two source samples, the hoisted taps for the
// rest) and every output row is then the vertical blend of two of those rows
// (lerpRowAVX2): the per-sample expressions of the Go loop, on the same
// inputs, in the same order.
func upsampleFancyVector(dst, src []float32, sw, sh, w, h int, x0s, x1s []int, wxs []float32, s *scratch) bool {
	// Past 2²⁰ samples a row, (x+0.5)/2 - 0.5 would no longer be exact in
	// float32 and the taps the kernel assumes could differ from x0s and wxs.
	if !useVector || w < 8 || w >= 1<<20 {
		return false
	}
	var rows []float32
	if s != nil {
		rows = grow(&s.upRows, sh*w)
	} else {
		rows = make([]float32, sh*w)
	}
	// Outputs 2j+1 and 2j+2 blend source samples j and j+1 by ¼ and ¾ for j
	// below pairs: the kernel's range.
	pairs := min((w-1)/2, sw-1)
	for k := 0; k < sh; k++ {
		row, blended := src[k*sw:(k+1)*sw], rows[k*w:(k+1)*w]
		x := 0
		if pairs >= 8 {
			_, _ = row[pairs], blended[2*pairs]
			fancyRowAVX2(&blended[1], &row[0], pairs)
			blended[0] = row[x0s[0]] + float32((row[x1s[0]]-row[x0s[0]])*wxs[0])
			x = 2*pairs + 1
		}
		for ; x < w; x++ {
			v0 := row[x0s[x]]
			blended[x] = v0 + float32((row[x1s[x]]-v0)*wxs[x])
		}
	}
	for y := 0; y < h; y++ {
		y0, y1, wy := fancyRowTaps(y, sh)
		out, top, bot := dst[y*w:(y+1)*w], rows[y0*w:(y0+1)*w], rows[y1*w:(y1+1)*w]
		lerpRowAVX2(&out[0], &top[0], &bot[0], w, wy)
	}
	return true
}

// nonzeroMaskVector runs nonzeroMask over the whole words of cf, 64
// coefficients each, and returns how many words that was.
func nonzeroMaskVector(mask []uint64, cf []int32) int {
	words := len(cf) / 64
	if !useVector || words == 0 {
		return 0
	}
	_ = mask[words-1]
	nonzeroMaskAVX2(&mask[0], &cf[0], words)
	return words
}
