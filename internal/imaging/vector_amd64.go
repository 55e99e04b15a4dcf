//go:build !purego

package imaging

import (
	"sync"

	"repro/internal/cpu"
)

// The amd64 build of the capture path's vector half: assembly twins of the
// separable blur's row kernel, of Image.Clamp, of the codec's two colour
// conversions, of the 3×3 box and median filters and of the exact 2:1 box
// downscale, behind wrappers that decide what the assembly takes and
// bounds-check every element it will touch. vector_other.go is the portable
// build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the Go loops on this machine.
var useVector = cpu.AVX2

//go:noescape
func blurRowsAVX2(dst, src *float32, rows, n, dstStride, srcStride, tapStride int, kernel *float32, kn int, init *float32)

//go:noescape
func clamp01AVX2(p *float32, n int)

//go:noescape
func rgbToYCbCrAVX2(y, cb, cr, red, green, blue *float32, n int, coef *float32)

//go:noescape
func ycbcrToRGBQuant8AVX2(red, green, blue, y, cb, cr *float32, n int, coef *float32) int

//go:noescape
func box3RowAVX2(dst, r0, r1, r2 *float32, n int)

//go:noescape
func median3RowAVX2(dst, r0, r1, r2 *float32, keys *int32, w int)

//go:noescape
func halve2x2AVX2(dst, src *float32, rows, cells int)

// blurRowsVector is blurRows on the vector kernel, and reports whether it ran.
// It indexes the last element each operand reaches: src and init to the end
// of the last whole vector, which may lie past the row.
func blurRowsVector(dst, src []float32, rows, n, dstStride, srcStride, tapStride int, kernel, init []float32) bool {
	if !useVector {
		return false
	}
	kn := len(kernel)
	loaded := (n + blurSlack - 1) &^ (blurSlack - 1)
	_, _, _ = dst[(rows-1)*dstStride+n-1], src[:(rows-1)*srcStride+(kn-1)*tapStride+loaded], init[:loaded]
	blurRowsAVX2(&dst[0], &src[0], rows, n, dstStride, srcStride, tapStride, &kernel[0], kn, &init[0])
	return true
}

// clamp01Vector clamps the whole vectors of pix and returns how many samples
// that was.
func clamp01Vector(pix []float32) int {
	n := len(pix) &^ 7
	if !useVector || n == 0 {
		return 0
	}
	clamp01AVX2(&pix[0], n)
	return n
}

// rgbToYCbCrVector converts the whole vectors of the planes, each of the same
// length, and returns how many samples that was.
func rgbToYCbCrVector(yp, cbp, crp, r, g, b []float32) int {
	n := len(r) &^ 7
	if !useVector || n == 0 {
		return 0
	}
	_, _, _, _, _ = yp[n-1], cbp[n-1], crp[n-1], g[n-1], b[n-1]
	rgbToYCbCrAVX2(&yp[0], &cbp[0], &crp[0], &r[0], &g[0], &b[0], n, &yccFromRGB[0])
	return n
}

// rgbQuant8Vector converts the whole vectors of the planes, each of the same
// length, until one holds a sample whose 8-bit level the kernel leaves to the
// Go loop (ycbcrToRGBQuant8AVX2), and returns how many samples it converted.
func rgbQuant8Vector(r, g, b, y, cb, cr []float32) int {
	n := len(r) &^ 7
	if !useVector || n == 0 {
		return 0
	}
	_, _, _, _, _ = g[n-1], b[n-1], y[n-1], cb[n-1], cr[n-1]
	return ycbcrToRGBQuant8AVX2(&r[0], &g[0], &b[0], &y[0], &cb[0], &cr[0], n, &rgbFromYCC[0])
}

// box3RowVector computes the interior outputs of a radius-1 box filter row,
// dst[x] = the nine taps around x+1 summed from +0 over 9, from the rows
// above, at and below it, each two samples longer than dst; it returns how
// many outputs that was, len(dst) or 0 when the kernel did not run.
func box3RowVector(dst, r0, r1, r2 []float32) int {
	n := len(dst)
	if !useVector || n < 8 {
		return 0
	}
	_, _, _ = r0[n+1], r1[n+1], r2[n+1]
	box3RowAVX2(&dst[0], &r0[0], &r1[0], &r2[0], n)
	return n
}

// medianScratch recycles the sorted columns of the vector median: three rows
// of keys, each with a repeated column at either end.
var medianScratch = sync.Pool{New: func() any { return new([]int32) }}

// medianKeys returns the scratch median3RowVector needs for a w-wide plane,
// or nil when the kernel will not run; releaseMedianKeys hands it back.
func medianKeys(w int) *[]int32 {
	if !useVector || w < 8 {
		return nil
	}
	keys := medianScratch.Get().(*[]int32)
	if cap(*keys) < 3*(w+2) {
		*keys = make([]int32, 3*(w+2))
	}
	return keys
}

func releaseMedianKeys(keys *[]int32) {
	if keys != nil {
		medianScratch.Put(keys)
	}
}

// median3RowVector is one output row of MedianDenoise3Into on the vector
// kernel, from the clamped rows above, at and below it, and reports whether
// it ran: it does when keys came from medianKeys.
func median3RowVector(dst, r0, r1, r2 []float32, keys *[]int32) bool {
	if keys == nil {
		return false
	}
	w := len(dst)
	k := (*keys)[:3*(w+2)]
	_, _, _ = r0[w-1], r1[w-1], r2[w-1]
	median3RowAVX2(&dst[0], &r0[0], &r1[0], &r2[0], &k[0], w)
	return true
}

// halve2x2Vector is the exact 2:1 branch of boxDown on one plane: dst is w×h,
// src 2w×2h. It reports whether the kernel ran.
func halve2x2Vector(dst, src []float32, w, h int) bool {
	if !useVector || w < 8 || h == 0 {
		return false
	}
	_, _ = dst[w*h-1], src[4*w*h-1]
	halve2x2AVX2(&dst[0], &src[0], h, w)
	return true
}
