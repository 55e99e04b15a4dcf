package imaging

import (
	"math"

	"repro/internal/cpu"
)

// The amd64 build of the capture path's vector half: assembly twins of the
// separable blur's two passes, of Image.Clamp and of the codec's two colour
// conversions, behind wrappers that decide what the assembly takes and
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

// blurSlack is how far past a row's last output the blur kernel loads.
const blurSlack = 8

// gaussianBlurVector is GaussianBlurInto's two passes on the vector kernel,
// and reports whether it ran. Each plane is copied into scratch with every
// row's end samples repeated radius times on either side, so that no
// horizontal tap is clamped; the horizontal pass writes the intermediate
// plane radius rows into its scratch and the first and last of those rows are
// repeated above and below, so that no vertical tap is either. Both passes
// are then the one kernel, dst[i] = init + Σₖ src[i+k·stride]·kernel[k], with
// the stride 1 or a row.
//
// The Go loops start a sum from +0 at a clamped border sample and, for the
// four unrolled kernel widths, from the first product everywhere else; the
// two differ when every product is -0. init carries that to the kernel, as +0
// or as -0, which leaves a first product as it is.
func gaussianBlurVector(dst, im *Image, kernel []float32, radius int, bufs *blurBuffers) bool {
	if !useVector {
		return false
	}
	w, h, kn := im.W, im.H, len(kernel)
	n := w * h
	pw := w + 2*radius // row stride of the padded plane
	padN, midN := h*pw, (h+2*radius)*w
	// At fleet sizes the scratch fits the 3·W·H floats the Go path takes, so
	// both paths grow a pooled buffer once, to the one size; only a frame
	// smaller than its kernel needs more.
	if need := max(padN+midN+3*w+blurSlack, 3*n); cap(bufs.tmp) < need {
		bufs.tmp = make([]float32, need)
	}
	scratch := bufs.tmp[:cap(bufs.tmp)]
	padded, mid, inits := scratch[:padN], scratch[padN:padN+midN], scratch[padN+midN:]
	rowInit, fromZero, fromProduct := inits[:w], inits[w:2*w], inits[2*w:3*w]
	negZero := math.Float32frombits(1 << 31)
	unrolled := kn == 3 || kn == 5 || kn == 7 || kn == 9
	for x := 0; x < w; x++ {
		fromZero[x], fromProduct[x], rowInit[x] = 0, negZero, 0
		if unrolled && x >= radius && x < w-radius {
			rowInit[x] = negZero
		}
	}
	if !unrolled {
		fromProduct = fromZero
	}
	// pass runs the kernel over rows rows, after indexing the last element
	// each operand reaches: src and init to the end of the last whole vector,
	// which may lie past their lengths, inside the scratch they are cut from.
	pass := func(dst, src []float32, rows, dstStride, srcStride, tapStride int, init []float32) {
		if rows <= 0 {
			return
		}
		loaded := (w + blurSlack - 1) &^ (blurSlack - 1)
		_, _, _ = dst[(rows-1)*dstStride+w-1], src[:(rows-1)*srcStride+(kn-1)*tapStride+loaded], init[:loaded]
		blurRowsAVX2(&dst[0], &src[0], rows, w, dstStride, srcStride, tapStride, &kernel[0], kn, &init[0])
	}
	top := min(radius, h)        // rows [0, top) clamp upwards
	bottom := max(top, h-radius) // rows [bottom, h) clamp downwards
	for p := 0; p < 3; p++ {
		src := im.Pix[p*n : (p+1)*n]
		for y := 0; y < h; y++ {
			row, prow := src[y*w:(y+1)*w], padded[y*pw:(y+1)*pw]
			for i := 0; i < radius; i++ {
				prow[i], prow[radius+w+i] = row[0], row[w-1]
			}
			copy(prow[radius:], row)
		}
		pass(mid[radius*w:], padded, h, w, pw, 1, rowInit)
		for i := 0; i < radius; i++ {
			copy(mid[i*w:(i+1)*w], mid[radius*w:(radius+1)*w])
			copy(mid[(radius+h+i)*w:(radius+h+i+1)*w], mid[(radius+h-1)*w:(radius+h)*w])
		}
		out := dst.Pix[p*n : (p+1)*n]
		pass(out, mid, top, w, w, w, fromZero)
		pass(out[top*w:], mid[top*w:], bottom-top, w, w, w, fromProduct)
		pass(out[bottom*w:], mid[bottom*w:], h-bottom, w, w, w, fromZero)
	}
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
