//go:build !purego

package isp

import "repro/internal/cpu"

// The amd64 build of the fused pipeline's vector half: assembly twins of the
// curve, matrix and unsharp passes, behind wrappers that hand each kernel the
// whole vectors of its input and bounds-check every element it will touch.
// The Go loops take what the wrappers report as not done. vector_other.go is
// the portable build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the Go loops on this machine.
var useVector = cpu.AVX2

//go:noescape
func applyLUTAVX2(pix *float32, n int, lut *float32, last int, scale float32) int

//go:noescape
func applyMatrixAVX2(red, green, blue *float32, n int, m *float32)

//go:noescape
func unsharpAVX2(pix, blur *float32, n int, amount float32)

// applyLUTVector runs applyLUT over the whole vectors of pix, up to the first
// one holding a sample the kernel leaves to the Go loop (applyLUTAVX2), and
// returns how many samples it wrote.
func applyLUTVector(pix, lut []float32, scale float32) int {
	n := len(pix) &^ 7
	if !useVector || n == 0 || len(lut) != lutSize {
		return 0
	}
	return applyLUTAVX2(&pix[0], n, &lut[0], lutSize-1, scale)
}

// applyMatrixVector mixes the whole vectors of the three planes, each n
// samples, and returns how many samples that was.
func applyMatrixVector(pix []float32, n int, m *[9]float32) int {
	vn := n &^ 7
	if !useVector || vn == 0 {
		return 0
	}
	_ = pix[3*n-1]
	applyMatrixAVX2(&pix[0], &pix[n], &pix[2*n], vn, &m[0])
	return vn
}

// unsharpVector sharpens the whole vectors of pix against blur and returns
// how many samples that was.
func unsharpVector(pix, blur []float32, amount float32) int {
	n := len(pix) &^ 7
	if !useVector || n == 0 {
		return 0
	}
	_ = blur[n-1]
	unsharpAVX2(&pix[0], &blur[0], n, amount)
	return n
}

//go:noescape
func bilinearChanAVX2(dst, src, init *float32, w int, pl *lanePlan)

//go:noescape
func edgeGreenRowAVX2(dst, src *float32, w, stride, gp int)

//go:noescape
func edgeRBChanAVX2(dst, src, green, init *float32, w int, pl *lanePlan)

// The demosaic kernels load whole vectors: the last one of a row reaches
// loaded(w)-1 past the row's first centre, and a tap a plan's offset further.
// Their wrappers index the lowest and highest element each operand reaches.
func loaded(w int) int { return (w + demosaicSlack - 1) &^ (demosaicSlack - 1) }

// reach is the largest magnitude among the offsets of a pair of plans.
func reach(pl *[2]lanePlan) int {
	r := 0
	for q := range pl {
		for _, o := range pl[q].offs[:pl[q].ntap] {
			r = max(r, int(o), -int(o))
		}
	}
	return r
}

// bilinearChanVector is bilinearChan on the vector kernel, and reports
// whether it ran.
func bilinearChanVector(dst, src []float32, base int, init []float32, pl *[2]lanePlan) bool {
	w := len(dst)
	if !useVector || w == 0 {
		return false
	}
	r, l := reach(pl), loaded(w)
	_, _, _ = src[base-r], src[base+l-1+r], init[l-1]
	bilinearChanAVX2(&dst[0], &src[base], &init[0], w, &pl[0])
	return true
}

// edgeGreenRowVector is edgeGreenRow on the vector kernel, and reports
// whether it ran.
func edgeGreenRowVector(dst, src []float32, base, stride, gp int) bool {
	w := len(dst)
	if !useVector || w == 0 {
		return false
	}
	_, _ = src[base-2*stride], src[base+loaded(w)-1+2*stride]
	edgeGreenRowAVX2(&dst[0], &src[base], w, stride, gp&1)
	return true
}

// edgeRBChanVector is edgeRBChan on the vector kernel, and reports whether it
// ran.
func edgeRBChanVector(dst, src, green []float32, base int, init []float32, pl *[2]lanePlan) bool {
	w := len(dst)
	if !useVector || w == 0 {
		return false
	}
	r, l := reach(pl), loaded(w)
	_, _, _, _, _ = src[base-r], src[base+l-1+r], green[base-r], green[base+l-1+r], init[l-1]
	edgeRBChanAVX2(&dst[0], &src[base], &green[base], &init[0], w, &pl[0])
	return true
}
