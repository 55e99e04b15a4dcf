package nn

import "repro/internal/cpu"

// The amd64 build of the inference kernels' vector half: assembly twins of
// gemmBNGo, of the 3×3 depthwise loops, of qgemmBlock and of the quantization
// passes, behind wrappers that decide what the assembly takes and
// bounds-check every element it will touch. vector_other.go is the portable
// build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the portable kernels on this machine.
var useVector = cpu.AVX2

//go:noescape
func gemmBNTilesAVX2(dst, w, a *float32, outC, p, ps, k int, scale, shift *float32, relu6 bool)

//go:noescape
func dw3x3s1AVX2(dst, src *float32, rows, n, dstStride, srcStride int, ker *float32, scale, shift float32, relu6 bool)

//go:noescape
func dw3x3s2AVX2(dst, src *float32, rows, n, dstStride, srcStride int, ker *float32, scale, shift float32, relu6 bool)

//go:noescape
func qgemmTilesAVX2(dst *float32, w *int16, panel *int8, outC, p, ps, kp int, ws, bias *float32, ax, clamp float32)

//go:noescape
func absMaxAVX2(src *float32, n int) uint32

//go:noescape
func quantizePlaneAVX2(dst, src *float32, rows, n, dstStride int, inv float32)

//go:noescape
func quantizePanelAVX2(dst *int8, src *float32, p, ps, k int, inv float32)

// gemmBNVector runs the whole 4-channel × 16-pixel tiles of gemmBN and
// returns the channels and pixels they cover: dst[c*p+pi] is done for c < cs
// and pi < ps.
func gemmBNVector(dst, w, a []float32, outC, p, k int, scale, shift []float32, relu6 bool) (cs, ps int) {
	cs, ps = outC&^3, p&^15
	if !useVector || cs == 0 || ps == 0 || k == 0 {
		return 0, 0
	}
	_, _, _, _, _ = dst[cs*p-1], w[cs*k-1], a[k*p-1], scale[cs-1], shift[cs-1]
	gemmBNTilesAVX2(&dst[0], &w[0], &a[0], cs, p, ps, k, &scale[0], &shift[0], relu6)
	return cs, ps
}

// qgemmTiles is gemmBNVector for qgemm.
func qgemmTiles(dst []float32, w *qmatrix, panel []int8, p int, ax float32, bias []float32, clamp float32) (cs, ps int) {
	cs, ps = w.rows&^3, p&^15
	if !useVector || cs == 0 || ps == 0 || w.k2 == 0 {
		return 0, 0
	}
	_, _, _, _, _ = dst[cs*p-1], w.wide[cs*w.k2-1], panel[w.k2*p-1], w.scale[cs-1], bias[cs-1]
	qgemmTilesAVX2(&dst[0], &w.wide[0], &panel[0], cs, p, ps, w.k2/2, &w.scale[0], &bias[0], ax, clamp)
	return cs, ps
}

// dwSlack is how far past a row's last window the depthwise kernels read.
const dwSlack = 16

// dwPadded returns a zeroed scratch plane pw wide that holds an inH × inW
// plane inside a border of pad zeros, so that no 3×3 tap of any output is out
// of bounds, and dwSlack elements more.
func dwPadded(p *inferPlan, inH, inW, pad int) (padded []float32, pw int) {
	pw = inW + 2*pad
	padded = p.colBuf((inH+2*pad)*pw + dwSlack)
	clear(padded)
	return padded, pw
}

// dw3x3Padded runs the depthwise kernel of the stride, 1 or 2, over a
// dwPadded plane.
func dw3x3Padded(out, padded []float32, outW, pw, stride int, ker *[9]float32, scale, shift float32, relu6 bool) {
	rows := len(out) / outW
	_, _ = out[rows*outW-1], padded[((rows-1)*stride+2)*pw+(outW-1)*stride+2+dwSlack]
	if stride == 1 {
		dw3x3s1AVX2(&out[0], &padded[0], rows, outW, outW, pw, &ker[0], scale, shift, relu6)
	} else {
		dw3x3s2AVX2(&out[0], &padded[0], rows, outW, outW, pw, &ker[0], scale, shift, relu6)
	}
}

// dw3x3Vector computes one 3×3 depthwise plane at stride 1 or 2 and reports
// whether it did. Where dwPixel skips a padding tap the kernel adds ker·0, an
// exact ±0 for a finite tap (a plane with any other is left to the Go loop),
// and a sum that started from +0 is never -0, so adding ±0 to it changes
// nothing.
func dw3x3Vector(p *inferPlan, out, plane, ker []float32, inH, inW, outW, stride, pad int, scale, shift float32, relu6 bool) bool {
	if !useVector || stride > 2 {
		return false
	}
	taps := (*[9]float32)(ker)
	for _, k := range taps {
		if k-k != 0 {
			return false
		}
	}
	padded, pw := dwPadded(p, inH, inW, pad)
	for y := 0; y < inH; y++ {
		copy(padded[(y+pad)*pw+pad:], plane[y*inW:(y+1)*inW])
	}
	dw3x3Padded(out, padded, outW, pw, stride, taps, scale, shift, relu6)
	return true
}

// qdw3x3Vector is dw3x3Vector for qdepthwise: the plane is quantized into the
// padded scratch as float32, where every int8 tap product and every sum of
// nine (at most 9·127² < 2²⁴) is exact, so the float32 kernel's sums are the
// integers qdw3x3 accumulates and its epilogue is qfinish with ReLU6's clamp.
func qdw3x3Vector(p *inferPlan, out, plane []float32, ker []int8, inH, inW, outW, stride, pad int, ax, deq, bias float32, relu6 bool) bool {
	if !useVector || stride > 2 {
		return false
	}
	var taps [9]float32
	for i, k := range ker[:9] {
		taps[i] = float32(k)
	}
	padded, pw := dwPadded(p, inH, inW, pad)
	_, _ = plane[inH*inW-1], padded[(inH-1+pad)*pw+pad+inW-1]
	quantizePlaneAVX2(&padded[pad*pw+pad], &plane[0], inH, inW, pw, 1/ax)
	dw3x3Padded(out, padded, outW, pw, stride, &taps, deq, bias, relu6)
	return true
}

// absMaxVector returns the largest sign-cleared bit pattern of src[:n], the
// whole vectors of src.
func absMaxVector(src []float32) (m uint32, n int) {
	n = len(src) &^ 7
	if !useVector || n == 0 {
		return 0, 0
	}
	return absMaxAVX2(&src[0], n), n
}

// quantizePanelVector runs quantizePanel over pixels [0, ps) of every tap and
// returns ps.
func quantizePanelVector(dst []int8, src []float32, p, k int, inv float32) (ps int) {
	ps = p &^ 15
	if !useVector || ps == 0 || k == 0 {
		return 0
	}
	_, _ = dst[(k+1)&^1*p-1], src[k*p-1]
	quantizePanelAVX2(&dst[0], &src[0], p, ps, k, inv)
	return ps
}
