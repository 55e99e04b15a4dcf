//go:build !purego

package nn

import "repro/internal/cpu"

// The amd64 build of the inference kernels' vector half: assembly twins of
// gemmBNGo, of the 3×3 depthwise loops, of qgemmBlock and its one-pixel case,
// of the quantization passes and of the residual add, behind wrappers that
// decide what the assembly takes and bounds-check every element it will
// touch. vector_other.go is the portable build.

// useVector reports that the AVX2 kernels may run: set once from CPUID, and
// cleared only by tests that want the portable kernels on this machine.
var useVector = cpu.AVX2

//go:noescape
func gemmBNTilesAVX2(dst, w, a *float32, outC, p, ps, k int, scale, shift *float32, relu6 bool)

//go:noescape
func dw3x3AVX2(dst, src *float32, ch, inH, inW, outH, outW, stride, pad int, ker, scale, shift *float32, masks *uint32, relu6 bool) int

//go:noescape
func qgemmTilesAVX2(dst *float32, w *int16, panel *int8, outC, p, ps, kp int, ws, bias *float32, ax, clamp float32)

//go:noescape
func absMaxPlanesAVX2(dst *uint32, src *float32, planes, n int)

//go:noescape
func quantizePlanesAVX2(dst, src *float32, planes, n int, inv *float32)

//go:noescape
func quantizePanelAVX2(dst *int8, src *float32, p, ps, k int, inv float32)

//go:noescape
func quantizeRowAVX2(dst *int8, src *float32, n int, inv float32)

//go:noescape
func qgemvAVX2(acc *int32, w *int16, x *int8, rows, k2, kv int)

//go:noescape
func addAVX2(dst, src *float32, n int)

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

// qgemmTiles is gemmBNVector for qgemmRows over channels [c0, c1): it
// returns cs = c0 when it ran no tile.
func qgemmTiles(dst []float32, w *qmatrix, c0, c1 int, panel []int8, p int, ax float32, bias []float32, clamp float32) (cs, ps int) {
	n, ps := (c1-c0)&^3, p&^15
	if !useVector || n == 0 || ps == 0 || w.k2 == 0 {
		return c0, 0
	}
	cs = c0 + n
	_, _, _, _, _ = dst[cs*p-1], w.wide[cs*w.k2-1], panel[w.k2*p-1], w.scale[cs-1], bias[cs-1]
	qgemmTilesAVX2(&dst[c0*p], &w.wide[c0*w.k2], &panel[0], n, p, ps, w.k2/2, &w.scale[c0], &bias[c0], ax, clamp)
	return cs, ps
}

// dwLoadMasks returns what the depthwise kernel needs to read a row in place:
// for each vector of eight outputs along it, the lanes of the vector's loads
// that fall inside the row. A load starts at input column v·8·stride - pad
// plus its offset (0, 1, 2 at stride 1; 0, 8, 2, 10 at stride 2) and lane i
// of it is the element i further on; a lane left or right of the row is the
// zero padding. The scratch keeps the masks of the last geometry asked for,
// which a quantized layer asks for once a run of channels.
func (sc *Scratch) dwLoadMasks(inW, outW, stride, pad int) []uint32 {
	if geom := [4]int{inW, outW, stride, pad}; geom != sc.dwGeom {
		sc.dwGeom = geom
		offsets := [4]int{0, 1, 2, 2}
		if stride == 2 {
			offsets = [4]int{0, 8, 2, 10}
		}
		sc.dwMasks = sc.dwMasks[:0]
		for i := 0; i < (outW+7)/8*32; i++ {
			ix := i/32*8*stride - pad + offsets[i/8%4] + i%8
			mask := uint32(0)
			if 0 <= ix && ix < inW {
				mask = ^uint32(0)
			}
			sc.dwMasks = append(sc.dwMasks, mask)
		}
	}
	return sc.dwMasks
}

// dwVectorTakes reports a geometry the depthwise kernel computes: stride 1 or
// 2, at most one row and column of padding, and at least one output.
func dwVectorTakes(inH, inW, stride, pad int) bool {
	return useVector && stride <= 2 && pad <= 1 && inH+2*pad >= 3 && inW+2*pad >= 3
}

// dw3x3Vector runs the 3×3 depthwise kernel over the first channels of a layer
// whose planes lie one after the other in src, and returns how many it
// computed: all ch, or the channels before the first one with a tap that is
// not finite; none of a geometry the kernel does not take. Where dwPixel
// skips a padding tap the kernel adds ker·0, an exact ±0 for a finite tap,
// and a sum that started from +0 is never -0, so adding ±0 to it changes
// nothing.
func dw3x3Vector(sc *Scratch, dst, src, ker, scale, shift []float32, ch, inH, inW, outH, outW, stride, pad int, relu6 bool) int {
	if !dwVectorTakes(inH, inW, stride, pad) {
		return 0
	}
	masks := sc.dwLoadMasks(inW, outW, stride, pad)
	_, _, _, _, _ = dst[ch*outH*outW-1], src[ch*inH*inW-1], ker[ch*9-1], scale[ch-1], shift[ch-1]
	return dw3x3AVX2(&dst[0], &src[0], ch, inH, inW, outH, outW, stride, pad, &ker[0], &scale[0], &shift[0], &masks[0], relu6)
}

// qdwRun is how many activations qdw3x3Vector quantizes before the kernel
// consumes them, a run of whole channels: few enough that the planes, their
// quantized copies and the outputs pass through the first-level cache, and
// that a scratch stays the size the stem's im2col panel made it.
const qdwRun = 1 << 12

// qdw3x3Vector is dw3x3Vector for qdepthwise, and takes a whole layer or
// nothing. A run of channels is quantized into scratch as float32, where
// every int8 tap product and every sum of nine (at most 9·127² < 2²⁴) is
// exact, so the float32 kernel's sums are the integers the Go loop
// accumulates and its epilogue is qfinish with ReLU6's clamp.
func qdw3x3Vector(sc *Scratch, o *qdepthwise, dst, src []float32, ch, inH, inW, outH, outW int) bool {
	if !dwVectorTakes(inH, inW, o.stride, o.pad) {
		return false
	}
	hw, outHW := inH*inW, outH*outW
	run := max(1, qdwRun/hw)
	for c := 0; c < ch; c += run {
		n := min(run, ch-c)
		scratch := sc.colBuf(n*hw + 2*n)
		q, inv, deq := scratch[:n*hw], scratch[n*hw:n*hw+n], scratch[n*hw+n:]
		planes := src[c*hw : (c+n)*hw]
		for i := range inv {
			ax := sc.inScale(c+i, planes[i*hw:(i+1)*hw])
			inv[i], deq[i] = 1/ax, o.ws[c+i]*ax
		}
		quantizePlanesAVX2(&q[0], &planes[0], n, hw, &inv[0])
		dw3x3Vector(sc, dst[c*outHW:], q, o.taps[c*9:], deq, o.bias[c:], n, inH, inW, outH, outW, o.stride, o.pad, o.clamp != 0)
		if sc.outMax != nil {
			recordPlanes(sc.outMax[c:c+n], dst[c*outHW:], outHW)
		}
	}
	return true
}

// absMaxVector returns the largest sign-cleared bit pattern of src[:n], the
// whole vectors of src.
func absMaxVector(src []float32) (m uint32, n int) {
	n = len(src) &^ 7
	if !useVector || n == 0 {
		return 0, 0
	}
	absMaxPlanesAVX2(&m, &src[0], 1, n)
	return m, n
}

// absMaxPlanesVector sets rec[i] to the absMaxBits of plane i of the hw-long
// planes of src, and reports whether it did: the kernel takes planes of whole
// vectors.
func absMaxPlanesVector(rec []uint32, src []float32, hw int) bool {
	if !useVector || len(rec) == 0 || hw == 0 || hw%8 != 0 {
		return false
	}
	_ = src[len(rec)*hw-1]
	absMaxPlanesAVX2(&rec[0], &src[0], len(rec), hw)
	return true
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

// quantizeRowVector runs quantizeTo's loop, with inv, over the whole vectors
// of 8 values of src and returns how many values that was.
func quantizeRowVector(dst []int8, src []float32, inv float32) int {
	n := len(src) &^ 7
	if !useVector || n == 0 {
		return 0
	}
	_ = dst[n-1]
	quantizeRowAVX2(&dst[0], &src[0], n, inv)
	return n
}

// qgemvVector sets acc[c] to row c of w times x over the taps of whole
// vectors of 16 and returns how many taps that was.
func qgemvVector(acc []int32, w *qmatrix, x []int8) int {
	kv := w.k2 &^ 15
	if !useVector || kv == 0 || w.rows == 0 {
		return 0
	}
	_, _, _ = acc[w.rows-1], x[kv-1], w.wide[w.rows*w.k2-1]
	qgemvAVX2(&acc[0], &w.wide[0], &x[0], w.rows, w.k2, kv)
	return kv
}

// addVector runs addInto over the whole vectors of 8 values of dst and
// returns how many values that was.
func addVector(dst, src []float32) int {
	n := len(dst) &^ 7
	if !useVector || n == 0 {
		return 0
	}
	_ = src[n-1]
	addAVX2(&dst[0], &src[0], n)
	return n
}
