package nn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Int8Backend is a post-training quantized compilation of the classifier:
// BatchNorm is folded into the preceding convolution, the folded weights are
// quantized once to int8 with a per-output-channel scale, and every conv /
// dense layer runs an integer matmul (int8×int8 accumulated in int32) with a
// single dequantization at the accumulator — the structure of a TFLite-style
// dynamic-range kernel. Activations are quantized per image with a
// per-tensor scale, and the backbone runs one image at a time on the
// inferPlan executor the float32 runtimes use, so a photo's logits do not
// depend on which batch it shared an Infer call with.
//
// All rounding is round-half-away-from-zero and every loop runs in a fixed
// order, so the backend is bit-deterministic; it diverges from the float32
// reference only through the quantization itself, which is exactly the
// runtime-stack instability the fleet measures.
//
// The integer GEMM reads its activations from a pair-interleaved panel (see
// quantizePanel) and its weights as int16 rows (see qmatrix). Every int32
// accumulator stays exact while k·127² < 2³¹ for reduction depth k;
// newQMatrix panics on a layer deeper than maxReduction. Integer addition is
// exact, so every accumulator is the integer the scalar reference loops in
// quantize_ref_test.go compute and every logit has the same bits, whether the
// vector tiles or the Go kernel produced it.
//
// The compiled program is read-only: 2 bytes a weight and the folded biases.
// A call's activations, im2col panel (in which the depthwise layers also
// quantize their planes, a run of channels at a time) and quantized panel are
// its Scratch, so the backend serves concurrent callers, each with its own.
type Int8Backend struct {
	plan        *inferPlan
	embed, head *qdense
	classes     int
	inputHW     int
	own         Scratch // Infer's
}

// NewInt8Backend quantizes the model's current weights. The model is only
// read; it is not retained.
func NewInt8Backend(m *Model) *Int8Backend {
	return &Int8Backend{
		plan:    newInferPlan(m.Backbone.Layers, true),
		embed:   newQDense(m.Embed),
		head:    newQDense(m.Head),
		classes: m.Classes,
		inputHW: m.InputHW,
	}
}

// Name implements Backend.
func (b *Int8Backend) Name() string { return RuntimeInt8 }

// NumClasses implements Backend.
func (b *Int8Backend) NumClasses() int { return b.classes }

// InputSize implements Backend.
func (b *Int8Backend) InputSize() int { return b.inputHW }

// Infer implements Backend.
func (b *Int8Backend) Infer(x *tensor.Tensor) []float64 { return b.InferIn(&b.own, x) }

// InferIn implements Backend.
func (b *Int8Backend) InferIn(sc *Scratch, x *tensor.Tensor) []float64 {
	sc.embed = b.embed.apply(sc, sc.embed, b.plan.features(sc, x))
	sc.logits = b.head.apply(sc, sc.logits, sc.embed)
	return sc.probs()
}

// maxReduction is the deepest reduction the GEMM kernels take: k·127² < 2³¹
// keeps an accumulator inside int32.
const maxReduction = (1<<31 - 1) / (127 * 127)

func checkReduction(name string, k int) {
	if k > maxReduction {
		panic(fmt.Sprintf("nn: int8: %s reduces over %d values, the int32 accumulators hold %d", name, k, maxReduction))
	}
}

// qround rounds half away from zero — the deterministic rounding every
// quantization step in this backend uses — by adding 0.5 with v's sign bit
// copied onto it and truncating.
func qround(v float32) int32 {
	const signBit, half = 1 << 31, 0x3f000000
	return int32(v + math.Float32frombits(half|math.Float32bits(v)&signBit))
}

// quantize is qround(v·inv) clamped to [-127, 127].
func quantize(v, inv float32) int8 {
	return int8(min(max(qround(float32(v*inv)), -127), 127))
}

// quantizeTo fills dst with round(src/scale) clamped to [-127, 127]: the
// vector kernel takes the whole vectors, the Go loop the rest.
func quantizeTo(dst []int8, src []float32, scale float32) {
	inv := 1 / scale
	dst = dst[:len(src)]
	for i := quantizeRowVector(dst, src, inv); i < len(src); i++ {
		dst[i] = quantize(src[i], inv)
	}
}

// absMaxScale returns the per-tensor activation scale absmax/127 (1 when the
// tensor is all zero, so quantization is a no-op rather than a divide by 0).
// Magnitudes are compared as integers — with the sign bit cleared, float32
// bit patterns order as their values do — so a NaN, which the float
// comparison would skip, is the largest value and becomes the scale.
func absMaxScale(src []float32) float32 { return scaleOf(absMaxBits(src)) }

// absMaxBits is the largest sign-cleared bit pattern of src, 0 when it is
// empty. A maximum of integers does not depend on the order it is taken in,
// so the largest of a tensor's planes' is the tensor's, NaN and -0 included.
func absMaxBits(src []float32) uint32 {
	m, n := absMaxVector(src)
	for _, v := range src[n:] {
		m = max(m, math.Float32bits(v)&^(1<<31))
	}
	return m
}

// scaleOf is absMaxScale of a tensor whose absMaxBits is m.
func scaleOf(m uint32) float32 {
	if m == 0 {
		return 1
	}
	return math.Float32frombits(m) / 127
}

// recordPlanes sets rec[i] to the absMaxBits of plane i of the hw-long planes
// of dst, each just written and still in cache.
func recordPlanes(rec []uint32, dst []float32, hw int) {
	if absMaxPlanesVector(rec, dst, hw) {
		return
	}
	for i := range rec {
		rec[i] = absMaxBits(dst[i*hw : (i+1)*hw])
	}
}

// foldBN returns the per-channel scale a_c = γ_c/√(σ²_c+ε) and shift
// b_c = β_c − μ_c·a_c that fold an eval-mode BatchNorm into the preceding
// linear layer.
func foldBN(bn *BatchNorm) (scale, shift []float32) {
	n := len(bn.RunningMean)
	scale = make([]float32, n)
	shift = make([]float32, n)
	g := bn.Gamma.W.Data()
	beta := bn.Beta.W.Data()
	for c := 0; c < n; c++ {
		a := g[c] / float32(math.Sqrt(float64(bn.RunningVar[c])+float64(bn.Eps)))
		scale[c] = a
		shift[c] = beta[c] - float32(bn.RunningMean[c]*a)
	}
	return scale, shift
}

// quantizeRows quantizes a (rows, k) weight matrix with one scale per row
// (per output channel), after multiplying row c by fold[c] when fold != nil.
func quantizeRows(w []float32, rows, k int, fold []float32) (q []int8, scales []float32) {
	q = make([]int8, rows*k)
	scales = make([]float32, rows)
	row := make([]float32, k)
	for c := 0; c < rows; c++ {
		copy(row, w[c*k:(c+1)*k])
		if fold != nil {
			for j := range row {
				row[j] *= fold[c]
			}
		}
		s := absMaxScale(row)
		scales[c] = s
		quantizeTo(q[c*k:(c+1)*k], row, s)
	}
	return q, scales
}

// qmatrix is a quantized (rows, k) weight matrix with its per-row scales. The
// rows are held as int16, padded with a zero tap to the even length k2, so
// that taps 2j and 2j+1 of a row are the pair one panel pair multiplies — in
// the vector kernel, by one 32-bit broadcast.
type qmatrix struct {
	rows, k2 int
	scale    []float32 // per-row weight scale
	wide     []int16
}

// newQMatrix quantizes a (rows, k) float32 weight matrix, row c scaled by
// fold[c] first when fold != nil.
func newQMatrix(name string, w []float32, rows, k int, fold []float32) *qmatrix {
	checkReduction(name, k)
	q, scale := quantizeRows(w, rows, k, fold)
	return packQMatrix(q, scale, rows, k)
}

func packQMatrix(q []int8, scale []float32, rows, k int) *qmatrix {
	k2 := (k + 1) &^ 1
	m := &qmatrix{rows: rows, k2: k2, scale: scale, wide: make([]int16, rows*k2)}
	for c := 0; c < rows; c++ {
		for j, v := range q[c*k : (c+1)*k] {
			m.wide[c*k2+j] = int16(v)
		}
	}
	return m
}

// qfinish dequantizes one int32 accumulator, v = acc·deq + bias, and applies
// the fused activation: clamp is its upper bound — 6 for ReLU6, +Inf for
// ReLU — and 0 when there is none.
func qfinish(acc int32, deq, bias, clamp float32) float32 {
	v := float32(float32(acc)*deq) + bias
	if clamp > 0 {
		v = min(max(v, 0), clamp)
	}
	return v
}

func reluClamp(relu6 bool) float32 {
	if relu6 {
		return 6
	}
	return 0
}

// quantizePanel quantizes a (k, p) channel-major activation image — a 1×1
// convolution's input or any other's im2colPlanar panel — into the
// pair-interleaved panel qgemm reads: taps 2j and 2j+1 of pixel pi are the
// adjacent bytes at (j·p + pi)·2, the partner of an odd last tap is zero, and
// so one 16-byte load is eight pixels' pair. At p = 1 that is the quantized
// row itself, which is how qdense builds a dense layer's.
func quantizePanel(dst []int8, src []float32, p, k int, scale float32) {
	inv := 1 / scale
	dst = dst[:(k+1)&^1*p]
	ps := quantizePanelVector(dst, src, p, k, inv) // the vector kernel's pixels
	if ps == p {
		return
	}
	for j := 0; j < k; j++ {
		out := dst[j/2*2*p+j%2:]
		row := src[j*p : (j+1)*p]
		for pi := ps; pi < p; pi++ {
			out[2*pi] = quantize(row[pi], inv)
		}
	}
	if k%2 == 1 {
		out := dst[(k-1)*p:]
		for pi := ps; pi < p; pi++ {
			out[2*pi+1] = 0
		}
	}
}

// qgemm computes the dequantized int8 GEMM dst[c*p+pi] =
// qfinish(Σ_j w[c][j]·x[j][pi], w.scale[c]·ax, bias[c], clamp) over p pixels
// of a quantizePanel panel: the vector kernel takes the whole 4-channel ×
// 16-pixel tiles and the Go kernel the pixels and channels it leaves. Every
// sum is exact in integers, so which one ran shows in no bit.
func qgemm(dst []float32, w *qmatrix, panel []int8, p int, ax float32, bias []float32, clamp float32) {
	qgemmRows(dst, w, 0, w.rows, panel, p, ax, bias, clamp)
}

// qgemmRows is qgemm over output channels [c0, c1) of it.
func qgemmRows(dst []float32, w *qmatrix, c0, c1 int, panel []int8, p int, ax float32, bias []float32, clamp float32) {
	cs, ps := qgemmTiles(dst, w, c0, c1, panel, p, ax, bias, clamp)
	qgemmBlock(dst, w, panel, c0, cs, ps, p, ax, bias, clamp)
	qgemmBlock(dst, w, panel, cs, c1, 0, p, ax, bias, clamp)
}

// qgemmBlock is the portable kernel of qgemm, over channels [c0, c1) and
// pixels [p0, p) of it.
//
// The micro-kernel tiles 4 output channels × 2 pixels, eight int32
// accumulators a panel pair at a time. Channels past the last whole tile, an
// odd last pixel and a dense layer's single pixel are qgemmEdge's.
func qgemmBlock(dst []float32, w *qmatrix, panel []int8, c0, c1, p0, p int, ax float32, bias []float32, clamp float32) {
	k2 := w.k2
	even := p0 + (p-p0)&^1
	c := c0
	for ; c+4 <= c1 && p0 < even; c += 4 {
		w0, w1 := w.wide[c*k2:(c+1)*k2], w.wide[(c+1)*k2:(c+2)*k2]
		w2, w3 := w.wide[(c+2)*k2:(c+3)*k2], w.wide[(c+3)*k2:(c+4)*k2]
		d := dst[c*p : (c+4)*p]
		q0, q1, q2, q3 := w.scale[c]*ax, w.scale[c+1]*ax, w.scale[c+2]*ax, w.scale[c+3]*ax
		b0, b1, b2, b3 := bias[c], bias[c+1], bias[c+2], bias[c+3]
		for pi := p0; pi < even; pi += 2 {
			var s00, s10, s20, s30, s01, s11, s21, s31 int32
			o := 2 * pi
			for j := 0; j+1 < len(w0); j += 2 {
				x := panel[o : o+4] // taps j, j+1 of the first pixel, then of the second
				o += 2 * p
				x0, x1 := int32(x[0]), int32(x[2])
				y0, y1 := int32(x[1]), int32(x[3])
				u, v := int32(w0[j]), int32(w0[j+1])
				s00 += u*x0 + v*y0
				s01 += u*x1 + v*y1
				u, v = int32(w1[j]), int32(w1[j+1])
				s10 += u*x0 + v*y0
				s11 += u*x1 + v*y1
				u, v = int32(w2[j]), int32(w2[j+1])
				s20 += u*x0 + v*y0
				s21 += u*x1 + v*y1
				u, v = int32(w3[j]), int32(w3[j+1])
				s30 += u*x0 + v*y0
				s31 += u*x1 + v*y1
			}
			d[pi], d[pi+1] = qfinish(s00, q0, b0, clamp), qfinish(s01, q0, b0, clamp)
			d[p+pi], d[p+pi+1] = qfinish(s10, q1, b1, clamp), qfinish(s11, q1, b1, clamp)
			d[2*p+pi], d[2*p+pi+1] = qfinish(s20, q2, b2, clamp), qfinish(s21, q2, b2, clamp)
			d[3*p+pi], d[3*p+pi+1] = qfinish(s30, q3, b3, clamp), qfinish(s31, q3, b3, clamp)
		}
	}
	qgemmEdge(dst, w, panel, c0, c, even, p, ax, bias, clamp)
	qgemmEdge(dst, w, panel, c, c1, p0, p, ax, bias, clamp)
}

// qgemv is qgemm of a one-pixel panel, x, which is a dense layer's quantized
// row: the vector kernel sums every channel's taps of whole vectors of 16
// into acc and the Go loop adds the rest and finishes the channel; without
// the kernel it is qgemm's own Go loop.
func qgemv(dst []float32, w *qmatrix, x []int8, ax float32, bias []float32, clamp float32, acc []int32) {
	kv := qgemvVector(acc, w, x)
	if kv == 0 {
		qgemm(dst, w, x, 1, ax, bias, clamp)
		return
	}
	for c := range w.rows {
		s := acc[c]
		row := w.wide[c*w.k2 : (c+1)*w.k2]
		for j := kv; j < len(row); j++ {
			s += int32(row[j]) * int32(x[j])
		}
		dst[c] = qfinish(s, w.scale[c]*ax, bias[c], clamp)
	}
}

// qgemmEdge is the plain loop over channels [c0, c1) and pixels [p0, p).
func qgemmEdge(dst []float32, w *qmatrix, panel []int8, c0, c1, p0, p int, ax float32, bias []float32, clamp float32) {
	for c := c0; c < c1; c++ {
		row := w.wide[c*w.k2 : (c+1)*w.k2]
		deq := w.scale[c] * ax
		for pi := p0; pi < p; pi++ {
			var acc int32
			o := 2 * pi
			for j := 0; j+1 < len(row); j += 2 {
				acc += int32(row[j])*int32(panel[o]) + int32(row[j+1])*int32(panel[o+1])
				o += 2 * p
			}
			dst[c*p+pi] = qfinish(acc, deq, bias[c], clamp)
		}
	}
}

// qconv is a fused Conv2D+BatchNorm(+ReLU6) with int8 weights.
type qconv struct {
	w     *qmatrix  // (outC, k) quantized folded weights
	bias  []float32 // folded BatchNorm shift
	dims  tensor.ConvDims
	clamp float32
}

func newQConv(c *Conv2D, bn *BatchNorm, relu6 bool) *qconv {
	fold, bias := foldBN(bn)
	w := newQMatrix(c.Weight.Name, c.Weight.W.Data(), c.Weight.W.Dim(0), c.Weight.W.Dim(1), fold)
	return &qconv{w: w, bias: bias, dims: c.dims, clamp: reluClamp(relu6)}
}

func (o *qconv) outShape(_, h, w int) (int, int, int) {
	d := convDimsAt(o.dims, h, w)
	return o.w.rows, d.OutH(), d.OutW()
}

// run takes a 1×1 convolution's activation scale from the record of its
// input; any other quantizes its im2col panel, whose scale it finds itself.
// An im2colSame panel's values are copies of the input's and +0, and its tap
// (PadH, PadW) is the whole input (KH = 2·PadH + 1 at stride 1), so the two
// have the same absMaxBits and the scan reads the input, a ninth of the
// stem's panel; any other panel is scanned whole. It records its output a
// stripe of channels at a time.
func (o *qconv) run(sc *Scratch, dst, src []float32, _, h, w int) {
	d := convDimsAt(o.dims, h, w)
	np := d.OutH() * d.OutW()
	k := d.InC * d.KH * d.KW
	in := src
	src = sc.planes(src, d)[:k*np]
	var ax float32
	switch {
	case sc.inMax != nil && pointwise(d):
		ax = scaleOf(slices.Max(sc.inMax[:d.InC]))
	case sameGeometry(d):
		ax = absMaxScale(in[:d.InC*d.InH*d.InW])
	default:
		ax = absMaxScale(src)
	}
	panel := sc.panel(o.w.k2 * np)
	quantizePanel(panel, src, np, k, ax)
	if sc.outMax == nil {
		qgemm(dst, o.w, panel, np, ax, o.bias, o.clamp)
		return
	}
	stripe := max(4, recordStripe/np&^3) // whole tiles
	for c := 0; c < o.w.rows; c += stripe {
		c1 := min(c+stripe, o.w.rows)
		qgemmRows(dst, o.w, c, c1, panel, np, ax, o.bias, o.clamp)
		recordPlanes(sc.outMax[c:c1], dst[c*np:], np)
	}
}

// qdepthwise is a fused DepthwiseConv2D+BatchNorm(+ReLU6) with int8 weights.
type qdepthwise struct {
	w      []int8    // (ch, kh*kw)
	taps   []float32 // w as the vector kernel reads it
	ws     []float32 // per-channel weight scale
	bias   []float32
	kh, kw int
	stride int
	pad    int
	clamp  float32
}

func newQDepthwise(l *DepthwiseConv2D, bn *BatchNorm, relu6 bool) *qdepthwise {
	fold, bias := foldBN(bn)
	q, ws := quantizeRows(l.Weight.W.Data(), l.ch, l.kh*l.kw, fold)
	taps := make([]float32, len(q))
	for i, v := range q {
		taps[i] = float32(v)
	}
	return &qdepthwise{w: q, taps: taps, ws: ws, bias: bias, kh: l.kh, kw: l.kw, stride: l.stride, pad: l.pad, clamp: reluClamp(relu6)}
}

func (o *qdepthwise) outShape(c, h, w int) (int, int, int) {
	return c, (h+2*o.pad-o.kh)/o.stride + 1, (w+2*o.pad-o.kw)/o.stride + 1
}

// run hands a 3×3 layer to the vector kernel where there is one. The Go loop
// quantizes a channel's plane once and sums each output's taps in int32,
// skipping those that fall in the padding.
func (o *qdepthwise) run(sc *Scratch, dst, src []float32, ch, inH, inW int) {
	_, outH, outW := o.outShape(ch, inH, inW)
	if o.kh == 3 && o.kw == 3 && qdw3x3Vector(sc, o, dst, src, ch, inH, inW, outH, outW) {
		return
	}
	q := sc.panel(inH * inW)
	for c := 0; c < ch; c++ {
		plane := src[c*inH*inW : (c+1)*inH*inW]
		ax := sc.inScale(c, plane)
		quantizeTo(q, plane, ax)
		ker := o.w[c*o.kh*o.kw : (c+1)*o.kh*o.kw]
		deq, bias := o.ws[c]*ax, o.bias[c]
		out := dst[c*outH*outW : (c+1)*outH*outW]
		for i := range out {
			iy0, ix0 := i/outW*o.stride-o.pad, i%outW*o.stride-o.pad
			var acc int32
			for ky := max(0, -iy0); ky < min(o.kh, inH-iy0); ky++ {
				row, kr := q[(iy0+ky)*inW:], ker[ky*o.kw:]
				for kx := max(0, -ix0); kx < min(o.kw, inW-ix0); kx++ {
					acc += int32(kr[kx]) * int32(row[ix0+kx])
				}
			}
			out[i] = qfinish(acc, deq, bias, o.clamp)
		}
		if sc.outMax != nil {
			sc.outMax[c] = absMaxBits(out)
		}
	}
}

// qdense is an int8 dense layer with float bias and optional ReLU.
type qdense struct {
	w     *qmatrix // (out, in) quantized weights
	bias  []float32
	in    int
	clamp float32
}

func newQDense(d *Dense) *qdense {
	bias := make([]float32, d.out)
	copy(bias, d.Bias.W.Data())
	var clamp float32
	if d.ReLU {
		clamp = float32(math.Inf(1))
	}
	return &qdense{w: newQMatrix(d.Weight.Name, d.Weight.W.Data(), d.out, d.in, nil), bias: bias, in: d.in, clamp: clamp}
}

// apply runs the layer over an (N, in) batch one row at a time — a row is a
// one-pixel GEMM — into y, reused when it already has the right shape.
func (l *qdense) apply(sc *Scratch, y, x *tensor.Tensor) *tensor.Tensor {
	n, out := x.Dim(0), l.w.rows
	y = tensor.Reuse(y, n, out)
	qrow, acc := sc.panel(l.w.k2), sc.acc(out)
	for i := 0; i < n; i++ {
		row := x.Data()[i*l.in : (i+1)*l.in]
		ax := absMaxScale(row)
		// A one-pixel quantizePanel: the quantized row, and a zero partner
		// for an odd last tap.
		quantizeTo(qrow, row, ax)
		clear(qrow[l.in:])
		qgemv(y.Data()[i*out:(i+1)*out], l.w, qrow, ax, l.bias, l.clamp, acc)
	}
	return y
}
