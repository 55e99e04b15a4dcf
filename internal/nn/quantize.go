package nn

import (
	"fmt"
	"math"

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
// The integer GEMM packs two output channels into the 32-bit lanes of one
// int64 (see packRows), so one 64-bit multiply does two int8 MACs. Both lanes
// stay exact while k·127² < 2³¹ for reduction depth k — the bound an int32
// accumulator needs anyway; newQConv and newQDense panic on a layer deeper
// than maxReduction. Integer addition is exact, so every accumulator is the
// integer the scalar reference loops in quantize_ref_test.go compute and every
// logit has the same bits.
//
// A replica owns its packed weights (8 bytes per channel pair and tap) and the
// plan's scratch: a one-image float32 activation arena, the stem's im2col
// panel and one quantized panel, about 0.8 MB at the default width whatever
// the batch size. Infer overwrites all of it, so a replica serves one call at
// a time.
type Int8Backend struct {
	plan        *inferPlan
	embed, head *qdense
	classes     int
	inputHW     int
}

// NewInt8Backend quantizes the model's current weights. The model is only
// read; it is not retained.
func NewInt8Backend(m *Model) *Int8Backend {
	return &Int8Backend{
		plan:    newInferPlan(m.Backbone.Layers, true),
		embed:   newQDense(m.Embed, float32(math.Inf(1))),
		head:    newQDense(m.Head, 0),
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
func (b *Int8Backend) Infer(x *tensor.Tensor) []float64 {
	p := b.plan
	p.embed = b.embed.apply(p, p.embed, p.features(x))
	p.logits = b.head.apply(p, p.logits, p.embed)
	return flatProbs(Softmax(p.logits))
}

// maxReduction is the deepest reduction the packed kernels take:
// k·127² < 2³¹ keeps each 32-bit lane of a packed accumulator inside int32.
const maxReduction = (1<<31 - 1) / (127 * 127)

func checkReduction(name string, k int) {
	if k > maxReduction {
		panic(fmt.Sprintf("nn: int8: %s reduces over %d values, the int32 accumulator lanes hold %d", name, k, maxReduction))
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
	return int8(min(max(qround(v*inv), -127), 127))
}

// quantizeTo fills dst with round(src/scale) clamped to [-127, 127].
func quantizeTo(dst []int8, src []float32, scale float32) {
	inv := 1 / scale
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = quantize(v, inv)
	}
}

// absMaxScale returns the per-tensor activation scale absmax/127 (1 when the
// tensor is all zero, so quantization is a no-op rather than a divide by 0).
// Magnitudes are compared as integers — with the sign bit cleared, float32
// bit patterns order as their values do — so a NaN, which the float
// comparison would skip, is the largest value and becomes the scale.
func absMaxScale(src []float32) float32 {
	var m uint32
	for _, v := range src {
		m = max(m, math.Float32bits(v)&^(1<<31))
	}
	if m == 0 {
		return 1
	}
	return math.Float32frombits(m) / 127
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
		shift[c] = beta[c] - bn.RunningMean[c]*a
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

// packRows pairs the rows of a (rows, k) int8 matrix into the 32-bit lanes of
// int64s: packed row r holds row 2r in its low lane and row 2r+1 (zeros past
// an odd last row) in its high lane, wp[r*k+j] = w[2r][j] + w[2r+1][j]<<32.
// A sum Σ_j wp[j]·x[j] over int8 x is then lo + hi<<32 with lo and hi the two
// rows' own dot products, which unpackLanes separates again.
func packRows(w []int8, rows, k int) []int64 {
	wp := make([]int64, (rows+1)/2*k)
	for c := 0; c < rows; c++ {
		for j, v := range w[c*k : (c+1)*k] {
			wp[c/2*k+j] += int64(v) << (c % 2 * 32)
		}
	}
	return wp
}

// unpackLanes splits a packed accumulator into its two int32 sums. The low
// lane is the sum's low 32 bits as they stand; subtracting it borrows back
// what a negative low lane took from the high one.
func unpackLanes(acc int64) (lo, hi int32) {
	lo = int32(acc)
	return lo, int32((acc - int64(lo)) >> 32)
}

// qfinish dequantizes one int32 accumulator, v = acc·deq + bias, and applies
// the fused activation: clamp is its upper bound — 6 for ReLU6, +Inf for
// ReLU — and 0 when there is none.
func qfinish(acc int32, deq, bias, clamp float32) float32 {
	v := float32(acc)*deq + bias
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

// dot2x2 is the inner loop of qgemm: two packed weight rows (w, 2k long)
// against two adjacent pixels of the panel (a, 2k long), four packed
// accumulators. It is kept out of line because its four sums, four operands
// and four cursors are all the registers amd64 has: inlined into qgemm's
// loop nest the compiler keeps the accumulators on the stack instead.
//
//go:noinline
func dot2x2(w []int64, a []int8, k int) (s00, s01, s10, s11 int64) {
	w0, w1 := w[:k], w[k:2*k]
	a0, a1 := a[:k], a[k:2*k]
	for j, wv := range w0 {
		x0, x1 := int64(a0[j]), int64(a1[j])
		s00 += wv * x0
		s01 += wv * x1
		wv = w1[j]
		s10 += wv * x0
		s11 += wv * x1
	}
	return
}

// qgemm computes the dequantized int8 GEMM dst[c*p+pi] =
// qfinish(Σ_j w[c][j]·col[pi*k+j], ws[c]·ax, bias[c], clamp) for outC output
// channels over p pixels with a shared reduction depth k, from the packed
// weights packRows makes.
//
// The micro-kernel tiles 4 output channels × 2 pixels: four 64-bit multiplies
// per reduction step do eight MACs. Channels past the last whole tile and an
// odd last pixel run one packed accumulator at a time. Every lane is the
// plain sum over j of one channel against one pixel, exact in integers, so
// the result is bit-identical to the per-output-pixel reference.
func qgemm(dst []float32, wp []int64, col []int8, outC, p, k int, ws []float32, ax float32, bias []float32, clamp float32) {
	tiled, even := outC&^3, p&^1
	for c := 0; c < tiled; c += 4 {
		w := wp[c/2*k : (c/2+2)*k]
		d0, d1 := dst[c*p:(c+1)*p], dst[(c+1)*p:(c+2)*p]
		d2, d3 := dst[(c+2)*p:(c+3)*p], dst[(c+3)*p:(c+4)*p]
		q0, q1, q2, q3 := ws[c]*ax, ws[c+1]*ax, ws[c+2]*ax, ws[c+3]*ax
		b0, b1, b2, b3 := bias[c], bias[c+1], bias[c+2], bias[c+3]
		for pi := 0; pi < even; pi += 2 {
			s00, s01, s10, s11 := dot2x2(w, col[pi*k:(pi+2)*k], k)
			lo, hi := unpackLanes(s00)
			d0[pi], d1[pi] = qfinish(lo, q0, b0, clamp), qfinish(hi, q1, b1, clamp)
			lo, hi = unpackLanes(s10)
			d2[pi], d3[pi] = qfinish(lo, q2, b2, clamp), qfinish(hi, q3, b3, clamp)
			lo, hi = unpackLanes(s01)
			d0[pi+1], d1[pi+1] = qfinish(lo, q0, b0, clamp), qfinish(hi, q1, b1, clamp)
			lo, hi = unpackLanes(s11)
			d2[pi+1], d3[pi+1] = qfinish(lo, q2, b2, clamp), qfinish(hi, q3, b3, clamp)
		}
	}
	// edge runs packed rows [r0, r1) over pixels [p0, p1).
	edge := func(r0, r1, p0, p1 int) {
		for r := r0; r < r1; r++ {
			w := wp[r*k : (r+1)*k]
			c := 2 * r
			for pi := p0; pi < p1; pi++ {
				a := col[pi*k : (pi+1)*k]
				var s int64
				for j, wv := range w {
					s += wv * int64(a[j])
				}
				lo, hi := unpackLanes(s)
				dst[c*p+pi] = qfinish(lo, ws[c]*ax, bias[c], clamp)
				if c+1 < outC {
					dst[(c+1)*p+pi] = qfinish(hi, ws[c+1]*ax, bias[c+1], clamp)
				}
			}
		}
	}
	edge(0, tiled/2, even, p)
	edge(tiled/2, (outC+1)/2, 0, p)
}

// transposeQuantize quantizes a (k, p) channel-major activation image
// directly into the (p, k) pixel-major panel qgemm consumes — the 1×1
// stride-1 im2col is exactly a transpose, so fusing it with quantization
// skips a full float32 copy of the panel.
func transposeQuantize(dst []int8, src []float32, p, k int, scale float32) {
	inv := 1 / scale
	for j := 0; j < k; j++ {
		out := dst[j:]
		for pi, v := range src[j*p : (j+1)*p] {
			out[pi*k] = quantize(v, inv)
		}
	}
}

// qconv is a fused Conv2D+BatchNorm(+ReLU6) with int8 weights.
type qconv struct {
	wp    []int64   // (outC, k) quantized folded weights, packed by packRows
	ws    []float32 // per-output-channel weight scale
	bias  []float32 // folded BatchNorm shift
	outC  int
	dims  tensor.ConvDims
	clamp float32
}

func newQConv(c *Conv2D, bn *BatchNorm, relu6 bool) *qconv {
	outC := c.Weight.W.Dim(0)
	k := c.Weight.W.Dim(1)
	checkReduction(c.Weight.Name, k)
	fold, bias := foldBN(bn)
	q, ws := quantizeRows(c.Weight.W.Data(), outC, k, fold)
	return &qconv{wp: packRows(q, outC, k), ws: ws, bias: bias, outC: outC, dims: c.dims, clamp: reluClamp(relu6)}
}

func (o *qconv) outShape(_, h, w int) (int, int, int) {
	d := convDimsAt(o.dims, h, w)
	return o.outC, d.OutH(), d.OutW()
}

func (o *qconv) run(p *inferPlan, dst, src []float32, _, h, w int) {
	d := convDimsAt(o.dims, h, w)
	np := d.OutH() * d.OutW()
	k := d.InC * d.KH * d.KW
	colQ := p.panel(np * k)
	var ax float32
	if pointwise(d) {
		// absMaxScale is order-independent and the per-element rounding
		// is identical, so the fused transpose quantization matches the
		// im2col + quantizeTo pair bit for bit.
		ax = absMaxScale(src)
		transposeQuantize(colQ, src, np, k, ax)
	} else {
		colF := p.colBuf(np * k)
		tensor.Im2Col(colF, src, d)
		ax = absMaxScale(colF)
		quantizeTo(colQ, colF, ax)
	}
	qgemm(dst, o.wp, colQ, o.outC, np, k, o.ws, ax, o.bias, o.clamp)
}

// qdepthwise is a fused DepthwiseConv2D+BatchNorm(+ReLU6) with int8 weights.
type qdepthwise struct {
	w      []int8    // (ch, kh*kw)
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
	return &qdepthwise{w: q, ws: ws, bias: bias, kh: l.kh, kw: l.kw, stride: l.stride, pad: l.pad, clamp: reluClamp(relu6)}
}

func (o *qdepthwise) outShape(c, h, w int) (int, int, int) {
	return c, (h+2*o.pad-o.kh)/o.stride + 1, (w+2*o.pad-o.kw)/o.stride + 1
}

// run quantizes each channel plane into a zero-padded copy, so that no tap
// of any output pixel is out of bounds: a padding tap adds an exact integer
// zero where the reference loop skips it, and the 3×3 kernel the model uses
// runs unrolled over the whole plane.
func (o *qdepthwise) run(p *inferPlan, dst, src []float32, ch, inH, inW int) {
	_, outH, outW := o.outShape(ch, inH, inW)
	pw := inW + 2*o.pad
	padded := p.panel((inH + 2*o.pad) * pw)
	clear(padded) // the border stays zero; every channel rewrites the interior
	for c := 0; c < ch; c++ {
		plane := src[c*inH*inW : (c+1)*inH*inW]
		ax := absMaxScale(plane)
		for y := 0; y < inH; y++ {
			quantizeTo(padded[(y+o.pad)*pw+o.pad:], plane[y*inW:(y+1)*inW], ax)
		}
		ker := o.w[c*o.kh*o.kw : (c+1)*o.kh*o.kw]
		deq, bias := o.ws[c]*ax, o.bias[c]
		out := dst[c*outH*outW : (c+1)*outH*outW]
		if o.kh == 3 && o.kw == 3 {
			qdw3x3(out, padded, ker, outW, pw, o.stride, deq, bias, o.clamp)
			continue
		}
		for i := range out {
			taps := padded[i/outW*o.stride*pw+i%outW*o.stride:]
			var acc int32
			for t, kv := range ker {
				acc += int32(kv) * int32(taps[t/o.kw*pw+t%o.kw])
			}
			out[i] = qfinish(acc, deq, bias, o.clamp)
		}
	}
}

// qdw3x3 is the unrolled 3×3 depthwise kernel over a zero-padded quantized
// plane pw wide: output (oy, ox) reads the window at (oy·stride, ox·stride).
func qdw3x3(out []float32, padded, ker []int8, outW, pw, stride int, deq, bias, clamp float32) {
	k0, k1, k2 := int32(ker[0]), int32(ker[1]), int32(ker[2])
	k3, k4, k5 := int32(ker[3]), int32(ker[4]), int32(ker[5])
	k6, k7, k8 := int32(ker[6]), int32(ker[7]), int32(ker[8])
	for oy := 0; oy*outW < len(out); oy++ {
		rows := padded[oy*stride*pw : (oy*stride+3)*pw]
		r0, r1, r2 := rows[:pw], rows[pw:2*pw], rows[2*pw:]
		for ox := range out[oy*outW : (oy+1)*outW] {
			ix := ox * stride
			acc := k0*int32(r0[ix]) + k1*int32(r0[ix+1]) + k2*int32(r0[ix+2]) +
				k3*int32(r1[ix]) + k4*int32(r1[ix+1]) + k5*int32(r1[ix+2]) +
				k6*int32(r2[ix]) + k7*int32(r2[ix+1]) + k8*int32(r2[ix+2])
			out[oy*outW+ox] = qfinish(acc, deq, bias, clamp)
		}
	}
}

// qdense is an int8 dense layer with float bias and optional ReLU.
type qdense struct {
	wp      []int64   // (out, in) quantized weights, packed by packRows
	ws      []float32 // per-output-row weight scale
	bias    []float32
	in, out int
	clamp   float32
}

func newQDense(d *Dense, clamp float32) *qdense {
	checkReduction(d.Weight.Name, d.in)
	q, ws := quantizeRows(d.Weight.W.Data(), d.out, d.in, nil)
	bias := make([]float32, d.out)
	copy(bias, d.Bias.W.Data())
	return &qdense{wp: packRows(q, d.out, d.in), ws: ws, bias: bias, in: d.in, out: d.out, clamp: clamp}
}

// apply runs the layer over an (N, in) batch one row at a time — a row is a
// one-pixel GEMM — into y, reused when it already has the right shape.
func (l *qdense) apply(p *inferPlan, y, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	y = reuseTensor(y, n, l.out)
	qrow := p.panel(l.in)
	for i := 0; i < n; i++ {
		row := x.Data()[i*l.in : (i+1)*l.in]
		ax := absMaxScale(row)
		quantizeTo(qrow, row, ax)
		qgemm(y.Data()[i*l.out:(i+1)*l.out], l.wp, qrow, l.out, 1, l.in, l.ws, ax, l.bias, l.clamp)
	}
	return y
}
