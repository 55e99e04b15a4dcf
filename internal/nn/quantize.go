package nn

import (
	"math"

	"repro/internal/tensor"
)

// Int8Backend is a post-training quantized compilation of the classifier:
// BatchNorm is folded into the preceding convolution, the folded weights are
// quantized once to int8 with a per-output-channel scale, and every conv /
// dense layer runs an integer matmul (int8×int8 accumulated in int32) with a
// single dequantization at the accumulator — the structure of a TFLite-style
// dynamic-range kernel. Activations are quantized per sample with a
// per-tensor scale, so a photo's logits do not depend on which batch it
// shared an Infer call with.
//
// All rounding is round-half-away-from-zero and every loop runs in a fixed
// order, so the backend is bit-deterministic; it diverges from the float32
// reference only through the quantization itself, which is exactly the
// runtime-stack instability the fleet measures.
//
// The integer kernels are register-blocked: qgemm tiles 4 output channels ×
// 2 pixels so every loaded activation byte feeds four accumulators, and the
// 3×3 depthwise kernel runs a border-free unrolled interior. int32 addition
// is exact (no rounding), so the blocked kernels produce bit-identical
// accumulators to the scalar reference loops kept in quantize_ref_test.go.
type Int8Backend struct {
	ops         []qop
	embed, head *qdense
	classes     int
	inputHW     int

	// forward scratch, grown on demand (backends are single-worker like
	// *Model, so plain fields need no locking)
	colF []float32
	colQ []int8
	qrow []int8
}

// NewInt8Backend quantizes the model's current weights. The model is only
// read; it is not retained.
func NewInt8Backend(m *Model) *Int8Backend {
	b := &Int8Backend{classes: m.Classes, inputHW: m.InputHW}
	b.ops = convertLayers(m.Backbone.Layers)
	b.embed = newQDense(m.Embed, true)
	b.head = newQDense(m.Head, false)
	return b
}

// Name implements Backend.
func (b *Int8Backend) Name() string { return RuntimeInt8 }

// NumClasses implements Backend.
func (b *Int8Backend) NumClasses() int { return b.classes }

// InputSize implements Backend.
func (b *Int8Backend) InputSize() int { return b.inputHW }

// Infer implements Backend.
func (b *Int8Backend) Infer(x *tensor.Tensor) []float64 {
	for _, op := range b.ops {
		x = op.forward(b, x)
	}
	e := b.embed.apply(b, x)
	z := b.head.apply(b, e)
	return flatProbs(Softmax(z))
}

// qop is one inference-only op of the quantized graph.
type qop interface {
	forward(b *Int8Backend, x *tensor.Tensor) *tensor.Tensor
}

// qround rounds half away from zero — the deterministic rounding every
// quantization step in this backend uses.
func qround(v float32) int32 {
	if v >= 0 {
		return int32(v + 0.5)
	}
	return int32(v - 0.5)
}

// quantizeTo fills dst with round(src/scale) clamped to [-127, 127].
func quantizeTo(dst []int8, src []float32, scale float32) {
	inv := 1 / scale
	for i, v := range src {
		q := qround(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
}

// absMaxScale returns the per-tensor activation scale absmax/127 (1 when the
// tensor is all zero, so quantization is a no-op rather than a divide by 0).
func absMaxScale(src []float32) float32 {
	var m float32
	for _, v := range src {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	if m == 0 {
		return 1
	}
	return m / 127
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

// qgraph collects the quantized ops of one walkFused pass.
type qgraph struct{ ops []qop }

// convertLayers compiles the float layer graph into quantized ops: each
// fused convolution becomes one integer kernel, Residual recurses and
// GlobalAvgPool stays float.
func convertLayers(layers []Layer) []qop {
	var g qgraph
	walkFused(layers, &g)
	return g.ops
}

func (g *qgraph) conv(c *Conv2D, bn *BatchNorm, relu6 bool) {
	g.ops = append(g.ops, newQConv(c, bn, relu6))
}

func (g *qgraph) depthwise(l *DepthwiseConv2D, bn *BatchNorm, relu6 bool) {
	g.ops = append(g.ops, newQDepthwise(l, bn, relu6))
}

func (g *qgraph) residual(body []Layer) {
	g.ops = append(g.ops, &qresidual{body: convertLayers(body)})
}

func (g *qgraph) pool() { g.ops = append(g.ops, &qpool{}) }

// colBufs returns the shared im2col scratch, grown to hold n values.
func (b *Int8Backend) colBufs(n int) ([]float32, []int8) {
	if cap(b.colF) < n {
		b.colF = make([]float32, n)
		b.colQ = make([]int8, n)
	}
	return b.colF[:n], b.colQ[:n]
}

// rowBuf returns the shared quantized-activation row scratch for the dense
// layers, grown to hold n values.
func (b *Int8Backend) rowBuf(n int) []int8 {
	if cap(b.qrow) < n {
		b.qrow = make([]int8, n)
	}
	return b.qrow[:n]
}

// reuseTensor returns t when it already has exactly the requested shape,
// otherwise a freshly allocated tensor. Ops cache their output tensor across
// Infer calls through this helper: the graph is static and each op instance
// appears once, so an op's previous output is dead by the time it runs again
// (its consumer has already been overwritten too), and every kernel writes
// its full output, so stale values can never leak through.
func reuseTensor(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if t != nil && t.Rank() == len(shape) {
		match := true
		for i, d := range shape {
			if t.Dim(i) != d {
				match = false
				break
			}
		}
		if match {
			return t
		}
	}
	return tensor.New(shape...)
}

// qfinish dequantizes one int32 accumulator: v = acc·deq + bias, with the
// fused ReLU6 clamp when the op carries one.
func qfinish(acc int32, deq, bias float32, relu6 bool) float32 {
	v := float32(acc)*deq + bias
	if relu6 {
		if v < 0 {
			v = 0
		} else if v > 6 {
			v = 6
		}
	}
	return v
}

// qgemm computes the dequantized int8 GEMM dst[c*p+pi] =
// qfinish(Σ_j w[c*k+j]·col[pi*k+j], ws[c]·ax, bias[c]) for outC output
// channels over p pixels with a shared reduction depth k.
//
// The micro-kernel tiles 4 output channels × 2 pixels: eight int32
// accumulators live in registers, every activation byte loaded from the
// im2col panel feeds four of them and every weight byte two, so the kernel
// does ~3× fewer int8 loads than the scalar loop. Each accumulator is still
// the plain ordered sum over j — int32 addition is exact — so the result is
// bit-identical to the per-output-pixel reference.
func qgemm(dst []float32, w, col []int8, outC, p, k int, ws []float32, ax float32, bias []float32, relu6 bool) {
	var c int
	for c = 0; c+4 <= outC; c += 4 {
		w0 := w[(c+0)*k : (c+1)*k]
		w1 := w[(c+1)*k : (c+2)*k]
		w2 := w[(c+2)*k : (c+3)*k]
		w3 := w[(c+3)*k : (c+4)*k]
		d0 := dst[(c+0)*p : (c+1)*p]
		d1 := dst[(c+1)*p : (c+2)*p]
		d2 := dst[(c+2)*p : (c+3)*p]
		d3 := dst[(c+3)*p : (c+4)*p]
		q0, q1, q2, q3 := ws[c]*ax, ws[c+1]*ax, ws[c+2]*ax, ws[c+3]*ax
		b0, b1, b2, b3 := bias[c], bias[c+1], bias[c+2], bias[c+3]
		var pi int
		for pi = 0; pi+2 <= p; pi += 2 {
			a0 := col[pi*k : (pi+1)*k]
			a1 := col[(pi+1)*k : (pi+2)*k : (pi+2)*k]
			var s00, s10, s20, s30, s01, s11, s21, s31 int32
			for j, xq := range a0 {
				x0 := int32(xq)
				x1 := int32(a1[j])
				wv := int32(w0[j])
				s00 += wv * x0
				s01 += wv * x1
				wv = int32(w1[j])
				s10 += wv * x0
				s11 += wv * x1
				wv = int32(w2[j])
				s20 += wv * x0
				s21 += wv * x1
				wv = int32(w3[j])
				s30 += wv * x0
				s31 += wv * x1
			}
			d0[pi] = qfinish(s00, q0, b0, relu6)
			d1[pi] = qfinish(s10, q1, b1, relu6)
			d2[pi] = qfinish(s20, q2, b2, relu6)
			d3[pi] = qfinish(s30, q3, b3, relu6)
			d0[pi+1] = qfinish(s01, q0, b0, relu6)
			d1[pi+1] = qfinish(s11, q1, b1, relu6)
			d2[pi+1] = qfinish(s21, q2, b2, relu6)
			d3[pi+1] = qfinish(s31, q3, b3, relu6)
		}
		if pi < p { // odd trailing pixel
			a0 := col[pi*k : (pi+1)*k]
			var s0, s1, s2, s3 int32
			for j, xq := range a0 {
				xv := int32(xq)
				s0 += int32(w0[j]) * xv
				s1 += int32(w1[j]) * xv
				s2 += int32(w2[j]) * xv
				s3 += int32(w3[j]) * xv
			}
			d0[pi] = qfinish(s0, q0, b0, relu6)
			d1[pi] = qfinish(s1, q1, b1, relu6)
			d2[pi] = qfinish(s2, q2, b2, relu6)
			d3[pi] = qfinish(s3, q3, b3, relu6)
		}
	}
	// Channel remainder (outC % 4): the scalar loop.
	for ; c < outC; c++ {
		wrow := w[c*k : (c+1)*k]
		deq := ws[c] * ax
		bc := bias[c]
		out := dst[c*p : (c+1)*p]
		for pi := 0; pi < p; pi++ {
			crow := col[pi*k : (pi+1)*k]
			var acc int32
			for j, wv := range wrow {
				acc += int32(wv) * int32(crow[j])
			}
			out[pi] = qfinish(acc, deq, bc, relu6)
		}
	}
}

// transposeQuantize quantizes a (k, p) channel-major activation image
// directly into the (p, k) pixel-major panel qgemm consumes — the 1×1
// stride-1 im2col is exactly a transpose, so fusing it with quantization
// skips a full float32 copy of the panel.
func transposeQuantize(dst []int8, src []float32, p, k int, scale float32) {
	inv := 1 / scale
	for j := 0; j < k; j++ {
		plane := src[j*p : (j+1)*p]
		out := dst[j:]
		for pi, v := range plane {
			q := qround(v * inv)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			out[pi*k] = int8(q)
		}
	}
}

// qconv is a fused Conv2D+BatchNorm(+ReLU6) with int8 weights.
type qconv struct {
	w     []int8    // (outC, k) quantized folded weights
	ws    []float32 // per-output-channel weight scale
	bias  []float32 // folded BatchNorm shift
	outC  int
	dims  tensor.ConvDims
	relu6 bool

	out *tensor.Tensor // pooled output, reused across Infer calls
}

func newQConv(c *Conv2D, bn *BatchNorm, relu6 bool) *qconv {
	outC := c.Weight.W.Dim(0)
	k := c.Weight.W.Dim(1)
	fold, bias := foldBN(bn)
	q, ws := quantizeRows(c.Weight.W.Data(), outC, k, fold)
	return &qconv{w: q, ws: ws, bias: bias, outC: outC, dims: c.dims, relu6: relu6}
}

func (l *qconv) forward(b *Int8Backend, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	d := l.dims
	d.InH, d.InW = x.Dim(2), x.Dim(3)
	outH, outW := d.OutH(), d.OutW()
	p := outH * outW
	k := d.InC * d.KH * d.KW
	l.out = reuseTensor(l.out, n, l.outC, outH, outW)
	y := l.out
	imgIn := d.InC * d.InH * d.InW
	colF, colQ := b.colBufs(p * k)
	pointwise := d.KH == 1 && d.KW == 1 && d.StrideH == 1 && d.StrideW == 1 && d.PadH == 0 && d.PadW == 0
	for i := 0; i < n; i++ {
		img := x.Data()[i*imgIn : (i+1)*imgIn]
		var ax float32
		if pointwise {
			// absMaxScale is order-independent and the per-element rounding
			// is identical, so the fused transpose quantization matches the
			// im2col + quantizeTo pair bit for bit.
			ax = absMaxScale(img)
			transposeQuantize(colQ, img, p, k, ax)
		} else {
			tensor.Im2Col(colF, img, d)
			ax = absMaxScale(colF)
			quantizeTo(colQ, colF, ax)
		}
		dst := y.Data()[i*l.outC*p : (i+1)*l.outC*p]
		qgemm(dst, l.w, colQ, l.outC, p, k, l.ws, ax, l.bias, l.relu6)
	}
	return y
}

// qdepthwise is a fused DepthwiseConv2D+BatchNorm(+ReLU6) with int8 weights.
type qdepthwise struct {
	w      []int8    // (ch, kh*kw)
	ws     []float32 // per-channel weight scale
	bias   []float32
	ch     int
	kh, kw int
	stride int
	pad    int
	relu6  bool

	out *tensor.Tensor // pooled output, reused across Infer calls
}

func newQDepthwise(l *DepthwiseConv2D, bn *BatchNorm, relu6 bool) *qdepthwise {
	fold, bias := foldBN(bn)
	q, ws := quantizeRows(l.Weight.W.Data(), l.ch, l.kh*l.kw, fold)
	return &qdepthwise{w: q, ws: ws, bias: bias, ch: l.ch, kh: l.kh, kw: l.kw, stride: l.stride, pad: l.pad, relu6: relu6}
}

// qdwPixel is the generic (border-capable) depthwise accumulation for one
// output pixel, with taps outside the input skipped — the same loop the
// pre-blocked kernel ran for every pixel.
func qdwPixel(qplane, ker []int8, inH, inW, kh, kw, stride, pad, oy, ox int) int32 {
	iy0 := oy*stride - pad
	ix0 := ox*stride - pad
	var acc int32
	for ky := 0; ky < kh; ky++ {
		iy := iy0 + ky
		if iy < 0 || iy >= inH {
			continue
		}
		row := qplane[iy*inW:]
		kr := ker[ky*kw:]
		for kx := 0; kx < kw; kx++ {
			ix := ix0 + kx
			if ix >= 0 && ix < inW {
				acc += int32(row[ix]) * int32(kr[kx])
			}
		}
	}
	return acc
}

// interior3x3 returns the inclusive range of output positions along one
// axis whose three taps all fall inside an input of length in; lo > hi when
// there is none. Both depthwise kernels (int8 and the float32 plan) unroll
// exactly this range.
func interior3x3(in, out, stride, pad int) (lo, hi int) {
	if in+pad < 3 {
		return 0, -1
	}
	return (pad + stride - 1) / stride, min((in-3+pad)/stride, out-1)
}

func (l *qdepthwise) forward(b *Int8Backend, x *tensor.Tensor) *tensor.Tensor {
	n, inH, inW := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := (inH+2*l.pad-l.kh)/l.stride + 1
	outW := (inW+2*l.pad-l.kw)/l.stride + 1
	l.out = reuseTensor(l.out, n, l.ch, outH, outW)
	y := l.out
	imgIn := l.ch * inH * inW
	imgOut := l.ch * outH * outW
	_, qplane := b.colBufs(inH * inW)

	// Inside the interior every 3×3 tap is in bounds and the unrolled loop
	// runs; outside it, the generic border path.
	oyLo, oyHi := interior3x3(inH, outH, l.stride, l.pad)
	oxLo, oxHi := interior3x3(inW, outW, l.stride, l.pad)
	unrolled := l.kh == 3 && l.kw == 3 && oyLo <= oyHi && oxLo <= oxHi

	for i := 0; i < n; i++ {
		src := x.Data()[i*imgIn:]
		dst := y.Data()[i*imgOut:]
		for c := 0; c < l.ch; c++ {
			plane := src[c*inH*inW : (c+1)*inH*inW]
			ax := absMaxScale(plane)
			quantizeTo(qplane, plane, ax)
			ker := l.w[c*l.kh*l.kw : (c+1)*l.kh*l.kw]
			deq := l.ws[c] * ax
			bias := l.bias[c]
			out := dst[c*outH*outW : (c+1)*outH*outW]
			if !unrolled {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						acc := qdwPixel(qplane, ker, inH, inW, l.kh, l.kw, l.stride, l.pad, oy, ox)
						out[oy*outW+ox] = qfinish(acc, deq, bias, l.relu6)
					}
				}
				continue
			}
			k0, k1, k2 := int32(ker[0]), int32(ker[1]), int32(ker[2])
			k3, k4, k5 := int32(ker[3]), int32(ker[4]), int32(ker[5])
			k6, k7, k8 := int32(ker[6]), int32(ker[7]), int32(ker[8])
			for oy := 0; oy < outH; oy++ {
				orow := out[oy*outW : (oy+1)*outW]
				if oy < oyLo || oy > oyHi {
					for ox := 0; ox < outW; ox++ {
						acc := qdwPixel(qplane, ker, inH, inW, 3, 3, l.stride, l.pad, oy, ox)
						orow[ox] = qfinish(acc, deq, bias, l.relu6)
					}
					continue
				}
				iy0 := oy*l.stride - l.pad
				r0 := qplane[iy0*inW : (iy0+1)*inW]
				r1 := qplane[(iy0+1)*inW : (iy0+2)*inW]
				r2 := qplane[(iy0+2)*inW : (iy0+3)*inW]
				for ox := 0; ox < oxLo; ox++ {
					acc := qdwPixel(qplane, ker, inH, inW, 3, 3, l.stride, l.pad, oy, ox)
					orow[ox] = qfinish(acc, deq, bias, l.relu6)
				}
				for ox := oxLo; ox <= oxHi; ox++ {
					ix0 := ox*l.stride - l.pad
					acc := k0*int32(r0[ix0]) + k1*int32(r0[ix0+1]) + k2*int32(r0[ix0+2]) +
						k3*int32(r1[ix0]) + k4*int32(r1[ix0+1]) + k5*int32(r1[ix0+2]) +
						k6*int32(r2[ix0]) + k7*int32(r2[ix0+1]) + k8*int32(r2[ix0+2])
					orow[ox] = qfinish(acc, deq, bias, l.relu6)
				}
				for ox := oxHi + 1; ox < outW; ox++ {
					acc := qdwPixel(qplane, ker, inH, inW, 3, 3, l.stride, l.pad, oy, ox)
					orow[ox] = qfinish(acc, deq, bias, l.relu6)
				}
			}
		}
	}
	return y
}

// qresidual wraps a quantized body with the identity skip.
type qresidual struct {
	body []qop

	out *tensor.Tensor // pooled output, reused across Infer calls
}

func (l *qresidual) forward(b *Int8Backend, x *tensor.Tensor) *tensor.Tensor {
	y := x
	for _, op := range l.body {
		y = op.forward(b, y)
	}
	l.out = reuseTensor(l.out, y.Shape()...)
	out := l.out.Data()
	yd, xd := y.Data(), x.Data()
	for i, v := range yd {
		out[i] = v + xd[i]
	}
	return l.out
}

// qpool is float global average pooling: a handful of adds per channel is
// not worth a quantization error.
type qpool struct {
	out *tensor.Tensor // pooled output, reused across Infer calls
}

func (l *qpool) forward(_ *Int8Backend, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	l.out = reuseTensor(l.out, n, c)
	y := l.out
	hw := h * w
	for i := 0; i < n; i++ {
		avgPoolImage(y.Data()[i*c:(i+1)*c], x.Data()[i*c*hw:(i+1)*c*hw], hw)
	}
	return y
}

// avgPoolImage is GlobalAvgPool.Forward for one image: dst[j] is the mean of
// plane j of src, summed in order and scaled by 1/hw.
func avgPoolImage(dst, src []float32, hw int) {
	inv := 1 / float32(hw)
	for j := range dst {
		var s float32
		for _, v := range src[j*hw : (j+1)*hw] {
			s += v
		}
		dst[j] = s * inv
	}
}

// qdense is an int8 dense layer with float bias and optional ReLU.
type qdense struct {
	w       []int8    // (out, in)
	ws      []float32 // per-output-row weight scale
	bias    []float32
	in, out int
	relu    bool

	y *tensor.Tensor // pooled output, reused across Infer calls
}

func newQDense(d *Dense, relu bool) *qdense {
	q, ws := quantizeRows(d.Weight.W.Data(), d.out, d.in, nil)
	bias := make([]float32, d.out)
	copy(bias, d.Bias.W.Data())
	return &qdense{w: q, ws: ws, bias: bias, in: d.in, out: d.out, relu: relu}
}

func (l *qdense) apply(b *Int8Backend, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	l.y = reuseTensor(l.y, n, l.out)
	y := l.y
	qrow := b.rowBuf(l.in)
	for i := 0; i < n; i++ {
		row := x.Data()[i*l.in : (i+1)*l.in]
		ax := absMaxScale(row)
		quantizeTo(qrow, row, ax)
		out := y.Data()[i*l.out : (i+1)*l.out]
		qgemv(out, l.w, qrow, l.out, l.in, l.ws, ax, l.bias, l.relu)
	}
	return y
}

// qgemv is the dense-layer micro-kernel: 4 output rows share each loaded
// activation byte. Same exact-int32 argument as qgemm, so it matches the
// scalar reference bit for bit.
func qgemv(dst []float32, w, qrow []int8, rows, k int, ws []float32, ax float32, bias []float32, relu bool) {
	var o int
	for o = 0; o+4 <= rows; o += 4 {
		w0 := w[(o+0)*k : (o+1)*k]
		w1 := w[(o+1)*k : (o+2)*k]
		w2 := w[(o+2)*k : (o+3)*k]
		w3 := w[(o+3)*k : (o+4)*k]
		var s0, s1, s2, s3 int32
		for j, xq := range qrow {
			xv := int32(xq)
			s0 += int32(w0[j]) * xv
			s1 += int32(w1[j]) * xv
			s2 += int32(w2[j]) * xv
			s3 += int32(w3[j]) * xv
		}
		dst[o] = denseFinish(s0, ws[o]*ax, bias[o], relu)
		dst[o+1] = denseFinish(s1, ws[o+1]*ax, bias[o+1], relu)
		dst[o+2] = denseFinish(s2, ws[o+2]*ax, bias[o+2], relu)
		dst[o+3] = denseFinish(s3, ws[o+3]*ax, bias[o+3], relu)
	}
	for ; o < rows; o++ {
		wrow := w[o*k : (o+1)*k]
		var acc int32
		for j, wv := range wrow {
			acc += int32(wv) * int32(qrow[j])
		}
		dst[o] = denseFinish(acc, ws[o]*ax, bias[o], relu)
	}
}

// denseFinish dequantizes one dense accumulator with the optional plain ReLU.
func denseFinish(acc int32, deq, bias float32, relu bool) float32 {
	v := float32(acc)*deq + bias
	if relu && v < 0 {
		v = 0
	}
	return v
}
