package nn

import (
	"math"

	"repro/internal/tensor"
)

// inferPlan is the inference-only execution plan of a backbone: the fused
// Conv→BN→[ReLU6] / Residual / GlobalAvgPool ops walkFused finds, run one
// image at a time over a small arena of ping-pong buffers sized for the
// largest single-image activation. Nothing is allocated per layer and no
// layer's training cache (im2col panels, inputs, ReLU masks) is touched, so
// an inference-only replica holds its weights, the arena and nothing else.
// A quantized plan runs the int8 kernels of quantize.go in place of the
// float32 convolutions, dequantizing into the same float32 arena, and shares
// the executor, the residual add and the pool.
//
// The plan's kernels are the only float32 forward arithmetic there is: the
// layers' own Forward runs gemmBN, im2colPlanar, the depthwise op, the pool
// and denseInfer too, with an identity epilogue, and eval-mode BatchNorm finishes
// through bnAct. A fused op therefore computes bit for bit what the eval-mode
// Forward of its layers does; layer_ref_test.go keeps the scalar reference
// both are diffed against. Weights and BatchNorm statistics are read from the
// live layers on every call, so training between two calls is never stale.
type inferPlan struct {
	quantized bool // convolutions compile to the int8 ops of quantize.go
	steps     []planStep
	affines   []*bnAffine // every float32 step's BatchNorm transform, refreshed per call
	bufs      [][]float32 // activation arena, one image deep
	held      []bool      // compile time only: buffers pinned as a residual's skip input
	cur       int         // buffer holding the latest output: the next op's input while compiling (-1: the image), the backbone's result afterwards
	col       []float32   // im2col panel of the non-pointwise convolutions; a quantized plan's depthwise planes
	dwMasks   []uint32    // lane masks of the vector depthwise kernel's loads,
	dwGeom    [4]int      // for rows of this geometry (dwLoadMasks)
	qpanel    []int8      // quantized plan only: the quantized panel, plane or row a kernel reads

	feat          *tensor.Tensor // (N, features) backbone output, reused across calls
	embed, logits *tensor.Tensor // dense-head outputs of every backend's Infer, reused across calls
	prob          *tensor.Tensor // softmax of logits, reused across calls
}

// planStep is one op with its arena wiring. src -1 reads the input image;
// an in-place op has src == dst.
type planStep struct {
	op       planOp
	src, dst int

	// geometry at the current input resolution, set by features
	c, h, w int // input shape
	outLen  int
}

// planOp computes one image's output for an input of shape (c, h, w).
type planOp interface {
	outShape(c, h, w int) (int, int, int)
	run(p *inferPlan, dst, src []float32, c, h, w int)
}

// newInferPlan compiles a backbone layer graph, to the int8 kernels when
// quantized is set.
func newInferPlan(layers []Layer, quantized bool) *inferPlan {
	p := &inferPlan{quantized: quantized, cur: -1}
	walkFused(layers, p)
	if p.cur < 0 {
		panic("nn: compile: empty layer graph")
	}
	p.held = nil
	return p
}

// emit appends an op reading the current buffer and writing a free one.
func (p *inferPlan) emit(op planOp) {
	dst := 0
	for dst < len(p.bufs) && (dst == p.cur || p.held[dst]) {
		dst++
	}
	if dst == len(p.bufs) {
		p.bufs = append(p.bufs, nil)
		p.held = append(p.held, false)
	}
	p.steps = append(p.steps, planStep{op: op, src: p.cur, dst: dst})
	p.cur = dst
}

func (p *inferPlan) conv(c *Conv2D, bn *BatchNorm, relu6 bool) {
	if p.quantized {
		p.emit(newQConv(c, bn, relu6))
		return
	}
	op := &planConv{l: c, bnAffine: newBNAffine(bn, relu6)}
	p.affines = append(p.affines, &op.bnAffine)
	p.emit(op)
}

func (p *inferPlan) depthwise(l *DepthwiseConv2D, bn *BatchNorm, relu6 bool) {
	if p.quantized {
		p.emit(newQDepthwise(l, bn, relu6))
		return
	}
	op := &planDepthwise{l: l, bnAffine: newBNAffine(bn, relu6)}
	p.affines = append(p.affines, &op.bnAffine)
	p.emit(op)
}

// residual pins the block's input while the body runs, then adds it into the
// body's output in place.
func (p *inferPlan) residual(body []Layer) {
	skip := p.cur
	if skip < 0 {
		panic("nn: compile: residual block directly on the input image")
	}
	p.held[skip] = true
	walkFused(body, p)
	p.held[skip] = false
	p.steps = append(p.steps, planStep{op: planAdd{skip: skip}, src: p.cur, dst: p.cur})
}

func (p *inferPlan) pool() { p.emit(planPool{}) }

// features runs the backbone over a batch (N, C, H, W) and returns its
// per-image outputs as an (N, features) tensor owned by the plan.
func (p *inferPlan) features(x *tensor.Tensor) *tensor.Tensor {
	checkRank(x, 4, "Infer")
	n, inC, inH, inW := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	for _, a := range p.affines {
		a.refresh()
	}

	// Size the arena for this input resolution. Every kernel writes its full
	// output, so buffers carried over from another resolution cannot leak.
	maxLen := 0
	c, h, w := inC, inH, inW
	for i := range p.steps {
		s := &p.steps[i]
		s.c, s.h, s.w = c, h, w
		c, h, w = s.op.outShape(c, h, w)
		s.outLen = c * h * w
		if s.outLen > maxLen {
			maxLen = s.outLen
		}
	}
	outLen := c * h * w
	for i, b := range p.bufs {
		if cap(b) < maxLen {
			p.bufs[i] = make([]float32, maxLen)
		}
	}
	p.feat = reuseTensor(p.feat, n, outLen)

	imgLen := inC * inH * inW
	for i := 0; i < n; i++ {
		img := x.Data()[i*imgLen : (i+1)*imgLen]
		for _, s := range p.steps {
			src := img
			if s.src >= 0 {
				src = p.bufs[s.src][:s.c*s.h*s.w]
			}
			s.op.run(p, p.bufs[s.dst][:s.outLen], src, s.c, s.h, s.w)
		}
		copy(p.feat.Data()[i*outLen:(i+1)*outLen], p.bufs[p.cur])
	}
	return p.feat
}

// colBuf returns the im2col scratch, grown to hold n values.
func (p *inferPlan) colBuf(n int) []float32 {
	if cap(p.col) < n {
		p.col = make([]float32, n)
	}
	return p.col[:n]
}

// panel returns the quantized scratch, grown to hold n values.
func (p *inferPlan) panel(n int) []int8 {
	if cap(p.qpanel) < n {
		p.qpanel = make([]int8, n)
	}
	return p.qpanel[:n]
}

// reuseTensor returns t when it already has shape (n, width), otherwise a
// freshly allocated tensor: the (N, width) head tensors are rewritten in full
// on every call, so the previous call's can be reused.
func reuseTensor(t *tensor.Tensor, n, width int) *tensor.Tensor {
	if t != nil && t.Rank() == 2 && t.Dim(0) == n && t.Dim(1) == width {
		return t
	}
	return tensor.New(n, width)
}

// probs returns the softmax of the plan's logits in the Backend wire shape,
// the one slice an Infer call allocates.
func (p *inferPlan) probs() []float64 {
	p.prob = softmaxInto(reuseTensor(p.prob, p.logits.Dim(0), p.logits.Dim(1)), p.logits)
	return flatProbs(p.prob)
}

// convDimsAt is a convolution's geometry at input resolution (h, w).
func convDimsAt(d tensor.ConvDims, h, w int) tensor.ConvDims {
	d.InH, d.InW = h, w
	return d
}

// pointwise reports a 1×1 stride-1 unpadded convolution, whose im2col is
// only a transpose of the channel-major planes.
func pointwise(d tensor.ConvDims) bool {
	return d.KH == 1 && d.KW == 1 && d.StrideH == 1 && d.StrideW == 1 && d.PadH == 0 && d.PadW == 0
}

// bnAffine is the fused epilogue of a convolution: the following BatchNorm's
// eval-mode transform and the optional ReLU6.
type bnAffine struct {
	bn           *BatchNorm
	relu6        bool
	scale, shift []float32
}

func newBNAffine(bn *BatchNorm, relu6 bool) bnAffine {
	return bnAffine{bn: bn, relu6: relu6, scale: make([]float32, bn.ch), shift: make([]float32, bn.ch)}
}

// evalAffine returns channel c's eval-mode transform y = x*scale + shift
// from the running statistics. BatchNorm.Forward and the inference plan's
// fused epilogue both take it from here, so the two cannot round differently.
func (bn *BatchNorm) evalAffine(c int) (scale, shift float32) {
	g, b := bn.Gamma.W.Data()[c], bn.Beta.W.Data()[c]
	inv := float32(1 / math.Sqrt(float64(bn.RunningVar[c])+float64(bn.Eps)))
	mean := bn.RunningMean[c]
	return g * inv, b - float32(g*inv*mean)
}

// refresh re-derives the per-channel transform from the live layer.
func (a *bnAffine) refresh() {
	for c := range a.scale {
		a.scale[c], a.shift[c] = a.bn.evalAffine(c)
	}
}

// identityAffine is the epilogue of a bare layer's Forward: bnAct(s, 1, 0,
// false) is s for every sum a kernel produces, because a sum started from +0
// is never -0.
func identityAffine(ch int) bnAffine {
	a := bnAffine{scale: make([]float32, ch), shift: make([]float32, ch)}
	for c := range a.scale {
		a.scale[c] = 1
	}
	return a
}

// bnAct finishes one accumulator: BatchNorm.Forward's eval expression, then
// ReLU6.Forward's clamp.
func bnAct(s, scale, shift float32, relu6 bool) float32 {
	v := float32(s*scale) + shift
	if relu6 {
		v = min(max(v, 0), 6)
	}
	return v
}

// planConv is a fused Conv2D+BatchNorm(+ReLU6).
type planConv struct {
	l *Conv2D
	bnAffine
}

func (o *planConv) outShape(_, h, w int) (int, int, int) {
	d := convDimsAt(o.l.dims, h, w)
	return o.l.outC, d.OutH(), d.OutW()
}

func (o *planConv) run(p *inferPlan, dst, src []float32, c, h, w int) {
	d := convDimsAt(o.l.dims, h, w)
	if c != d.InC {
		panic("nn: Infer: " + o.l.Weight.Name + ": input channel mismatch")
	}
	np := d.OutH() * d.OutW()
	k := d.InC * d.KH * d.KW
	gemmBN(dst, o.l.Weight.W.Data(), p.planes(src, d), o.l.outC, np, k, o.scale, o.shift, o.relu6)
}

// planes returns a convolution's input as the GEMM kernels read it, one
// channel-major plane of output pixels per tap: a 1×1 convolution's input as
// it stands, any other's im2colPlanar panel in the plan's scratch.
func (p *inferPlan) planes(src []float32, d tensor.ConvDims) []float32 {
	if pointwise(d) {
		return src
	}
	col := p.colBuf(d.InC * d.KH * d.KW * d.OutH() * d.OutW())
	im2colPlanar(col, src, d)
	return col
}

// im2colPlanar lays one image out as a convolution's taps: dst[j*np+pi] is
// tap j = (c, ky, kx) of output pixel pi, zero where the tap falls in the
// padding — np-long planes in the layout a 1×1 convolution's input already
// has, so gemmBN reads every convolution the same way. Row j of the weight
// matrix is the same tap, and Conv2D.Backward's weight gradient reads the
// panel back.
func im2colPlanar(dst, src []float32, d tensor.ConvDims) {
	outH, outW := d.OutH(), d.OutW()
	dst = dst[:d.InC*d.KH*d.KW*outH*outW]
	for c := 0; c < d.InC; c++ {
		plane := src[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				// Output columns [lo, hi) read inside the input row.
				lo, hi := 0, outW
				for lo < hi && lo*d.StrideW-d.PadW+kx < 0 {
					lo++
				}
				for hi > lo && (hi-1)*d.StrideW-d.PadW+kx >= d.InW {
					hi--
				}
				for oy := 0; oy < outH; oy++ {
					orow := dst[oy*outW : (oy+1)*outW]
					iy := oy*d.StrideH - d.PadH + ky
					if iy < 0 || iy >= d.InH {
						clear(orow)
						continue
					}
					clear(orow[:lo])
					clear(orow[hi:])
					row := plane[iy*d.InW : (iy+1)*d.InW]
					ix := lo*d.StrideW - d.PadW + kx
					if d.StrideW == 1 {
						copy(orow[lo:hi], row[ix:])
						continue
					}
					for ox := lo; ox < hi; ox++ {
						orow[ox] = row[ix]
						ix += d.StrideW
					}
				}
				dst = dst[outH*outW:]
			}
		}
	}
}

// gemmBN computes dst[c*p+pi] = bnAct(Σ_j w[c*k+j]·a[j*p+pi], scale[c],
// shift[c]) for outC output channels over p pixels, the activations in k
// channel-major planes: a 1×1 convolution's input as it stands, any other
// convolution's im2colPlanar panel.
//
// Every output is the plain sum over j = 0..k-1 in order from +0, multiply
// and add rounded separately, so it is the same bits whichever kernel
// computes it: the vector kernel takes the whole 4-channel × 16-pixel tiles,
// one output pixel to a lane, and the Go kernel the pixels and channels it
// leaves. Training's products are this with the identity epilogue (gemm).
func gemmBN(dst, w, a []float32, outC, p, k int, scale, shift []float32, relu6 bool) {
	cs, ps := gemmBNVector(dst, w, a, outC, p, k, scale, shift, relu6)
	gemmBNGo(dst, w, a, 0, cs, ps, p, k, scale, shift, relu6)
	gemmBNGo(dst, w, a, cs, outC, 0, p, k, scale, shift, relu6)
}

// gemm is gemmBN with the identity epilogue: dst (m, p) = w (m, k) · a (k, p),
// each output the ordered sum over k from +0. It is every matrix product of
// training: Conv2D's forward, and the weight and input gradients of Conv2D
// and Dense, whose operands are laid out for it by exact transposes. Such a
// sum is never -0, so a ±0 product leaves it unchanged: skipping zero
// operands could not change a bit, and gemm does not.
func gemm(dst, w, a []float32, m, p, k int) {
	id := identityAffine(m)
	gemmBN(dst, w, a, m, p, k, id.scale, id.shift, false)
}

// transpose writes the (cols, rows) transpose of the row-major (rows, cols)
// matrix src into dst.
func transpose(dst, src []float32, rows, cols int) {
	dst = dst[:rows*cols]
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// gemmBNGo is the portable kernel of gemmBN, over channels [c0, c1) and
// pixels [p0, p) of it.
//
// The micro-kernel tiles 4 output channels × 2 pixels. Its eight float32
// accumulators live in registers and break the one-accumulator add-latency
// chain of a dot product, but each is still the plain sum over j = 0..k-1 in
// order.
func gemmBNGo(dst, w, a []float32, c0, c1, p0, p, k int, scale, shift []float32, relu6 bool) {
	c := c0
	for ; c+4 <= c1; c += 4 {
		w0 := w[(c+0)*k : (c+1)*k]
		w1 := w[(c+1)*k : (c+2)*k]
		w2 := w[(c+2)*k : (c+3)*k]
		w3 := w[(c+3)*k : (c+4)*k]
		d0 := dst[(c+0)*p : (c+1)*p]
		d1 := dst[(c+1)*p : (c+2)*p]
		d2 := dst[(c+2)*p : (c+3)*p]
		d3 := dst[(c+3)*p : (c+4)*p]
		sc0, sc1, sc2, sc3 := scale[c], scale[c+1], scale[c+2], scale[c+3]
		sh0, sh1, sh2, sh3 := shift[c], shift[c+1], shift[c+2], shift[c+3]
		pi := p0
		for ; pi+2 <= p; pi += 2 {
			var s00, s10, s20, s30, s01, s11, s21, s31 float32
			o := pi
			for j, wv := range w0 {
				x0, x1 := a[o], a[o+1]
				o += p
				s00 += float32(wv * x0)
				s01 += float32(wv * x1)
				wv = w1[j]
				s10 += float32(wv * x0)
				s11 += float32(wv * x1)
				wv = w2[j]
				s20 += float32(wv * x0)
				s21 += float32(wv * x1)
				wv = w3[j]
				s30 += float32(wv * x0)
				s31 += float32(wv * x1)
			}
			d0[pi] = bnAct(s00, sc0, sh0, relu6)
			d1[pi] = bnAct(s10, sc1, sh1, relu6)
			d2[pi] = bnAct(s20, sc2, sh2, relu6)
			d3[pi] = bnAct(s30, sc3, sh3, relu6)
			d0[pi+1] = bnAct(s01, sc0, sh0, relu6)
			d1[pi+1] = bnAct(s11, sc1, sh1, relu6)
			d2[pi+1] = bnAct(s21, sc2, sh2, relu6)
			d3[pi+1] = bnAct(s31, sc3, sh3, relu6)
		}
		if pi < p { // odd trailing pixel
			var s0, s1, s2, s3 float32
			o := pi
			for j, wv := range w0 {
				xv := a[o]
				o += p
				s0 += float32(wv * xv)
				s1 += float32(w1[j] * xv)
				s2 += float32(w2[j] * xv)
				s3 += float32(w3[j] * xv)
			}
			d0[pi] = bnAct(s0, sc0, sh0, relu6)
			d1[pi] = bnAct(s1, sc1, sh1, relu6)
			d2[pi] = bnAct(s2, sc2, sh2, relu6)
			d3[pi] = bnAct(s3, sc3, sh3, relu6)
		}
	}
	// Channel remainder ((c1-c0) % 4): the scalar loop.
	for ; c < c1; c++ {
		wrow := w[c*k : (c+1)*k]
		out := dst[c*p : (c+1)*p]
		for pi := p0; pi < p; pi++ {
			var s float32
			o := pi
			for _, wv := range wrow {
				s += float32(wv * a[o])
				o += p
			}
			out[pi] = bnAct(s, scale[c], shift[c], relu6)
		}
	}
}

// planDepthwise is a fused DepthwiseConv2D+BatchNorm(+ReLU6).
type planDepthwise struct {
	l *DepthwiseConv2D
	bnAffine
}

func (o *planDepthwise) outShape(c, h, w int) (int, int, int) {
	l := o.l
	return c, (h+2*l.pad-l.kh)/l.stride + 1, (w+2*l.pad-l.kw)/l.stride + 1
}

// dwPixel is a depthwise convolution's sum for one output pixel: the taps
// that fall inside the input, added in ky,kx order from +0.
func dwPixel(plane, ker []float32, inH, inW, kh, kw, stride, pad, oy, ox int) float32 {
	iy0, ix0 := oy*stride-pad, ox*stride-pad
	var s float32
	for ky := max(0, -iy0); ky < min(kh, inH-iy0); ky++ {
		row, kr := plane[(iy0+ky)*inW:], ker[ky*kw:]
		for kx := max(0, -ix0); kx < min(kw, inW-ix0); kx++ {
			s += float32(row[ix0+kx] * kr[kx])
		}
	}
	return s
}

// run hands a 3×3 layer to the vector kernel where there is one; the Go loop
// is dwPixel over every output.
func (o *planDepthwise) run(p *inferPlan, dst, src []float32, ch, inH, inW int) {
	l := o.l
	if ch != l.ch {
		panic("nn: Infer: " + l.Weight.Name + ": input channel mismatch")
	}
	_, outH, outW := o.outShape(ch, inH, inW)
	wt := l.Weight.W.Data()
	for c := 0; c < ch; c++ {
		if l.kh == 3 && l.kw == 3 {
			// The vector kernel takes the channels from c on that it can;
			// the one it stopped at, if any, is the Go loop's.
			c += dw3x3Vector(p, dst[c*outH*outW:], src[c*inH*inW:], wt[c*9:], o.scale[c:], o.shift[c:], ch-c, inH, inW, outH, outW, l.stride, l.pad, o.relu6)
			if c == ch {
				break
			}
		}
		plane := src[c*inH*inW : (c+1)*inH*inW]
		out := dst[c*outH*outW : (c+1)*outH*outW]
		ker := wt[c*l.kh*l.kw : (c+1)*l.kh*l.kw]
		for i := range out {
			s := dwPixel(plane, ker, inH, inW, l.kh, l.kw, l.stride, l.pad, i/outW, i%outW)
			out[i] = bnAct(s, o.scale[c], o.shift[c], o.relu6)
		}
	}
}

// planAdd is the identity skip of a Residual: dst += skip, in place.
type planAdd struct{ skip int }

func (planAdd) outShape(c, h, w int) (int, int, int) { return c, h, w }

func (o planAdd) run(p *inferPlan, dst, _ []float32, _, _, _ int) {
	for i, v := range p.bufs[o.skip][:len(dst)] {
		dst[i] += v
	}
}

// planPool is GlobalAvgPool.Forward for one image: dst[j] is the mean of
// plane j of src, summed in order and scaled by 1/hw. The quantized plan pools
// in float32 too: a handful of adds per channel is not worth a quantization
// error.
type planPool struct{}

func (planPool) outShape(c, _, _ int) (int, int, int) { return c, 1, 1 }

func (planPool) run(_ *inferPlan, dst, src []float32, _, h, w int) {
	hw := h * w
	inv := 1 / float32(hw)
	for j := range dst {
		var s float32
		for _, v := range src[j*hw : (j+1)*hw] {
			s += v
		}
		dst[j] = s * inv
	}
}

// denseInfer is Dense.Forward (and ReLU.Forward when relu is set) without the
// training cache: y = x·Wᵀ + b over an (N, in) batch, each output the sum
// over the inputs in order from +0, then the bias. The output tensor is
// reused when it already has the right shape.
func denseInfer(y, x *tensor.Tensor, d *Dense, relu bool) *tensor.Tensor {
	n := x.Dim(0)
	if x.Dim(1) != d.in {
		panic("nn: Infer: " + d.Weight.Name + ": input width mismatch")
	}
	y = reuseTensor(y, n, d.out)
	wt, b := d.Weight.W.Data(), d.Bias.W.Data()
	for i := 0; i < n; i++ {
		xi := x.Data()[i*d.in : (i+1)*d.in]
		out := y.Data()[i*d.out : (i+1)*d.out]
		for j := range out {
			wj := wt[j*d.in : (j+1)*d.in]
			var s float32
			for q, xv := range xi {
				s += float32(xv * wj[q])
			}
			v := s + b[j]
			if relu && !(v > 0) {
				v = 0
			}
			out[j] = v
		}
	}
	return y
}
