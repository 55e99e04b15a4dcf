package nn

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/tensor"
)

// inferPlan is the compiled, read-only inference program of a backbone: the
// fused Conv→BN[+ReLU6] / Residual / GlobalAvgPool ops walkFused finds, each
// wired to the ping-pong buffers of a one-image activation arena, run one
// image at a time. The plan holds only what compilation decides — the ops and
// their weights, the buffer wiring, and which BatchNorm each float32 op's
// epilogue reads — and an Infer call writes nothing in it: everything a call
// writes is the caller's Scratch. One plan therefore serves any number of
// concurrent callers, each with its own scratch, and a compiled runtime holds
// its weights and nothing that grows with its callers. A quantized plan runs
// the int8 kernels of quantize.go in place of the float32 convolutions,
// dequantizing into the same float32 arena, and shares the executor, the
// residual add and the pool.
//
// The plan's kernels are the only float32 forward arithmetic there is: the
// layers' own Forward runs gemmBN, im2colPlanar, the depthwise op, the pool
// and denseInfer too, with an identity epilogue, and eval-mode BatchNorm finishes
// through bnAct. A fused op therefore computes bit for bit what the eval-mode
// Forward of its layers does; layer_ref_test.go keeps the scalar reference
// both are diffed against. Weights are read from the live layers, and every
// call evaluates the BatchNorm transforms from them into its scratch, so
// training between two calls is never stale.
type inferPlan struct {
	quantized bool // convolutions compile to the int8 ops of quantize.go
	steps     []planStep
	bns       []*BatchNorm // the BatchNorm of epilogue slot i, evaluated into Scratch.affines[i] per call
	nbufs     int          // activation buffers the steps are wired to
	held      []bool       // compile time only: buffers pinned as a residual's skip input
	cur       int          // buffer holding the latest output: the next op's input while compiling (-1: the image), the backbone's result afterwards
}

// planStep is one op with its arena wiring. src -1 reads the input image;
// an in-place op has src == dst.
type planStep struct {
	op       planOp
	src, dst int
}

// planOp computes one image's output for an input of shape (c, h, w), with
// whatever it writes besides dst in the caller's scratch.
type planOp interface {
	outShape(c, h, w int) (int, int, int)
	run(sc *Scratch, dst, src []float32, c, h, w int)
}

// Scratch is everything an Infer call writes: the activation arena and each
// step's geometry at the current input resolution, the im2col and quantized
// panels and the depthwise load masks, the per-call BatchNorm transforms, and
// the (N, width) head tensors. A compiled backend writes nothing else, so a
// scratch is what makes a call private: any number of goroutines may infer
// through one backend at once, each in a scratch of its own. A scratch is not
// tied to a backend — one serves every runtime and input resolution in turn,
// growing to the largest it has run — but it is for one call at a time. The
// zero value is ready to use; it allocates on first use.
type Scratch struct {
	bufs    [][]float32 // activation arena, one image deep; buffer i holds the largest output wired to it
	geom    []stepGeom  // each step's geometry at the current input resolution
	affines []bnAffine  // the float32 plan's BatchNorm transforms, evaluated from the live layers per call
	col     []float32   // im2col panel of the non-pointwise convolutions; a quantized plan's depthwise planes
	dwMasks []uint32    // lane masks of the vector depthwise kernel's loads,
	dwGeom  [4]int      // for rows of this geometry (dwLoadMasks)
	qpanel  []int8      // quantized plan only: the quantized panel, plane or row a kernel reads
	qacc    []int32     // quantized plan only: a dense row's int32 sums (qgemv)
	// Quantized plan only: for each buffer, each channel's absMaxBits, which
	// the step that writes the buffer records while its output is in cache;
	// and the records of the running step's input (nil for the image, which
	// nothing records) and output.
	amax          [][]uint32
	inMax, outMax []uint32

	feat          *tensor.Tensor // (N, features) backbone output
	embed, logits *tensor.Tensor // dense-head outputs
	prob          *tensor.Tensor // softmax of logits
}

// recordStripe is how many outputs a quantized step computes before it
// records their planes: few enough that they are still in the first-level
// cache when it reads them back.
const recordStripe = 1 << 12

// stepGeom is one step's input shape and output channels and length.
type stepGeom struct{ c, h, w, outC, outLen int }

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
	for dst < p.nbufs && (dst == p.cur || p.held[dst]) {
		dst++
	}
	if dst == p.nbufs {
		p.nbufs++
		p.held = append(p.held, false)
	}
	p.steps = append(p.steps, planStep{op: op, src: p.cur, dst: dst})
	p.cur = dst
}

// epilogue assigns bn the next per-call transform slot.
func (p *inferPlan) epilogue(bn *BatchNorm) epilogue {
	p.bns = append(p.bns, bn)
	return epilogue{slot: len(p.bns) - 1}
}

func (p *inferPlan) conv(c *Conv2D, bn *BatchNorm) {
	if p.quantized {
		p.emit(newQConv(c, bn, bn.ReLU6))
		return
	}
	p.emit(&planConv{l: c, epilogue: p.epilogue(bn)})
}

func (p *inferPlan) depthwise(l *DepthwiseConv2D, bn *BatchNorm) {
	if p.quantized {
		p.emit(newQDepthwise(l, bn, bn.ReLU6))
		return
	}
	p.emit(&planDepthwise{l: l, epilogue: p.epilogue(bn)})
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

// features runs the backbone over a batch (N, C, H, W) in sc and returns its
// per-image outputs as an (N, features) tensor owned by sc.
func (p *inferPlan) features(sc *Scratch, x *tensor.Tensor) *tensor.Tensor {
	checkRank(x, 4, "Infer")
	n, inC, inH, inW := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	sc.affines = resize(sc.affines, len(p.bns))
	for i, bn := range p.bns {
		sc.affines[i].eval(bn, bn.ReLU6)
	}
	outLen := sc.size(p, inC, inH, inW)
	sc.feat = tensor.Reuse(sc.feat, n, outLen)

	imgLen := inC * inH * inW
	for i := 0; i < n; i++ {
		img := x.Data()[i*imgLen : (i+1)*imgLen]
		for j := range p.steps {
			p.step(sc, j, img)
		}
		copy(sc.feat.Data()[i*outLen:(i+1)*outLen], sc.bufs[p.cur][:outLen])
	}
	sc.inMax, sc.outMax = nil, nil
	return sc.feat
}

// step runs step j on the image img (when it reads the image) in sc, whose
// geometry is set for it. A quantized plan's step gets the records of the
// buffers it reads and writes.
func (p *inferPlan) step(sc *Scratch, j int, img []float32) {
	s, g := p.steps[j], &sc.geom[j]
	sc.inMax, sc.outMax = nil, nil
	if p.quantized {
		sc.outMax = sc.amax[s.dst]
	}
	src := img
	if s.src >= 0 {
		src = sc.bufs[s.src][:g.c*g.h*g.w]
		if p.quantized {
			sc.inMax = sc.amax[s.src]
		}
	}
	s.op.run(sc, sc.bufs[s.dst][:g.outLen], src, g.c, g.h, g.w)
}

// size sets every step's geometry for an input of shape (c, h, w), grows each
// arena buffer to the largest output wired to it (and, for a quantized plan,
// its record to the most channels), and returns the backbone's output length.
// Every kernel writes its full output and every quantized step its record, so
// what a buffer held at another resolution or for another plan cannot leak.
func (sc *Scratch) size(p *inferPlan, c, h, w int) int {
	sc.geom = resize(sc.geom, len(p.steps))
	for i, s := range p.steps {
		g := &sc.geom[i]
		g.c, g.h, g.w = c, h, w
		c, h, w = s.op.outShape(c, h, w)
		g.outC, g.outLen = c, c*h*w
	}
	sc.bufs = resize(sc.bufs, p.nbufs)
	if p.quantized {
		sc.amax = resize(sc.amax, p.nbufs)
	}
	for b := range sc.bufs {
		need, channels := 0, 0
		for i, s := range p.steps {
			if s.dst == b {
				need, channels = max(need, sc.geom[i].outLen), max(channels, sc.geom[i].outC)
			}
		}
		if len(sc.bufs[b]) < need {
			sc.bufs[b] = make([]float32, need)
		}
		if p.quantized && len(sc.amax[b]) < channels {
			sc.amax[b] = make([]uint32, channels)
		}
	}
	return c * h * w
}

// resize returns s with length n, reallocated only when its capacity is
// short; elements past the old length keep what they held.
func resize[T any](s []T, n int) []T {
	if s = s[:cap(s)]; len(s) < n {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// colBuf returns the im2col scratch, grown to hold n values.
func (sc *Scratch) colBuf(n int) []float32 {
	if cap(sc.col) < n {
		sc.col = make([]float32, n)
	}
	return sc.col[:n]
}

// inScale is absMaxScale of plane c of the running step's input, taken from
// its record when there is one.
func (sc *Scratch) inScale(c int, plane []float32) float32 {
	if sc.inMax != nil {
		return scaleOf(sc.inMax[c])
	}
	return absMaxScale(plane)
}

// panel returns the quantized scratch, grown to hold n values.
func (sc *Scratch) panel(n int) []int8 {
	if cap(sc.qpanel) < n {
		sc.qpanel = make([]int8, n)
	}
	return sc.qpanel[:n]
}

// acc returns the int32 scratch, grown to hold n values.
func (sc *Scratch) acc(n int) []int32 {
	if cap(sc.qacc) < n {
		sc.qacc = make([]int32, n)
	}
	return sc.qacc[:n]
}

// probs returns the softmax of the scratch's logits in the Backend wire
// shape, the one slice an Infer call allocates.
func (sc *Scratch) probs() []float64 {
	sc.prob = softmaxInto(tensor.Reuse(sc.prob, sc.logits.Dim(0), sc.logits.Dim(1)), sc.logits)
	return flatProbs(sc.prob)
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

// bnAffine is a fused epilogue's transform: y = x*scale + shift per channel,
// then ReLU6's clamp when relu6 is set.
type bnAffine struct {
	relu6        bool
	scale, shift []float32
}

// newBNAffine returns bn's eval-mode transform as it stands now.
func newBNAffine(bn *BatchNorm, relu6 bool) *bnAffine {
	a := new(bnAffine)
	a.eval(bn, relu6)
	return a
}

// eval evaluates bn's eval-mode transform into a, reusing its slices.
func (a *bnAffine) eval(bn *BatchNorm, relu6 bool) {
	a.relu6 = relu6
	a.scale, a.shift = resize(a.scale, bn.ch), resize(a.shift, bn.ch)
	for c := range a.scale {
		a.scale[c], a.shift[c] = bn.evalAffine(c)
	}
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

// identityAffine is the epilogue of a bare layer's Forward: bnAct(s, 1, 0,
// false) is s for every sum a kernel produces, because a sum started from +0
// is never -0.
func identityAffine(ch int) *bnAffine {
	a := &bnAffine{scale: make([]float32, ch), shift: make([]float32, ch)}
	for c := range a.scale {
		a.scale[c] = 1
	}
	return a
}

// epilogue is where a convolution op finds its transform: fixed on the op
// (training's identity), or else the one each call evaluates into slot of its
// scratch from the live BatchNorm the plan compiled in.
type epilogue struct {
	fixed *bnAffine
	slot  int
}

func (e epilogue) in(sc *Scratch) *bnAffine {
	if e.fixed != nil {
		return e.fixed
	}
	return &sc.affines[e.slot]
}

// bnAct finishes one accumulator: BatchNorm.Forward's eval expression, then,
// when relu6 is set, its clamp to [0, 6] (+0 for -0, NaN kept).
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
	epilogue
}

func (o *planConv) outShape(_, h, w int) (int, int, int) {
	d := convDimsAt(o.l.dims, h, w)
	return o.l.outC, d.OutH(), d.OutW()
}

func (o *planConv) run(sc *Scratch, dst, src []float32, c, h, w int) {
	d := convDimsAt(o.l.dims, h, w)
	if c != d.InC {
		panic("nn: Infer: " + o.l.Weight.Name + ": input channel mismatch")
	}
	np := d.OutH() * d.OutW()
	k := d.InC * d.KH * d.KW
	a := o.in(sc)
	gemmBN(dst, o.l.Weight.W.Data(), sc.planes(src, d), o.l.outC, np, k, a.scale, a.shift, a.relu6)
}

// planes returns a convolution's input as the GEMM kernels read it, one
// channel-major plane of output pixels per tap: a 1×1 convolution's input as
// it stands, any other's im2colPlanar panel in the scratch.
func (sc *Scratch) planes(src []float32, d tensor.ConvDims) []float32 {
	if pointwise(d) {
		return src
	}
	col := sc.colBuf(d.InC * d.KH * d.KW * d.OutH() * d.OutW())
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
	if sameGeometry(d) {
		im2colSame(dst, src, d)
		return
	}
	im2colGeneric(dst, src, d)
}

// sameGeometry reports a stride-1 convolution whose output is its input's
// size, whose panel im2colSame lays out.
func sameGeometry(d tensor.ConvDims) bool {
	return d.StrideH == 1 && d.StrideW == 1 && d.OutH() == d.InH && d.OutW() == d.InW
}

// im2colSame is im2colPlanar of a stride-1 convolution whose output is its
// input's size. Tap (c, ky, kx)'s plane is then input plane c shifted by
// (ky-PadH, kx-PadW): one copy of the rows that stay inside the input, then
// +0 over the rows outside it and over the columns the shift wrapped into
// the neighbouring row.
func im2colSame(dst, src []float32, d tensor.ConvDims) {
	h, w := d.InH, d.InW
	hw := h * w
	dst = dst[:d.InC*d.KH*d.KW*hw]
	for c := 0; c < d.InC; c++ {
		plane := src[c*hw : (c+1)*hw]
		for ky := 0; ky < d.KH; ky++ {
			dy := ky - d.PadH
			// Output rows [top, bottom) read inside the input.
			top, bottom := max(0, -dy), min(h, h-dy)
			for kx := 0; kx < d.KW; kx++ {
				dx := kx - d.PadW
				out := dst[:hw]
				dst = dst[hw:]
				// out[i] = plane[i+off] for the outputs [lo, hi) of the rows
				// inside that read inside the plane: every tap that is not
				// padding, and the wrapped columns.
				off := dy*w + dx
				lo, hi := max(top*w, -off), min(bottom*w, hw-off)
				if lo >= hi {
					clear(out)
					continue
				}
				clear(out[:lo])
				copy(out[lo:hi], plane[lo+off:])
				clear(out[hi:])
				if dx == 0 {
					continue
				}
				for y := top; y < bottom; y++ {
					row := out[y*w : (y+1)*w]
					if dx > 0 {
						clear(row[max(0, w-dx):])
					} else {
						clear(row[:min(w, -dx)])
					}
				}
			}
		}
	}
}

// im2colGeneric is im2colPlanar of any geometry, a row of taps at a time.
func im2colGeneric(dst, src []float32, d tensor.ConvDims) {
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
					if lo == hi { // every column of this tap is padding
						continue
					}
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
	id := identities.Load()
	if id == nil || len(id.scale) < m {
		id = identityAffine(m)
		identities.Store(id)
	}
	gemmBN(dst, w, a, m, p, k, id.scale[:m], id.shift[:m], false)
}

// identities is the widest identity epilogue gemm has built, read-only once
// stored, so a training step's thousands of products build none. Two callers
// that grow it at once each run on their own; the narrower store is grown
// again by the next caller that needs more.
var identities atomic.Pointer[bnAffine]

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
	epilogue
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
func (o *planDepthwise) run(sc *Scratch, dst, src []float32, ch, inH, inW int) {
	l, a := o.l, o.in(sc)
	if ch != l.ch {
		panic("nn: Infer: " + l.Weight.Name + ": input channel mismatch")
	}
	_, outH, outW := o.outShape(ch, inH, inW)
	wt := l.Weight.W.Data()
	for c := 0; c < ch; c++ {
		if l.kh == 3 && l.kw == 3 {
			// The vector kernel takes the channels from c on that it can;
			// the one it stopped at, if any, is the Go loop's.
			c += dw3x3Vector(sc, dst[c*outH*outW:], src[c*inH*inW:], wt[c*9:], a.scale[c:], a.shift[c:], ch-c, inH, inW, outH, outW, l.stride, l.pad, a.relu6)
			if c == ch {
				break
			}
		}
		plane := src[c*inH*inW : (c+1)*inH*inW]
		out := dst[c*outH*outW : (c+1)*outH*outW]
		ker := wt[c*l.kh*l.kw : (c+1)*l.kh*l.kw]
		for i := range out {
			s := dwPixel(plane, ker, inH, inW, l.kh, l.kw, l.stride, l.pad, i/outW, i%outW)
			out[i] = bnAct(s, a.scale[c], a.shift[c], a.relu6)
		}
	}
}

// planAdd is the identity skip of a Residual: dst += skip, in place.
type planAdd struct{ skip int }

func (planAdd) outShape(c, h, w int) (int, int, int) { return c, h, w }

// run records the sums' planes in a quantized plan, a stripe of them at a
// time.
func (o planAdd) run(sc *Scratch, dst, _ []float32, c, h, w int) {
	skip := sc.bufs[o.skip][:len(dst)]
	if sc.outMax == nil {
		addInto(dst, skip)
		return
	}
	hw := h * w
	stripe := max(1, recordStripe/hw)
	for j := 0; j < c; j += stripe {
		j1 := min(j+stripe, c)
		addInto(dst[j*hw:j1*hw], skip[j*hw:])
		recordPlanes(sc.outMax[j:j1], dst[j*hw:], hw)
	}
}

// addInto adds src[:len(dst)] into dst: the vector kernel takes the whole
// vectors, the Go loop the rest.
func addInto(dst, src []float32) {
	src = src[:len(dst)]
	for i := addVector(dst, src); i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// planPool is GlobalAvgPool.Forward for one image: dst[j] is the mean of
// plane j of src, summed in order and scaled by 1/hw. The quantized plan pools
// in float32 too: a handful of adds per channel is not worth a quantization
// error. It records nothing: the dense head it feeds finds its own scales.
type planPool struct{}

func (planPool) outShape(c, _, _ int) (int, int, int) { return c, 1, 1 }

func (planPool) run(_ *Scratch, dst, src []float32, _, h, w int) {
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

// denseInfer is Dense.Forward without the training cache: y = x·Wᵀ + b over
// an (N, in) batch, each output the sum over the inputs in order from +0,
// then the bias, then +0 in place of anything not above 0 when d.ReLU is set.
// The output tensor is reused when it already has the right shape.
func denseInfer(y, x *tensor.Tensor, d *Dense) *tensor.Tensor {
	n := x.Dim(0)
	if x.Dim(1) != d.in {
		panic("nn: Infer: " + d.Weight.Name + ": input width mismatch")
	}
	y = tensor.Reuse(y, n, d.out)
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
			if d.ReLU && !(v > 0) {
				v = 0
			}
			out[j] = v
		}
	}
	return y
}
