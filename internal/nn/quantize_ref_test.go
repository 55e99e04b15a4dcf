package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// This file keeps everything the per-image int8 runtime replaced, as
// references it must reproduce bit for bit (integer accumulation is exact, so
// any difference is a bug, not noise):
//
//   - refQround / refQuantizeTo / refAbsMaxScale / refQfinish: the branchy
//     per-element passes. Nothing below calls the production helpers, so a
//     rewrite of those is never checked against itself.
//   - refInt8: the retired whole-batch graph — one tensor per op and batch,
//     scalar per-output-pixel loops, border-checked depthwise taps.
//   - refQgemm: the scalar triple loop every qgemm kernel is diffed against.

func refQround(v float32) int32 {
	if v >= 0 {
		return int32(v + 0.5)
	}
	return int32(v - 0.5)
}

func refQuantizeTo(dst []int8, src []float32, scale float32) {
	inv := 1 / scale
	for i, v := range src {
		q := refQround(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
}

func refAbsMaxScale(src []float32) float32 {
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

// refQfinish is the retired qfinish (relu6) and denseFinish (relu) in one.
func refQfinish(acc int32, deq, bias float32, relu, relu6 bool) float32 {
	v := float32(acc)*deq + bias
	if relu6 {
		if v < 0 {
			v = 0
		} else if v > 6 {
			v = 6
		}
	}
	if relu && v < 0 {
		v = 0
	}
	return v
}

func refQuantizeRows(w []float32, rows, k int, fold []float32) (q []int8, scales []float32) {
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
		scales[c] = refAbsMaxScale(row)
		refQuantizeTo(q[c*k:(c+1)*k], row, scales[c])
	}
	return q, scales
}

// refInt8 is the whole-batch quantized graph: every op maps an (N, …) tensor
// to a fresh (N, …) tensor. trace, when set, sees every convolution's input
// and output in execution order.
type refInt8 struct {
	ops         []refQOp
	embed, head *refQDense
	trace       func(op refQOp, in, out *tensor.Tensor)
}

type refQOp interface {
	forward(g *refInt8, x *tensor.Tensor) *tensor.Tensor
}

func newRefInt8(m *Model) *refInt8 {
	g := &refInt8{embed: newRefQDense(m.Embed, true), head: newRefQDense(m.Head, false)}
	walkFused(m.Backbone.Layers, g)
	return g
}

func (g *refInt8) conv(c *Conv2D, bn *BatchNorm) {
	outC, k := c.Weight.W.Dim(0), c.Weight.W.Dim(1)
	fold, bias := foldBN(bn)
	q, ws := refQuantizeRows(c.Weight.W.Data(), outC, k, fold)
	g.ops = append(g.ops, &refQConv{w: q, ws: ws, bias: bias, outC: outC, dims: c.dims, relu6: bn.ReLU6})
}

func (g *refInt8) depthwise(l *DepthwiseConv2D, bn *BatchNorm) {
	fold, bias := foldBN(bn)
	q, ws := refQuantizeRows(l.Weight.W.Data(), l.ch, l.kh*l.kw, fold)
	g.ops = append(g.ops, &refQDepthwise{w: q, ws: ws, bias: bias, ch: l.ch, kh: l.kh, kw: l.kw, stride: l.stride, pad: l.pad, relu6: bn.ReLU6})
}

func (g *refInt8) residual(body []Layer) {
	inner := &refInt8{}
	walkFused(body, inner)
	g.ops = append(g.ops, &refQResidual{body: inner.ops})
}

func (g *refInt8) pool() { g.ops = append(g.ops, refQPool{}) }

func (g *refInt8) run(ops []refQOp, x *tensor.Tensor) *tensor.Tensor {
	for _, op := range ops {
		y := op.forward(g, x)
		if _, isRes := op.(*refQResidual); g.trace != nil && !isRes {
			g.trace(op, x, y)
		}
		x = y
	}
	return x
}

// infer is the retired Int8Backend.Infer.
func (g *refInt8) infer(x *tensor.Tensor) []float64 {
	f := g.run(g.ops, x)
	return flatProbs(Softmax(g.head.apply(g.embed.apply(f))))
}

type refQConv struct {
	w     []int8
	ws    []float32
	bias  []float32
	outC  int
	dims  tensor.ConvDims
	relu6 bool
}

// forward is the original per-output-pixel scalar loop of qconv.forward.
func (l *refQConv) forward(_ *refInt8, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	d := l.dims
	d.InH, d.InW = x.Dim(2), x.Dim(3)
	outH, outW := d.OutH(), d.OutW()
	p := outH * outW
	k := d.InC * d.KH * d.KW
	y := tensor.New(n, l.outC, outH, outW)
	imgIn := d.InC * d.InH * d.InW
	colF := make([]float32, p*k)
	colQ := make([]int8, p*k)
	for i := 0; i < n; i++ {
		refIm2Col(colF, x.Data()[i*imgIn:(i+1)*imgIn], d)
		ax := refAbsMaxScale(colF)
		refQuantizeTo(colQ, colF, ax)
		dst := y.Data()[i*l.outC*p:]
		for c := 0; c < l.outC; c++ {
			wrow := l.w[c*k : (c+1)*k]
			deq := l.ws[c] * ax
			bias := l.bias[c]
			out := dst[c*p : (c+1)*p]
			for pi := 0; pi < p; pi++ {
				crow := colQ[pi*k : (pi+1)*k]
				var acc int32
				for j, wv := range wrow {
					acc += int32(wv) * int32(crow[j])
				}
				out[pi] = refQfinish(acc, deq, bias, false, l.relu6)
			}
		}
	}
	return y
}

type refQDepthwise struct {
	w      []int8
	ws     []float32
	bias   []float32
	ch     int
	kh, kw int
	stride int
	pad    int
	relu6  bool
}

// forward is the original bounds-checked per-pixel depthwise loop of
// qdepthwise.forward.
func (l *refQDepthwise) forward(_ *refInt8, x *tensor.Tensor) *tensor.Tensor {
	n, inH, inW := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := (inH+2*l.pad-l.kh)/l.stride + 1
	outW := (inW+2*l.pad-l.kw)/l.stride + 1
	y := tensor.New(n, l.ch, outH, outW)
	imgIn := l.ch * inH * inW
	imgOut := l.ch * outH * outW
	qplane := make([]int8, inH*inW)
	for i := 0; i < n; i++ {
		src := x.Data()[i*imgIn:]
		dst := y.Data()[i*imgOut:]
		for c := 0; c < l.ch; c++ {
			plane := src[c*inH*inW : (c+1)*inH*inW]
			ax := refAbsMaxScale(plane)
			refQuantizeTo(qplane, plane, ax)
			ker := l.w[c*l.kh*l.kw : (c+1)*l.kh*l.kw]
			deq := l.ws[c] * ax
			bias := l.bias[c]
			out := dst[c*outH*outW : (c+1)*outH*outW]
			idx := 0
			for oy := 0; oy < outH; oy++ {
				iy0 := oy*l.stride - l.pad
				for ox := 0; ox < outW; ox++ {
					ix0 := ox*l.stride - l.pad
					var acc int32
					for ky := 0; ky < l.kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						row := qplane[iy*inW:]
						kr := ker[ky*l.kw:]
						for kx := 0; kx < l.kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < inW {
								acc += int32(row[ix]) * int32(kr[kx])
							}
						}
					}
					out[idx] = refQfinish(acc, deq, bias, false, l.relu6)
					idx++
				}
			}
		}
	}
	return y
}

type refQResidual struct{ body []refQOp }

func (l *refQResidual) forward(g *refInt8, x *tensor.Tensor) *tensor.Tensor {
	y := g.run(l.body, x).Clone()
	y.AddScaled(1, x)
	return y
}

type refQPool struct{}

func (refQPool) forward(_ *refInt8, x *tensor.Tensor) *tensor.Tensor {
	return NewGlobalAvgPool().Forward(x, false)
}

type refQDense struct {
	w       []int8
	ws      []float32
	bias    []float32
	in, out int
	relu    bool
}

func newRefQDense(d *Dense, relu bool) *refQDense {
	q, ws := refQuantizeRows(d.Weight.W.Data(), d.out, d.in, nil)
	return &refQDense{w: q, ws: ws, bias: append([]float32(nil), d.Bias.W.Data()...), in: d.in, out: d.out, relu: relu}
}

// apply is the original scalar dense loop of qdense.apply.
func (l *refQDense) apply(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	y := tensor.New(n, l.out)
	qrow := make([]int8, l.in)
	for i := 0; i < n; i++ {
		row := x.Data()[i*l.in : (i+1)*l.in]
		ax := refAbsMaxScale(row)
		refQuantizeTo(qrow, row, ax)
		out := y.Data()[i*l.out : (i+1)*l.out]
		for o := 0; o < l.out; o++ {
			wrow := l.w[o*l.in : (o+1)*l.in]
			var acc int32
			for j, wv := range wrow {
				acc += int32(wv) * int32(qrow[j])
			}
			out[o] = refQfinish(acc, l.ws[o]*ax, l.bias[o], l.relu, false)
		}
	}
	return y
}

// quantTestModel builds a weight-deterministic micro model with non-trivial
// BatchNorm statistics so folding paths are exercised.
func quantTestModel(seed int64, inputHW int) *Model {
	rng := rand.New(rand.NewSource(seed))
	cfg := ModelConfig{InputHW: inputHW, Classes: 5, EmbedDim: 16, Width: 0.5}
	m := NewMobileNetV2Micro(rng, cfg)
	for _, l := range collectBN(m.Backbone) {
		for c := range l.RunningMean {
			l.RunningMean[c] = float32(rng.NormFloat64() * 0.2)
			l.RunningVar[c] = float32(0.5 + rng.Float64())
		}
	}
	return m
}

func randInput(rng *rand.Rand, n, c, hw int) *tensor.Tensor {
	x := tensor.New(n, c, hw, hw)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.Float64())
	}
	return x
}

func sameBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d want %d", name, got.Len(), want.Len())
	}
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("%s: element %d = %v, reference %v", name, i, v, want.Data()[i])
		}
	}
}

// runPlanOp runs one op of a plan over a whole batch, one image at a time as
// the executor does.
func runPlanOp(sc *Scratch, op planOp, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oc, oh, ow := op.outShape(c, h, w)
	y := tensor.New(n, oc, oh, ow)
	in, out := c*h*w, oc*oh*ow
	for i := 0; i < n; i++ {
		op.run(sc, y.Data()[i*out:(i+1)*out], x.Data()[i*in:(i+1)*in], c, h, w)
	}
	return y
}

// TestBlockedKernelsMatchScalarReference walks the full quantized graph op
// by op, running the plan's kernels and the pre-blocking scalar reference on
// identical inputs: every output element must match bit for bit. Odd batch
// and channel counts exercise the remainder paths of the tile.
func TestBlockedKernelsMatchScalarReference(t *testing.T) {
	for _, hw := range []int{15, 32} {
		m := quantTestModel(11, hw)
		b := NewInt8Backend(m)
		var convs []planOp
		for _, s := range b.plan.steps {
			switch s.op.(type) {
			case *qconv, *qdepthwise:
				convs = append(convs, s.op)
			}
		}
		ref := newRefInt8(m)
		sc := new(Scratch)
		rng := rand.New(rand.NewSource(13))
		for _, n := range []int{1, 3} {
			next := 0
			ref.trace = func(op refQOp, in, want *tensor.Tensor) {
				if _, isPool := op.(refQPool); isPool {
					return // float op, shared with the float32 plan
				}
				name := fmt.Sprintf("input %d batch %d conv %d (%T)", hw, n, next, convs[next])
				sameBits(t, name, runPlanOp(sc, convs[next], in), want)
				next++
			}
			f := ref.run(ref.ops, randInput(rng, n, 3, hw))
			if next != len(convs) {
				t.Fatalf("reference ran %d convolutions, the plan has %d", next, len(convs))
			}
			e := b.embed.apply(sc, nil, f)
			sameBits(t, "embed", e, ref.embed.apply(f))
			sameBits(t, "head", b.head.apply(sc, nil, e), ref.head.apply(e))
		}
	}
}

// TestInt8PlanMatchesWholeBatchGraph is the end-to-end invariance check of
// the per-image plan: one backend is reused across batch sizes and input
// resolutions, interleaved and each twice (arena reuse, odd planes whose
// depthwise borders dominate), and every photo's probabilities must equal,
// on the bit pattern, both its batch-1 result and the retired whole-batch
// graph's.
func TestInt8PlanMatchesWholeBatchGraph(t *testing.T) {
	for _, width := range []float64{0.4, 1.0} {
		m := refTestModel(71, width)
		b := NewInt8Backend(m)
		ref := newRefInt8(m)
		rng := rand.New(rand.NewSource(73))
		type shape struct{ n, hw int }
		shapes := []shape{{5, 31}, {24, 32}, {1, 17}, {5, 32}, {1, 31}, {24, 17}, {1, 32}, {5, 17}, {24, 31}}
		if testing.Short() {
			shapes = shapes[:5]
		}
		for _, s := range shapes {
			x := tensor.New(s.n, 3, s.hw, s.hw)
			x.RandUniform(rng, 0, 1)
			name := fmt.Sprintf("width %.1f batch %d input %d", width, s.n, s.hw)
			want := ref.infer(x)
			for rep := 0; rep < 2; rep++ {
				sameBits64(t, name, b.Infer(x), want)
			}
			per := 3 * s.hw * s.hw
			for i := 0; i < s.n; i += 4 {
				one := tensor.NewFrom(x.Data()[i*per:(i+1)*per], 1, 3, s.hw, s.hw)
				sameBits64(t, fmt.Sprintf("%s image %d alone", name, i), b.Infer(one), want[i*m.Classes:(i+1)*m.Classes])
			}
		}
	}
}

// randQGemm draws a random int8 GEMM problem.
func randQGemm(rng *rand.Rand, outC, p, k int) (w, col []int8, ws, bias []float32) {
	w = make([]int8, outC*k)
	col = make([]int8, p*k)
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	for i := range col {
		col[i] = int8(rng.Intn(255) - 127)
	}
	ws = make([]float32, outC)
	bias = make([]float32, outC)
	for i := range ws {
		ws[i] = float32(rng.Float64()*0.01 + 1e-4)
		bias[i] = float32(rng.NormFloat64())
	}
	return w, col, ws, bias
}

// panelOf interleaves a pixel-major (p, k) int8 panel — the retired kernels'
// layout — into the pair-interleaved one qgemm reads.
func panelOf(col []int8, p, k int) []int8 {
	panel := make([]int8, (k+1)&^1*p)
	for pi := 0; pi < p; pi++ {
		for j := 0; j < k; j++ {
			panel[(j/2*p+pi)*2+j%2] = col[pi*k+j]
		}
	}
	return panel
}

// qgemmOf runs qgemm on an unpacked (outC, k) weight matrix and a pixel-major
// (p, k) panel.
func qgemmOf(dst []float32, w, col []int8, outC, p, k int, ws []float32, ax float32, bias []float32, clamp float32) {
	qgemm(dst, packQMatrix(w, ws, outC, k), panelOf(col, p, k), p, ax, bias, clamp)
}

// refQgemm is the scalar triple loop over an unpacked (outC, k) weight matrix
// and a pixel-major (p, k) panel, finished by the branchy epilogue.
func refQgemm(dst []float32, w, col []int8, outC, p, k int, ws []float32, ax float32, bias []float32, relu, relu6 bool) {
	for c := 0; c < outC; c++ {
		for pi := 0; pi < p; pi++ {
			var acc int32
			for j := 0; j < k; j++ {
				acc += int32(w[c*k+j]) * int32(col[pi*k+j])
			}
			dst[c*p+pi] = refQfinish(acc, ws[c]*ax, bias[c], relu, relu6)
		}
	}
}

// modelGemmShapes are the 13 (outC, pixels, k) GEMMs of one default-width
// image: the stem, each block's 1×1 expansion and projection, the head conv.
var modelGemmShapes = [][3]int{
	{12, 1024, 27}, {12, 1024, 12}, {48, 1024, 12}, {16, 256, 48}, {64, 256, 16}, {16, 256, 64}, {64, 256, 16},
	{24, 64, 64}, {96, 64, 24}, {24, 64, 96}, {96, 64, 24}, {32, 16, 96}, {64, 16, 32},
}

// TestQGemmRemainderPaths runs qgemm beside the scalar triple loop with random
// and ±127-saturated operands under all three epilogues: on channel counts
// 1..8 over pixel counts either side of the Go kernel's 2-pixel tile and of
// the vector kernel's 16-pixel one, where every edge of both is hit, and on
// the model's own GEMM shapes, as a convolution and as a dense layer's single
// pixel.
func TestQGemmRemainderPaths(t *testing.T) {
	var shapes [][3]int
	for _, outC := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for _, p := range []int{1, 2, 3, 4, 5, 7, 16, 17, 18, 19, 35} {
			for _, k := range []int{1, 5, 27} {
				shapes = append(shapes, [3]int{outC, p, k})
			}
		}
	}
	for _, s := range modelGemmShapes {
		shapes = append(shapes, s, [3]int{s[0], 1, s[2]})
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range shapes {
		outC, p, k := s[0], s[1], s[2]
		for _, saturate := range []bool{false, true} {
			w, col, ws, bias := randQGemm(rng, outC, p, k)
			if saturate {
				for i := range w {
					w[i] = int8(127 - 254*(i/k%2))
				}
				for i := range col {
					col[i] = -127
				}
			}
			for mode, clamp := range []float32{0, 6, float32(math.Inf(1))} {
				got, want := make([]float32, outC*p), make([]float32, outC*p)
				qgemmOf(got, w, col, outC, p, k, ws, 0.003, bias, clamp)
				refQgemm(want, w, col, outC, p, k, ws, 0.003, bias, mode == 2, mode == 1)
				sameBits32(t, fmt.Sprintf("outC=%d p=%d k=%d saturate=%v clamp=%v", outC, p, k, saturate, clamp), got, want)
			}
		}
	}
}

// TestQGemmAccumulatorLimits pins the int32 accumulators at their limits:
// qgemm must deliver k·(±127)² for every sign pairing of channel and pixel,
// over odd channel and pixel counts, with every sum small enough that float32
// holds it exactly; maxReduction must be the deepest k whose sum fits an
// int32; and a deeper layer must not compile.
func TestQGemmAccumulatorLimits(t *testing.T) {
	fill := func(n int, v int8) []int8 {
		s := make([]int8, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	// Channel c against pixel pi sums to k·sign(c)·sign(pi)·127·127.
	sign := func(i int) int { return 1 - 2*(i%3%2) }
	for _, outC := range []int{1, 2, 3, 5, 6, 7} {
		for _, p := range []int{1, 2, 3, 5} {
			for _, k := range []int{1, 2, 1000} {
				var w, col []int8
				ws, bias := make([]float32, outC), make([]float32, outC)
				for c := 0; c < outC; c++ {
					w = append(w, fill(k, int8(127*sign(c)))...)
					ws[c] = 1
				}
				for pi := 0; pi < p; pi++ {
					col = append(col, fill(k, int8(127*sign(pi+1)))...)
				}
				got := make([]float32, outC*p)
				qgemmOf(got, w, col, outC, p, k, ws, 1, bias, 0)
				for c := 0; c < outC; c++ {
					for pi := 0; pi < p; pi++ {
						if want := float32(k * 127 * 127 * sign(c) * sign(pi+1)); got[c*p+pi] != want {
							t.Fatalf("outC=%d p=%d k=%d: channel %d pixel %d = %v want %v", outC, p, k, c, pi, got[c*p+pi], want)
						}
					}
				}
			}
		}
	}
	if maxReduction*127*127 >= 1<<31 || (maxReduction+1)*127*127 < 1<<31 {
		t.Fatalf("maxReduction %d is not the largest k with k·127² < 2³¹", maxReduction)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a reduction deeper than maxReduction compiled")
		}
	}()
	checkReduction("too deep", maxReduction+1)
}

// edgeFloats are the inputs where a re-expressed rounding, clamp or abs-max
// could differ from the branchy one: signed zeros, the rounding ties and the
// values one ulp either side of them, the ±127 clamp edges, subnormals, huge
// values and infinities.
func edgeFloats() []float32 {
	var out []float32
	for _, v := range []float32{0, 0.25, 0.5, 1, 1.5, 2.5, 63.5, 126.5, 127, 127.5, 128, 1e-45, 1e-39, 1.1754944e-38, 8388607.5, 8388608, 2147483520, 2147483648, 3e38, float32(math.Inf(1))} {
		for _, n := range []float32{math.Nextafter32(v, -1), v, math.Nextafter32(v, float32(math.Inf(1)))} {
			out = append(out, n, -n)
		}
	}
	return out
}

// TestQuantizeHelpersMatchBranchyReference byte-diffs the branch-free qround,
// quantizeTo, quantizePanel and absMaxScale against the branchy bodies
// they replaced, over edgeFloats and a random sweep. NaN policy: a NaN input
// is outside the backend's contract (images and weights are finite).
// quantizeTo still maps a NaN element to whatever the reference maps it to
// (both convert the same NaN to int32), but absMaxScale returns NaN where the
// reference skipped the element — a poisoned tensor is scaled by NaN instead
// of by its finite neighbours.
func TestQuantizeHelpersMatchBranchyReference(t *testing.T) {
	vals := edgeFloats()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		vals = append(vals, float32(rng.NormFloat64()*100), math.Float32frombits(rng.Uint32()&^(0xff<<23)|uint32(rng.Intn(255))<<23))
	}
	nan := float32(math.NaN())
	for _, v := range append(vals, nan, -nan) {
		if got, want := qround(v), refQround(v); got != want {
			t.Fatalf("qround(%v / %#x) = %d, reference %d", v, math.Float32bits(v), got, want)
		}
	}
	withNaN := append(append([]float32(nil), vals...), nan, -nan)
	for _, scale := range []float32{1, 0.5, 1.0 / 127, 0.0123, 3e38, 1e-45, float32(math.Inf(1))} {
		got, want := make([]int8, len(withNaN)), make([]int8, len(withNaN))
		quantizeTo(got, withNaN, scale)
		refQuantizeTo(want, withNaN, scale)
		panel := make([]int8, 2*len(withNaN)) // one tap: every pixel's pair is (value, 0)
		quantizePanel(panel, withNaN, len(withNaN), 1, scale)
		for i := range want {
			if got[i] != want[i] || panel[2*i] != want[i] || panel[2*i+1] != 0 {
				t.Fatalf("scale %v: quantize(%v) = %d (panel pair %d, %d), reference %d", scale, withNaN[i], got[i], panel[2*i], panel[2*i+1], want[i])
			}
		}
	}
	if got := absMaxScale(nil); got != 1 || refAbsMaxScale(nil) != 1 {
		t.Fatalf("absMaxScale of nothing = %v", got)
	}
	for i := range vals {
		for _, window := range [][]float32{vals[i : i+1], vals[i:min(i+7, len(vals))], {0, vals[i], float32(math.Copysign(0, -1))}} {
			got, want := absMaxScale(window), refAbsMaxScale(window)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("absMaxScale(%v) = %v (%#x), reference %v (%#x)", window, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
	if got := absMaxScale([]float32{1, nan, 3}); got == got {
		t.Fatalf("absMaxScale over a NaN = %v, want NaN", got)
	}
	if got := refAbsMaxScale([]float32{1, nan, 3}); got != 3.0/127 {
		t.Fatalf("reference absMaxScale over a NaN = %v, want it skipped", got)
	}
}

// TestQFinishMatchesBranchyReference sweeps the dequantizing epilogue. The
// branch-free clamp equals the branchy one on the bit pattern except at
// v = -0, which the branchy `v < 0` let through and max(v, 0) turns into +0.
// That needs an underflowed product and a -0 bias, and it cannot reach a
// probability: a clamped activation is only ever read by abs-max, by qround
// (both zeros round to 0) and by sums that start from +0, and the head's
// logits have no activation. A NaN stays a NaN, though not the same one.
func TestQFinishMatchesBranchyReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	accs := []int32{0, 1, -1, 127, -127, 16129, -16129, 1 << 24, -(1 << 24), 1<<24 + 1, math.MaxInt32, math.MinInt32}
	deqs := []float32{1, 1e-3, 3.7e-5, 6.0 / 16129, 1e-45, 1e-39, 3e38, 0, inf}
	biases := []float32{0, negZero, 0.5, -0.5, 6, -6, 5.9999995, 6.0000005, 1e-45, -1e-45, inf, -inf}
	for _, acc := range accs {
		for _, deq := range deqs {
			for _, bias := range biases {
				for mode, clamp := range []float32{0, 6, inf} {
					got := qfinish(acc, deq, bias, clamp)
					want := refQfinish(acc, deq, bias, mode == 2, mode == 1)
					if clamp > 0 && math.Float32bits(want) == math.Float32bits(negZero) {
						want = 0
					}
					if math.Float32bits(got) != math.Float32bits(want) && (got == got || want == want) {
						t.Fatalf("qfinish(%d, %v, %v, clamp %v) = %v (%#x), reference %v (%#x)", acc, deq, bias, clamp,
							got, math.Float32bits(got), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestQuantizePanelMatchesIm2ColQuantize pins the panel quantization of both
// convolution kinds — the 1×1 input as it stands, the im2colPlanar panel of a
// padded strided 3×3 — to the im2col + quantizeTo pair it replaces, for an odd
// and an even reduction depth.
func TestQuantizePanelMatchesIm2ColQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []tensor.ConvDims{
		{InC: 5, InH: 6, InW: 7, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 4, InH: 6, InW: 7, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 3, InH: 6, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 7, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	} {
		k, p := d.InC*d.KH*d.KW, d.OutH()*d.OutW()
		src := make([]float32, d.InC*d.InH*d.InW)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		colF := make([]float32, p*k)
		refIm2Col(colF, src, d)
		axRef := refAbsMaxScale(colF)
		want := make([]int8, p*k)
		refQuantizeTo(want, colF, axRef)

		planar := src
		if !pointwise(d) {
			planar = make([]float32, k*p)
			im2colPlanar(planar, src, d)
		}
		ax := absMaxScale(planar)
		if ax != axRef {
			t.Fatalf("%+v: activation scale diverged: %v vs %v", d, ax, axRef)
		}
		got := make([]int8, (k+1)&^1*p)
		for i := range got {
			got[i] = 99 // the zero partner of an odd last tap must be written
		}
		quantizePanel(got, planar, p, k, ax)
		for i, b := range panelOf(want, p, k) {
			if got[i] != b {
				t.Fatalf("%+v: panel byte %d = %d want %d", d, i, got[i], b)
			}
		}
	}
}

// TestQDepthwiseGeometries sweeps the padded-plane depthwise kernel over
// planes from 1×1 up, both strides, and a 5×5 kernel and pad-0 layer for the
// non-unrolled path, against the border-checked reference loop.
func TestQDepthwiseGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := new(Scratch)
	for _, geo := range [][3]int{{3, 1, 1}, {3, 2, 1}, {3, 1, 0}, {5, 1, 2}, {5, 2, 1}, {2, 1, 1}} {
		k, stride, pad := geo[0], geo[1], geo[2]
		for h := 1; h <= 9; h++ {
			for w := 1; w <= 9; w += 2 {
				if h+2*pad < k || w+2*pad < k {
					continue
				}
				l := NewDepthwiseConv2D(rng, "dw", 3, k, stride, pad)
				bn := NewBatchNorm("bn", 3)
				randomizeBN(rng, bn)
				bn.ReLU6 = (h+w)%2 == 0
				x := tensor.New(2, 3, h, w)
				x.RandNormal(rng, 3)
				ref := &refInt8{}
				ref.depthwise(l, bn)
				name := fmt.Sprintf("depthwise %dx%d kernel %d stride %d pad %d relu6 %v", h, w, k, stride, pad, bn.ReLU6)
				sameBits(t, name, runPlanOp(p, newQDepthwise(l, bn, bn.ReLU6), x), ref.ops[0].forward(ref, x))
			}
		}
	}
}

// BenchmarkQGemm times one image's worth of GEMMs — the model's 13 shapes —
// through qgemm as this machine dispatches it and through its Go kernel.
func BenchmarkQGemm(b *testing.B) {
	type problem struct {
		p     int
		m     *qmatrix
		panel []int8
		bias  []float32
		dst   []float32
	}
	rng := rand.New(rand.NewSource(1))
	var ps []problem
	for _, s := range modelGemmShapes {
		w, col, ws, bias := randQGemm(rng, s[0], s[1], s[2])
		ps = append(ps, problem{p: s[1], m: packQMatrix(w, ws, s[0], s[2]), panel: panelOf(col, s[1], s[2]), bias: bias, dst: make([]float32, s[0]*s[1])})
	}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range ps {
				qgemm(q.dst, q.m, q.panel, q.p, 0.003, q.bias, 6)
			}
		}
	}
	b.Run("dispatched", run)
	b.Run("go", func(b *testing.B) { portable(func() { run(b) }) })
}

// TestInt8RecordedMaxMatchesAbsMax holds the int8 plan's activation records
// to the buffers they stand for. Each step of the test model's plan is run on
// inputs of six kinds — random planes, random planes whose largest value is in
// the first or in the last plane, planes of +0, planes of zeros of both signs,
// random planes holding a NaN — written into the buffers it reads and
// recorded as their writers would record them. The step must then leave (the
// pool aside, which records nothing), for each plane of its output, the largest sign-cleared bit pattern a plain loop
// over the plane finds, and the output it computes from the records must have
// the bits of the one it computes when it finds every scale itself.
func TestInt8RecordedMaxMatchesAbsMax(t *testing.T) {
	p := NewInt8Backend(backendTestModel(t)).plan
	x := fixedBatch(1, 3)
	sc := new(Scratch)
	p.features(sc, x)
	absMaxBitsRef := func(plane []float32) uint32 {
		var m uint32
		for _, v := range plane {
			if b := math.Float32bits(v) &^ (1 << 31); b > m {
				m = b
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(49))
	random := func(plane []float32) {
		for i := range plane {
			plane[i] = float32(rng.NormFloat64()) * 2
		}
	}
	peak := func(plane []float32) { plane[rng.Intn(len(plane))] = -1e3 }
	fills := []struct {
		name string
		fill func(c, n int, plane []float32) // plane c of n
	}{
		{"random", func(_, _ int, plane []float32) { random(plane) }},
		{"first-plane peak", func(c, _ int, plane []float32) {
			if random(plane); c == 0 {
				peak(plane)
			}
		}},
		{"last-plane peak", func(c, n int, plane []float32) {
			if random(plane); c == n-1 {
				peak(plane)
			}
		}},
		{"zero", func(_, _ int, plane []float32) { clear(plane) }},
		{"signed zeros", func(_, _ int, plane []float32) {
			for i := range plane {
				plane[i] = []float32{0, negZero}[rng.Intn(2)]
			}
		}},
		{"NaN", func(_, _ int, plane []float32) {
			random(plane)
			plane[rng.Intn(len(plane))] = float32(math.NaN())
		}},
	}
	for _, f := range fills {
		for j, s := range p.steps {
			g := sc.geom[j]
			hw := g.h * g.w
			img := make([]float32, len(x.Data()))
			inputs := [][]float32{img}
			if s.src >= 0 {
				inputs = [][]float32{sc.bufs[s.src][:g.c*hw]}
			}
			if add, ok := s.op.(planAdd); ok {
				inputs = append(inputs, sc.bufs[add.skip][:g.c*hw])
			}
			for _, in := range inputs {
				for c := 0; c < g.c; c++ {
					f.fill(c, g.c, in[c*hw:(c+1)*hw])
				}
			}
			if s.src >= 0 {
				for c := 0; c < g.c; c++ {
					sc.amax[s.src][c] = absMaxBitsRef(inputs[0][c*hw : (c+1)*hw])
				}
			}
			in := append([]float32(nil), inputs[0]...)
			p.step(sc, j, img)
			out := sc.bufs[s.dst][:g.outLen]
			outHW := g.outLen / g.outC
			what := fmt.Sprintf("%s input, step %d (%s)", f.name, j, stepName(s.op))
			_, isPool := s.op.(planPool) // its output feeds the head, which finds its own scales
			for c := 0; c < g.outC && !isPool; c++ {
				if got, want := sc.amax[s.dst][c], absMaxBitsRef(out[c*outHW:(c+1)*outHW]); got != want {
					t.Fatalf("%s: channel %d recorded %#x, its plane's largest magnitude is %#x", what, c, got, want)
				}
			}
			recorded := append([]float32(nil), out...)
			copy(inputs[0], in) // an add wrote its sum over its input
			sc.inMax, sc.outMax = nil, nil
			s.op.run(sc, out, inputs[0], g.c, g.h, g.w)
			for i := range out {
				if math.Float32bits(out[i]) != math.Float32bits(recorded[i]) {
					t.Fatalf("%s: output %d = %v from the records, %v from its own scales", what, i, recorded[i], out[i])
				}
			}
		}
	}
}
