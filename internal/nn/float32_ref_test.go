package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The float32 inference plan (infer_plan.go) must reproduce the scalar
// reference forward of layer_ref_test.go bit for bit, as the int8 plan does
// the scalar int8 kernels of quantize_ref_test.go. Every comparison here is
// on the bit pattern, so a -0/+0 or NaN-payload drift is a failure too.

func sameBits32(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", name, len(got), len(want))
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", name, i,
				v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
		}
	}
}

func sameBits64(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", name, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s: prob %d = %v, reference %v", name, i, v, want[i])
		}
	}
}

// randomizeBN gives every BatchNorm under l non-trivial running statistics,
// gamma (some negative) and beta, so the fused epilogue is exercised on
// values unlike the mean-0/var-1/gamma-1 initial state.
func randomizeBN(rng *rand.Rand, l Layer) {
	for _, bn := range collectBN(l) {
		for c := range bn.RunningMean {
			bn.RunningMean[c] = float32(rng.NormFloat64() * 0.3)
			bn.RunningVar[c] = float32(0.2 + 2*rng.Float64())
			bn.Gamma.W.Data()[c] = float32(rng.NormFloat64())
			bn.Beta.W.Data()[c] = float32(rng.NormFloat64() * 0.5)
		}
	}
}

func refTestConfig(width float64) ModelConfig {
	return ModelConfig{InputHW: 32, Classes: 7, EmbedDim: 48, Width: width}
}

func refTestModel(seed int64, width float64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewMobileNetV2Micro(rng, refTestConfig(width))
	randomizeBN(rng, m.Backbone)
	m.Embed.Bias.W.RandNormal(rng, 0.1)
	m.Head.Bias.W.RandNormal(rng, 0.1)
	return m
}

// refModelInfer is Model.Infer on the reference loops: the eval-mode
// forward, softmax, flattened.
func refModelInfer(m *Model, x *tensor.Tensor) []float64 {
	e := refDense(m.Embed, refForward(m.Backbone, x))
	return flatProbs(Softmax(refDense(m.Head, e)))
}

// TestInferPlanMatchesForward sweeps widths (1.0, and 0.4 whose channel
// counts 5/6/10/13/26 leave every remainder of the 4-channel tile), batch
// sizes and input resolutions (odd pixel counts, stride-2 borders). The
// shapes are visited in an interleaved order on one model, and each twice,
// so scratch carried over from a larger or differently-shaped call would
// show. The pruned runtime is held to the same loops over its pruned weights.
func TestInferPlanMatchesForward(t *testing.T) {
	for _, width := range []float64{0.4, 1.0} {
		m := refTestModel(21, width)
		pruned := NewPrunedBackend(refTestModel(22, width), DefaultPruneKeep)
		rng := rand.New(rand.NewSource(23))
		type shape struct{ n, hw int }
		shapes := []shape{{5, 31}, {24, 32}, {1, 17}, {5, 32}, {1, 31}, {24, 17}, {1, 32}, {5, 17}, {24, 31}}
		if testing.Short() {
			shapes = shapes[:5]
		}
		for _, s := range shapes {
			x := tensor.New(s.n, 3, s.hw, s.hw)
			x.RandUniform(rng, 0, 1)
			name := fmt.Sprintf("width %.1f batch %d input %d", width, s.n, s.hw)
			wantM, wantP := refModelInfer(m, x), refModelInfer(pruned.m, x)
			for rep := 0; rep < 2; rep++ {
				sameBits64(t, name+" float32", m.Infer(x), wantM)
				sameBits64(t, name+" pruned", pruned.Infer(x), wantP)
			}
		}
	}
}

// TestInferIsBatchInvariant pins what running one image at a time implies:
// an image's probabilities do not depend on its batch mates.
func TestInferIsBatchInvariant(t *testing.T) {
	m := refTestModel(31, 1.0)
	x := fixedBatch(5, 32)
	all := m.Infer(x)
	all = append([]float64(nil), all...)
	per := 3 * 32 * 32
	for i := 0; i < 5; i++ {
		one := tensor.NewFrom(x.Data()[i*per:(i+1)*per], 1, 3, 32, 32)
		sameBits64(t, fmt.Sprintf("image %d alone", i), m.Infer(one), all[i*m.Classes:(i+1)*m.Classes])
	}
}

// planVsForward runs a layer stack through the plan and through the
// reference eval-mode forward on the same input.
func planVsForward(t *testing.T, name string, x *tensor.Tensor, layers ...Layer) {
	t.Helper()
	want := refForward(NewSequential(layers...), x)
	got := newInferPlan(layers, false).features(new(Scratch), x)
	sameBits32(t, name, got.Data(), want.Data())
}

// TestPlanKernelRemainderPaths hits each fused kernel's edge tiles directly:
// every outC % 4 and odd pixel count of the 4×2 GEMM tile in both activation
// layouts, and depthwise planes from 1×1 (no interior at all) upward at both
// strides. Inputs are wide enough that both ReLU6 clamps fire.
func TestPlanKernelRemainderPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	input := func(n, c, h, w int) *tensor.Tensor {
		x := tensor.New(n, c, h, w)
		x.RandNormal(rng, 3)
		return x
	}
	convBlock := func(inC, outC, k, stride, pad int, relu6 bool) []Layer {
		bn := NewBatchNorm("bn", outC)
		bn.ReLU6 = relu6
		ls := []Layer{NewConv2D(rng, "c", inC, outC, k, k, stride, pad), bn}
		randomizeBN(rng, bn)
		return ls
	}
	for outC := 1; outC <= 9; outC++ {
		for _, hw := range [][2]int{{1, 1}, {1, 2}, {3, 3}, {2, 5}, {4, 4}} {
			for _, inC := range []int{1, 3, 6} {
				name := fmt.Sprintf("outC %d inC %d plane %dx%d", outC, inC, hw[0], hw[1])
				x := input(2, inC, hw[0], hw[1])
				planVsForward(t, "pointwise "+name, x, convBlock(inC, outC, 1, 1, 0, outC%2 == 0)...)
				planVsForward(t, "3x3 "+name, x, convBlock(inC, outC, 3, 1, 1, outC%2 == 1)...)
				planVsForward(t, "3x3 stride 2 "+name, x, convBlock(inC, outC, 3, 2, 1, true)...)
				planVsForward(t, "1x1 stride 2 "+name, x, convBlock(inC, outC, 1, 2, 0, true)...)
			}
		}
	}
	for h := 1; h <= 9; h++ {
		for w := 1; w <= 9; w += 2 {
			for _, stride := range []int{1, 2} {
				for _, relu6 := range []bool{false, true} {
					bn := NewBatchNorm("bn", 3)
					bn.ReLU6 = relu6
					ls := []Layer{NewDepthwiseConv2D(rng, "dw", 3, 3, stride, 1), bn}
					randomizeBN(rng, bn)
					name := fmt.Sprintf("depthwise %dx%d stride %d relu6 %v", h, w, stride, relu6)
					planVsForward(t, name, input(2, 3, h, w), ls...)
				}
			}
		}
	}
	// A residual whose body is one block, then a block reading its output:
	// the skip buffer must survive the body and be free again afterwards.
	body := NewSequential(convBlock(5, 5, 1, 1, 0, true)...)
	tail := convBlock(5, 3, 1, 1, 0, false)
	stem := convBlock(2, 5, 3, 1, 1, true)
	layers := append(append(stem, NewResidual(body)), tail...)
	planVsForward(t, "residual", input(3, 2, 5, 4), append(layers, NewGlobalAvgPool())...)
}

// TestBNActMatchesLayers feeds the fused epilogue the values where a
// re-expressed clamp could differ from the branches of refReLU6: signed
// zeros, the clamp edges, infinities and NaN.
func TestBNActMatchesLayers(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	specials := []float32{0, negZero, 1e-30, -1e-30, 3, 6, 6.0000005, 5.9999995, -7, 9, inf, -inf, nan}
	for _, s := range specials {
		for _, scale := range []float32{1, -1, 0.5} {
			for _, shift := range []float32{0, negZero, 6, -6} {
				v := s*scale + shift
				want := refReLU6(v)
				got := bnAct(s, scale, shift, true)
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("bnAct(%v,%v,%v) = %v (%#x), ReLU6 gives %v (%#x)", s, scale, shift,
						got, math.Float32bits(got), want, math.Float32bits(want))
				}
				if plain := bnAct(s, scale, shift, false); math.Float32bits(plain) != math.Float32bits(v) {
					t.Fatalf("bnAct(%v,%v,%v) without ReLU6 = %v want %v", s, scale, shift, plain, v)
				}
			}
		}
	}
}

// TestInferNeverStale trains between two Infer calls: the plan reads weights
// and BatchNorm statistics from the live layers, so the second call must
// match the trained model, not the one the plan was compiled from.
func TestInferNeverStale(t *testing.T) {
	m := refTestModel(51, 0.4)
	x := fixedBatch(4, 52)
	before := append([]float64(nil), m.Infer(x)...)
	sameBits64(t, "before training", before, refModelInfer(m, x))

	logits, _ := m.Forward(fixedBatch(6, 53), true)
	_, grad := CrossEntropy(nil, logits, []int{0, 1, 2, 3, 4, 5})
	m.ZeroGrad()
	m.Backward(grad, nil)
	NewSGD(0.05, 0, 0).Step(m.Params())

	after := m.Infer(x)
	sameBits64(t, "after one SGD step", after, refModelInfer(m, x))
	same := true
	for i := range after {
		same = same && after[i] == before[i]
	}
	if same {
		t.Fatal("one SGD step left the probabilities unchanged: the test trains nothing")
	}
}

// TestInferLeavesTrainingCachesEmpty pins the memory side of the plan: an
// inference-only replica never fills a layer's training cache, so it pins no
// im2col panels, input batches or cached outputs.
func TestInferLeavesTrainingCachesEmpty(t *testing.T) {
	check := func(name string, m *Model) {
		var walk func(l Layer)
		walk = func(l Layer) {
			switch v := l.(type) {
			case *Sequential:
				for _, c := range v.Layers {
					walk(c)
				}
			case *Residual:
				walk(v.Body)
			case *Conv2D:
				if v.x != nil || v.panel != nil {
					t.Errorf("%s: Conv2D %s holds forward caches after Infer", name, v.Weight.Name)
				}
			case *DepthwiseConv2D:
				if v.x != nil {
					t.Errorf("%s: DepthwiseConv2D %s holds its input after Infer", name, v.Weight.Name)
				}
			case *BatchNorm:
				if v.xhat != nil || v.invStd != nil || v.y != nil {
					t.Errorf("%s: BatchNorm %s holds train caches after Infer", name, v.Gamma.Name)
				}
			}
		}
		walk(m.Backbone)
		if m.Embed.x != nil || m.Embed.y != nil || m.Head.x != nil || m.Head.y != nil {
			t.Errorf("%s: dense head holds forward caches after Infer", name)
		}
	}
	replica := func() *Model {
		m := NewMobileNetV2Micro(rand.New(rand.NewSource(1)), refTestConfig(1.0))
		m.Restore(refTestModel(61, 1.0).TakeSnapshot())
		return m
	}
	x := fixedBatch(8, 62)
	m := replica()
	m.Infer(x)
	m.Infer(fixedBatch(2, 63))
	check("float32", m)
	pm := replica()
	pruned := NewPrunedBackend(pm, DefaultPruneKeep)
	pruned.Infer(x)
	check("pruned", pm)
}

// TestIm2colSameMatchesPlanar holds im2colPlanar's shifted-plane path for a
// stride-1 convolution whose output is its input's size to the row loop it
// takes for every other geometry: every channel count from 1 to 4, every
// input from 1×1 to 9×9, kernels of 1 to 5 each way and pads of 0 to 2 — a
// tap plane shifted past the whole input among them — on samples holding -0
// and NaN, into panels first filled with a NaN neither writes, so a value
// left unwritten or a zero of the wrong sign shows.
func TestIm2colSameMatchesPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	stale := math.Float32frombits(0x7fc0dead)
	same := 0
	for inC := 1; inC <= 4; inC++ {
		for h := 1; h <= 9; h++ {
			for w := 1; w <= 9; w++ {
				src := make([]float32, inC*h*w)
				for i := range src {
					src[i] = []float32{float32(rng.NormFloat64()), negZero, float32(math.NaN()), 0}[rng.Intn(4)]
				}
				for kh := 1; kh <= 5; kh++ {
					for kw := 1; kw <= 5; kw++ {
						for ph := 0; ph <= 2; ph++ {
							for pw := 0; pw <= 2; pw++ {
								d := tensor.ConvDims{InC: inC, InH: h, InW: w, KH: kh, KW: kw, StrideH: 1, StrideW: 1, PadH: ph, PadW: pw}
								if d.OutH() < 1 || d.OutW() < 1 {
									continue
								}
								if d.OutH() == h && d.OutW() == w {
									same++
								}
								n := inC * kh * kw * d.OutH() * d.OutW()
								got, want := make([]float32, n), make([]float32, n)
								for i := range got {
									got[i], want[i] = stale, stale
								}
								im2colPlanar(got, src, d)
								im2colGeneric(want, src, d)
								for i := range got {
									if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
										t.Fatalf("%+v: panel value %d = %v (%#x), the row loop gives %v (%#x)", d, i,
											got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if same == 0 {
		t.Fatal("no geometry took the shifted-plane path")
	}
}
