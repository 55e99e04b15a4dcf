package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates d(loss)/d(x[i]) by central differences for the
// scalar loss sum(w ⊙ f(x)), where w is a fixed random weighting that makes
// the loss sensitive to every output.
func numericalGrad(f func(*tensor.Tensor) *tensor.Tensor, x *tensor.Tensor, w []float32, eps float32) []float32 {
	grad := make([]float32, x.Len())
	for i := 0; i < x.Len(); i++ {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := weightedSum(f(x), w)
		x.Data()[i] = orig - eps
		down := weightedSum(f(x), w)
		x.Data()[i] = orig
		grad[i] = float32((up - down) / (2 * float64(eps)))
	}
	return grad
}

func weightedSum(y *tensor.Tensor, w []float32) float64 {
	var s float64
	for i, v := range y.Data() {
		s += float64(v) * float64(w[i])
	}
	return s
}

// checkLayerGrad verifies a layer's input gradient and every parameter
// gradient against central differences.
func checkLayerGrad(t *testing.T, name string, layer Layer, x *tensor.Tensor, tol float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	y := layer.Forward(x, true)
	w := make([]float32, y.Len())
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	// analytic gradients
	dy := tensor.New(y.Shape()...)
	copy(dy.Data(), w)
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	dx := layer.Backward(dy)

	// numeric input gradient: re-run Forward per perturbation
	forward := func(in *tensor.Tensor) *tensor.Tensor { return layer.Forward(in, true) }
	numDX := numericalGrad(forward, x, w, 1e-2)
	layer.Forward(x, true) // restore caches for safety
	compareGrads(t, name+" input", dx.Data(), numDX, tol)

	for pi, p := range layer.Params() {
		analytic := make([]float32, p.Grad().Len())
		copy(analytic, p.Grad().Data())
		numeric := numericalGrad(func(*tensor.Tensor) *tensor.Tensor {
			return layer.Forward(x, true)
		}, p.W, w, 1e-2)
		compareGrads(t, name+" param "+p.Name, analytic, numeric, tol)
		_ = pi
	}
}

func compareGrads(t *testing.T, what string, analytic, numeric []float32, tol float32) {
	t.Helper()
	var maxAbs float32
	for _, v := range numeric {
		if a := absf32(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs < 1e-4 {
		maxAbs = 1e-4
	}
	for i := range analytic {
		diff := absf32(analytic[i] - numeric[i])
		if diff/maxAbs > tol {
			t.Fatalf("%s: grad[%d] analytic=%v numeric=%v (rel %v)", what, i, analytic[i], numeric[i], diff/maxAbs)
		}
	}
}

func absf32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestConv2DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewConv2D(rng, "c", 2, 3, 3, 3, 1, 1)
	x := tensor.New(2, 2, 5, 5)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "Conv2D", layer, x, 0.05)
}

func TestConv2DStridedGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv2D(rng, "c", 2, 4, 3, 3, 2, 1)
	x := tensor.New(1, 2, 6, 6)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "Conv2D/s2", layer, x, 0.05)
}

func TestDepthwiseConv2DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewDepthwiseConv2D(rng, "dw", 3, 3, 1, 1)
	x := tensor.New(2, 3, 4, 4)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "DepthwiseConv2D", layer, x, 0.05)
}

func TestDepthwiseConv2DStridedGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewDepthwiseConv2D(rng, "dw", 2, 3, 2, 1)
	x := tensor.New(1, 2, 6, 6)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "DepthwiseConv2D/s2", layer, x, 0.05)
}

func TestDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewDense(rng, "d", 6, 4)
	x := tensor.New(3, 6)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "Dense", layer, x, 0.05)
}

func TestBatchNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layer := NewBatchNorm("bn", 3)
	// non-trivial gamma/beta
	layer.Gamma.W.RandUniform(rng, 0.5, 1.5)
	layer.Beta.W.RandNormal(rng, 0.3)
	x := tensor.New(3, 3, 3, 3)
	x.RandNormal(rng, 1)
	// BatchNorm's running-stat update makes repeated Forward calls
	// non-idempotent, but the batch statistics (which drive the output in
	// train mode) depend only on the input, so gradcheck is still valid.
	checkLayerGrad(t, "BatchNorm", layer, x, 0.08)
}

// TestReLU6Gradient gradchecks a BatchNorm ending in ReLU6, on a batch whose
// outputs reach both bounds of the clamp but stay clear of its kinks, where
// central differences lie.
func TestReLU6Gradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewBatchNorm("bn", 3)
	layer.Gamma.W.Fill(3)
	layer.Beta.W.Fill(3)
	x := tensor.New(2, 3, 2, 2)
	for clear := false; !clear; {
		x.RandNormal(rng, 1)
		var low, high bool
		clear = true
		for _, v := range layer.Forward(x, true).Data() { // ReLU6 still off
			low, high = low || v < 0, high || v > 6
			clear = clear && absf32(v) > 0.2 && absf32(v-6) > 0.2
		}
		clear = clear && low && high
	}
	layer.ReLU6 = true
	checkLayerGrad(t, "BatchNorm+ReLU6", layer, x, 0.05)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewGlobalAvgPool()
	x := tensor.New(2, 3, 4, 4)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "GlobalAvgPool", layer, x, 0.05)
}

func TestResidualGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	body := NewSequential(
		NewConv2D(rng, "c", 2, 2, 3, 3, 1, 1),
	)
	layer := NewResidual(body)
	x := tensor.New(1, 2, 4, 4)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "Residual", layer, x, 0.05)
}

func TestSequentialGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewSequential(
		NewConv2D(rng, "c1", 1, 3, 3, 3, 1, 1),
		NewDepthwiseConv2D(rng, "dw", 3, 3, 1, 1),
	)
	x := tensor.New(1, 1, 5, 5)
	x.RandNormal(rng, 1)
	checkLayerGrad(t, "Sequential", layer, x, 0.05)
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.New(4, 5)
	logits.RandNormal(rng, 1.5)
	labels := []int{0, 3, 2, 4}
	_, grad := CrossEntropy(nil, logits, labels)
	eps := float32(1e-2)
	for i := 0; i < logits.Len(); i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		up, _ := CrossEntropy(nil, logits, labels)
		logits.Data()[i] = orig - eps
		down, _ := CrossEntropy(nil, logits, labels)
		logits.Data()[i] = orig
		numeric := float32((up - down) / (2 * float64(eps)))
		if absf32(grad.Data()[i]-numeric) > 5e-3 {
			t.Fatalf("CE grad[%d]: analytic %v numeric %v", i, grad.Data()[i], numeric)
		}
	}
}

func TestKLStabilityGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	z := tensor.New(3, 4)
	zp := tensor.New(3, 4)
	z.RandNormal(rng, 1)
	zp.RandNormal(rng, 1)
	_, dz, dzp := KLStability(nil, nil, z, zp)
	eps := float32(1e-2)
	check := func(target *tensor.Tensor, analytic *tensor.Tensor, name string) {
		for i := 0; i < target.Len(); i++ {
			orig := target.Data()[i]
			target.Data()[i] = orig + eps
			up, _, _ := KLStability(nil, nil, z, zp)
			target.Data()[i] = orig - eps
			down, _, _ := KLStability(nil, nil, z, zp)
			target.Data()[i] = orig
			numeric := float32((up - down) / (2 * float64(eps)))
			if absf32(analytic.Data()[i]-numeric) > 5e-3 {
				t.Fatalf("KL %s grad[%d]: analytic %v numeric %v", name, i, analytic.Data()[i], numeric)
			}
		}
	}
	check(z, dz, "clean")
	check(zp, dzp, "noisy")
}

func TestEmbeddingL2Gradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := tensor.New(3, 5)
	ep := tensor.New(3, 5)
	e.RandNormal(rng, 1)
	ep.RandNormal(rng, 1)
	_, de, dep := EmbeddingL2(nil, nil, e, ep)
	eps := float32(1e-3)
	check := func(target, analytic *tensor.Tensor, name string) {
		for i := 0; i < target.Len(); i++ {
			orig := target.Data()[i]
			target.Data()[i] = orig + eps
			up, _, _ := EmbeddingL2(nil, nil, e, ep)
			target.Data()[i] = orig - eps
			down, _, _ := EmbeddingL2(nil, nil, e, ep)
			target.Data()[i] = orig
			numeric := float32((up - down) / (2 * float64(eps)))
			if absf32(analytic.Data()[i]-numeric) > 1e-2 {
				t.Fatalf("EmbL2 %s grad[%d]: analytic %v numeric %v", name, i, analytic.Data()[i], numeric)
			}
		}
	}
	check(e, de, "clean")
	check(ep, dep, "noisy")
}

func TestModelEndToEndGradientDirection(t *testing.T) {
	// Full-model check: one SGD step along the analytic gradient must
	// reduce the loss on the same batch.
	rng := rand.New(rand.NewSource(14))
	m := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
	x := tensor.New(6, 3, 16, 16)
	x.RandNormal(rng, 0.5)
	labels := []int{0, 1, 2, 0, 1, 2}

	logits, _ := m.Forward(x, true)
	before, grad := CrossEntropy(nil, logits, labels)
	m.ZeroGrad()
	m.Backward(grad, nil)
	opt := NewSGD(0.05, 0, 0)
	opt.Step(m.Params())

	logits2, _ := m.Forward(x, true)
	after, _ := CrossEntropy(nil, logits2, labels)
	if !(after < before) {
		t.Fatalf("SGD step did not reduce loss: before %v after %v", before, after)
	}
	if math.IsNaN(after) {
		t.Fatal("loss is NaN after step")
	}
}
