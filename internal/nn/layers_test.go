package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// TestReLU6Clipping pins the clamp a BatchNorm ends in: in eval mode with
// unit statistics and no epsilon the layer is the identity, so the clamp's
// values show as they are; in train mode the gradient passes only where the
// output is strictly inside (0, 6), which dβ (the sum of the passed output
// gradient) counts.
func TestReLU6Clipping(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.ReLU6 = true
	bn.Eps = 0
	x := tensor.NewFrom([]float32{-1, 0, 3, 6, 9}, 5, 1, 1, 1)
	y := bn.Forward(x, false)
	for i, v := range []float32{0, 0, 3, 6, 6} {
		if math.Float32bits(y.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("ReLU6(%v) = %v, want %v", x.Data()[i], y.Data()[i], v)
		}
	}
	// Normalized, x is about {-1.2, -0.9, -0.1, 0.7, 1.5}: 4x+3 clamps the
	// first two to 0 and the last to 6.
	bn.Gamma.W.Data()[0], bn.Beta.W.Data()[0] = 4, 3
	y = bn.Forward(x, true)
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[4] != 6 || !(y.Data()[2] > 0 && y.Data()[3] < 6) {
		t.Fatalf("train-mode output %v: want 0, 0, two inside (0, 6), then 6", y.Data())
	}
	bn.Beta.ZeroGrad()
	bn.Backward(tensor.NewFrom([]float32{1, 1, 1, 1, 1}, 5, 1, 1, 1))
	if db := bn.Beta.Grad().Data()[0]; db != 2 {
		t.Fatalf("dbeta = %v, want 2: the gradient passes at the two unclamped outputs only", db)
	}
}

// TestReLUBasic pins the rectifier a Dense ends in: outputs -2, 0 and 5 come
// out as 0, 0 and 5, and the gradient passes only at the positive one.
func TestReLUBasic(t *testing.T) {
	d := NewDense(rand.New(rand.NewSource(1)), "fc", 1, 3)
	d.ReLU = true
	copy(d.Weight.W.Data(), []float32{-2, 0, 5})
	y := d.Forward(tensor.NewFrom([]float32{1}, 1, 1), true)
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[2] != 5 {
		t.Fatalf("ReLU output %v", y.Data())
	}
	d.Weight.ZeroGrad()
	d.Bias.ZeroGrad()
	dx := d.Backward(tensor.NewFrom([]float32{1, 1, 1}, 1, 3))
	if dx.Data()[0] != 5 {
		t.Fatalf("ReLU input grad %v, want 5 (the one passing output's weight)", dx.Data())
	}
	for i, want := range []float32{0, 0, 1} {
		if d.Weight.Grad().Data()[i] != want || d.Bias.Grad().Data()[i] != want {
			t.Fatalf("ReLU grad %d: weight %v bias %v, want %v", i, d.Weight.Grad().Data()[i], d.Bias.Grad().Data()[i], want)
		}
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dy2 := tensor.New(1, 2)
	dy4 := tensor.New(1, 2, 2, 2)
	for name, l := range map[string]Layer{
		"conv":  NewConv2D(rng, "c", 2, 2, 3, 3, 1, 1),
		"dw":    NewDepthwiseConv2D(rng, "d", 2, 3, 1, 1),
		"dense": NewDense(rng, "fc", 2, 2),
		"bn":    NewBatchNorm("bn", 2),
	} {
		dy := dy4
		if name == "dense" {
			dy = dy2
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward before Forward must panic", name)
				}
			}()
			l.Backward(dy)
		}()
	}
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bn := NewBatchNorm("bn", 2)
	x := tensor.New(4, 2, 3, 3)
	x.RandNormal(rng, 3)
	// offset channel 1
	for i := 0; i < 4; i++ {
		for j := 0; j < 9; j++ {
			x.Data()[(i*2+1)*9+j] += 10
		}
	}
	y := bn.Forward(x, true)
	for c := 0; c < 2; c++ {
		var sum, sumSq float64
		n := 0
		for i := 0; i < 4; i++ {
			for j := 0; j < 9; j++ {
				v := float64(y.Data()[(i*2+c)*9+j])
				sum += v
				sumSq += v * v
				n++
			}
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-3 {
			t.Fatalf("channel %d mean %v, want ~0", c, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d variance %v, want ~1", c, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.RunningMean[0] = 2
	bn.RunningVar[0] = 4
	x := tensor.NewFrom([]float32{4}, 1, 1, 1, 1)
	y := bn.Forward(x, false)
	// (4-2)/sqrt(4+eps) ≈ 1
	if math.Abs(float64(y.Data()[0])-1) > 1e-3 {
		t.Fatalf("eval output %v, want ~1", y.Data()[0])
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm("bn", 1)
	x := tensor.New(8, 1, 4, 4)
	for step := 0; step < 200; step++ {
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64()*2 + 5)
		}
		bn.Forward(x, true)
	}
	if math.Abs(float64(bn.RunningMean[0])-5) > 0.3 {
		t.Fatalf("running mean %v, want ~5", bn.RunningMean[0])
	}
	if math.Abs(float64(bn.RunningVar[0])-4) > 0.8 {
		t.Fatalf("running var %v, want ~4", bn.RunningVar[0])
	}
}

func TestDenseBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(rng, "fc", 2, 2)
	d.Weight.W.Zero()
	d.Bias.W.Data()[0] = 1.5
	d.Bias.W.Data()[1] = -2
	y := d.Forward(tensor.New(3, 2), true)
	for i := 0; i < 3; i++ {
		if y.At(i, 0) != 1.5 || y.At(i, 1) != -2 {
			t.Fatalf("bias not applied: row %d = (%v,%v)", i, y.At(i, 0), y.At(i, 1))
		}
	}
}

func TestGlobalAvgPoolValues(t *testing.T) {
	g := NewGlobalAvgPool()
	x := tensor.NewFrom([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(x, true)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("GAP = (%v,%v), want (2.5,25)", y.At(0, 0), y.At(0, 1))
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(5), 2+rng.Intn(6)
		z := tensor.New(n, k)
		z.RandNormal(rng, 5)
		p := Softmax(z)
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < k; j++ {
				v := p.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	z := tensor.NewFrom([]float32{1000, 1001, 999}, 1, 3)
	p := Softmax(z)
	if !p.IsFinite() {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestKLStabilityZeroForIdenticalInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := tensor.New(3, 4)
	z.RandNormal(rng, 1)
	loss, dz, dzp := KLStability(nil, nil, z, z.Clone())
	if loss > 1e-8 {
		t.Fatalf("KL(p‖p) = %v, want 0", loss)
	}
	if dz.MaxAbs() > 1e-6 || dzp.MaxAbs() > 1e-6 {
		t.Fatal("KL gradient nonzero at identical inputs")
	}
}

func TestKLStabilityNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		z := tensor.New(2, 5)
		zp := tensor.New(2, 5)
		z.RandNormal(rng, 2)
		zp.RandNormal(rng, 2)
		loss, _, _ := KLStability(nil, nil, z, zp)
		return loss >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmbeddingL2ZeroForIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := tensor.New(2, 4)
	e.RandNormal(rng, 1)
	loss, _, _ := EmbeddingL2(nil, nil, e, e.Clone())
	if loss != 0 {
		t.Fatalf("‖e−e‖² = %v, want 0", loss)
	}
}

func TestArgmaxAndTopK(t *testing.T) {
	z := tensor.NewFrom([]float32{0.1, 0.7, 0.2, 0.9, 0.5, 0.3}, 2, 3)
	if Argmax(z, 0) != 1 {
		t.Fatalf("Argmax row 0 = %d", Argmax(z, 0))
	}
	if Argmax(z, 1) != 0 {
		t.Fatalf("Argmax row 1 = %d", Argmax(z, 1))
	}
	top := TopK(z, 0, 2)
	if top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopK = %v, want [1 2]", top)
	}
	if got := TopK(z, 0, 10); len(got) != 3 {
		t.Fatalf("TopK clamps to width: %v", got)
	}
}

func TestCrossEntropyPanics(t *testing.T) {
	z := tensor.New(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("label count mismatch must panic")
			}
		}()
		CrossEntropy(nil, z, []int{0})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("label out of range must panic")
			}
		}()
		CrossEntropy(nil, z, []int{0, 5})
	}()
}

func TestSGDMomentumConverges(t *testing.T) {
	// Minimize f(w) = (w-3)² with momentum SGD.
	p := &Param{Name: "w", W: tensor.New(1)}
	opt := NewSGD(0.1, 0.9, 0)
	for i := 0; i < 200; i++ {
		p.Grad().Data()[0] = 2 * (p.W.Data()[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.Data()[0])-3) > 1e-3 {
		t.Fatalf("SGD converged to %v, want 3", p.W.Data()[0])
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := &Param{Name: "w", W: tensor.New(1)}
	p.W.Data()[0] = 1
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // grad 0, decay pulls toward 0
	if v := p.W.Data()[0]; v >= 1 || v <= 0 {
		t.Fatalf("weight decay produced %v", v)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &Param{Name: "w", W: tensor.New(2), g: tensor.NewFrom([]float32{3, 4}, 2)}
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	var after float64
	for _, g := range p.Grad().Data() {
		after += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(after)-1) > 1e-4 {
		t.Fatalf("post-clip norm %v, want 1", math.Sqrt(after))
	}
	// Below-threshold gradients untouched.
	p2 := &Param{Name: "w", W: tensor.New(1), g: tensor.NewFrom([]float32{0.5}, 1)}
	ClipGradNorm([]*Param{p2}, 1)
	if p2.Grad().Data()[0] != 0.5 {
		t.Fatal("clip modified an in-budget gradient")
	}
}

func TestModelShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 32, Classes: 5, EmbedDim: 48, Width: 1})
	x := tensor.New(2, 3, 32, 32)
	x.RandNormal(rng, 0.5)
	logits, embed := m.Forward(x, false)
	if logits.Dim(0) != 2 || logits.Dim(1) != 5 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	if embed.Dim(0) != 2 || embed.Dim(1) != 48 {
		t.Fatalf("embedding shape %v", embed.Shape())
	}
	if n := m.NumParams(); n < 10000 || n > 100000 {
		t.Fatalf("unexpected parameter count %d", n)
	}
	p := Softmax(logits)
	var sum float64
	for j := 0; j < 5; j++ {
		sum += float64(p.At(0, j))
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("softmax row sums to %v", sum)
	}
}

func TestModelWidthScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	small := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
	big := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 2})
	if small.NumParams() >= big.NumParams() {
		t.Fatalf("width scaling broken: %d >= %d", small.NumParams(), big.NumParams())
	}
}

func TestModelDeterministicConstruction(t *testing.T) {
	a := NewMobileNetV2Micro(rand.New(rand.NewSource(42)), DefaultConfig(5))
	b := NewMobileNetV2Micro(rand.New(rand.NewSource(42)), DefaultConfig(5))
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param count differs")
	}
	for i := range pa {
		if !tensor.Equal(pa[i].W, pb[i].W, 0) {
			t.Fatalf("param %s differs between same-seed models", pa[i].Name)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
	x := tensor.New(2, 3, 16, 16)
	x.RandNormal(rng, 0.5)
	before, _ := m.Forward(x, false)
	before = before.Clone() // the next Forward rewrites the head's output
	snap := m.TakeSnapshot()

	// Perturb everything.
	for _, p := range m.Params() {
		p.W.Fill(0.123)
	}
	for _, bn := range collectBN(m.Backbone) {
		for i := range bn.RunningMean {
			bn.RunningMean[i] = 9
		}
	}
	m.Restore(snap)
	after, _ := m.Forward(x, false)
	if !tensor.Equal(before, after, 1e-6) {
		t.Fatal("Restore did not reproduce the snapshotted model")
	}
}

func TestSnapshotSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
	snap := m.TakeSnapshot()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMobileNetV2Micro(rand.New(rand.NewSource(11)), ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
	m2.Restore(got)
	x := tensor.New(1, 3, 16, 16)
	x.RandNormal(rng, 0.5)
	y1, _ := m.Forward(x, false)
	y2, _ := m2.Forward(x, false)
	if !tensor.Equal(y1, y2, 1e-6) {
		t.Fatal("deserialized snapshot does not reproduce outputs")
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRestoreShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m1 := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
	m2 := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 4, EmbedDim: 16, Width: 1})
	snap := m1.TakeSnapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Restore must panic")
		}
	}()
	m2.Restore(snap)
}

func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMobileNetV2Micro(rng, ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
	x := tensor.New(2, 3, 16, 16)
	x.RandNormal(rng, 0.5)
	logits, _ := m.Forward(x, true)
	_, grad := CrossEntropy(nil, logits, []int{0, 1})
	m.Backward(grad, nil)
	var nonzero bool
	for _, p := range m.Params() {
		if p.Grad().MaxAbs() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("backward produced no gradients")
	}
	m.ZeroGrad()
	for _, p := range m.Params() {
		if p.Grad().MaxAbs() != 0 {
			t.Fatalf("ZeroGrad left gradient in %s", p.Name)
		}
	}
}

func TestInvertedResidualSkipConnection(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// stride 1, inC == outC → Residual wrapper
	if _, ok := InvertedResidual(rng, "a", 8, 8, 4, 1).(*Residual); !ok {
		t.Fatal("expected residual block for stride-1 same-width")
	}
	// stride 2 → plain sequential
	if _, ok := InvertedResidual(rng, "b", 8, 8, 4, 2).(*Residual); ok {
		t.Fatal("stride-2 block must not have a skip connection")
	}
	// channel change → plain sequential
	if _, ok := InvertedResidual(rng, "c", 8, 16, 4, 1).(*Residual); ok {
		t.Fatal("channel-changing block must not have a skip connection")
	}
}

// TestCloneIsAWeightsOnlyReplica holds Clone to the replica a fresh
// architecture with the snapshot restored would be: the same snapshot
// bytes and the same eval-mode outputs, bit for bit, from a model that has
// trained (so it has gradients, step buffers and a compiled plan) and has
// BatchNorm statistics of its own. The clone has no gradient and shares no
// storage with the original.
func TestCloneIsAWeightsOnlyReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5}
	m := NewMobileNetV2Micro(rng, cfg)
	x := tensor.New(4, 3, 16, 16)
	x.RandNormal(rng, 0.5)
	logits, _ := m.Forward(x, true)
	dl := logits.Clone()
	dl.RandNormal(rng, 0.1)
	m.Backward(dl, nil)
	NewSGD(0.05, 0.9, 0).Step(m.Params())
	m.Infer(x) // a compiled plan

	c := m.Clone()
	var want, got bytes.Buffer
	m.TakeSnapshot().WriteTo(&want)
	c.TakeSnapshot().WriteTo(&got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the clone's snapshot differs from the model's")
	}
	restored := NewMobileNetV2Micro(rand.New(rand.NewSource(11)), cfg)
	restored.Restore(m.TakeSnapshot())
	a, b := c.Infer(x), restored.Infer(x)
	for i := range b {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("output %d: clone %v, restored architecture %v", i, a[i], b[i])
		}
	}
	for i, p := range c.Params() {
		if p.g != nil {
			t.Fatalf("the clone's %s carries a gradient", p.Name)
		}
		if &p.W.Data()[0] == &m.Params()[i].W.Data()[0] {
			t.Fatalf("the clone's %s shares the model's weights", p.Name)
		}
	}
	for i, bn := range collectBN(c.Backbone) {
		if &bn.RunningMean[0] == &collectBN(m.Backbone)[i].RunningMean[0] {
			t.Fatal("the clone shares a BatchNorm's running mean")
		}
	}
}
