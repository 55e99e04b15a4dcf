package train

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tinyModel returns a small, fast model for training tests.
func tinyModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewMobileNetV2Micro(rng, nn.ModelConfig{InputHW: 16, Classes: 3, EmbedDim: 8, Width: 0.5})
}

// separableImages builds a trivially separable 3-class image set: each class
// is a distinct solid color with slight noise.
func separableImages(n int, seed int64) ([]*imaging.Image, []int) {
	rng := rand.New(rand.NewSource(seed))
	colors := [3][3]float32{{0.9, 0.1, 0.1}, {0.1, 0.9, 0.1}, {0.1, 0.1, 0.9}}
	var images []*imaging.Image
	var labels []int
	for i := 0; i < n; i++ {
		c := i % 3
		im := imaging.New(16, 16)
		im.Fill(colors[c][0], colors[c][1], colors[c][2])
		for j := range im.Pix {
			im.Pix[j] += float32(rng.NormFloat64() * 0.03)
		}
		im.Clamp()
		images = append(images, im)
		labels = append(labels, c)
	}
	return images, labels
}

func TestClassifierLearnsSeparableTask(t *testing.T) {
	m := tinyModel(1)
	images, labels := separableImages(60, 2)
	loss := Classifier(m, images, labels, Config{Epochs: 10, BatchSize: 16, LR: 0.05, Seed: 3})
	if math.IsNaN(loss) || loss > 0.7 {
		t.Fatalf("training did not converge: loss %v", loss)
	}
	preds, _, _ := Evaluate(m, images, 32)
	correct := 0
	for i := range preds {
		if preds[i] == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(preds)); acc < 0.9 {
		t.Fatalf("train accuracy %v on separable task", acc)
	}
}

func TestClassifierDeterministicForSeed(t *testing.T) {
	images, labels := separableImages(24, 4)
	cfg := Config{Epochs: 1, BatchSize: 8, LR: 0.02, Seed: 5}
	m1 := tinyModel(6)
	m2 := tinyModel(6)
	l1 := Classifier(m1, images, labels, cfg)
	l2 := Classifier(m2, images, labels, cfg)
	if l1 != l2 {
		t.Fatalf("same-seed training diverged: %v vs %v", l1, l2)
	}
}

func TestClassifierPanicsOnMismatch(t *testing.T) {
	m := tinyModel(7)
	images, _ := separableImages(4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	Classifier(m, images, []int{0}, Config{Epochs: 1})
}

func TestEvaluateShapesAndScores(t *testing.T) {
	m := tinyModel(9)
	images, _ := separableImages(10, 10)
	preds, scores, probs := Evaluate(m, images, 4) // batch smaller than set
	if len(preds) != 10 || len(scores) != 10 || len(probs) != 10 {
		t.Fatal("evaluate output lengths wrong")
	}
	for i := range preds {
		if preds[i] < 0 || preds[i] >= 3 {
			t.Fatalf("pred %d out of range", preds[i])
		}
		var sum float64
		for _, p := range probs[i] {
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of range", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("probs sum to %v", sum)
		}
		if math.Abs(scores[i]-probs[i][preds[i]]) > 1e-9 {
			t.Fatal("score must equal the top-1 probability")
		}
	}
}

func TestEvaluateResizesInputs(t *testing.T) {
	m := tinyModel(11)
	big := imaging.New(40, 40)
	big.Fill(0.5, 0.5, 0.5)
	preds, _, _ := Evaluate(m, []*imaging.Image{big}, 1)
	if len(preds) != 1 {
		t.Fatal("evaluate with resize failed")
	}
}

// TestEvaluateFastPathMatchesResizePath: a batch whose images already sit at
// the backend's input size takes the copy-free fast path; mixing one
// off-size image into the batch forces the resize path for the whole batch.
// Size-matched images must score identically either way, and the caller's
// slice must come back untouched (the resize path works on its own copy).
func TestEvaluateFastPathMatchesResizePath(t *testing.T) {
	m := tinyModel(26)
	matched, _ := separableImages(6, 27) // 16x16 == tinyModel input
	fastPreds, fastScores, _ := Evaluate(m, matched, 8)

	big := imaging.New(40, 40)
	big.Fill(0.5, 0.5, 0.5)
	mixed := append(append([]*imaging.Image{}, matched[:3]...), big)
	mixed = append(mixed, matched[3:]...)
	before := append([]*imaging.Image{}, mixed...)
	preds, scores, _ := Evaluate(m, mixed, 8)

	for i, j := range []int{0, 1, 2, 4, 5, 6} { // mixed positions of matched images
		if preds[j] != fastPreds[i] || scores[j] != fastScores[i] {
			t.Fatalf("image %d: fast path (%d, %v) vs resize path (%d, %v)",
				i, fastPreds[i], fastScores[i], preds[j], scores[j])
		}
	}
	for i := range mixed {
		if mixed[i] != before[i] {
			t.Fatalf("Evaluate replaced caller's image %d", i)
		}
	}
}

func TestTopKOf(t *testing.T) {
	probs := [][]float64{{0.1, 0.6, 0.3}}
	top := TopKOf(probs, 2)
	if len(top) != 1 || top[0][0] != 1 || top[0][1] != 2 {
		t.Fatalf("TopKOf = %v", top)
	}
}

// TestTopKOfMatchesTensorTopK pins TopKOf to the path it replaced — copy the
// row into a float32 tensor, call nn.TopK — on rows as backends produce them
// (float32 values widened to float64), with exact ties and k up to and past
// the row width.
func TestTopKOfMatchesTensorTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(12)
		row := make([]float64, width)
		ref := tensor.New(1, width)
		for j := range row {
			v := float32(rng.Intn(6)) / 8 // few distinct values: ties on most rows
			if trial%2 == 0 {
				v = rng.Float32()
			}
			row[j], ref.Data()[j] = float64(v), v
		}
		for k := 0; k <= width+1; k++ {
			got := TopKOf([][]float64{row}, k)[0]
			if want := nn.TopK(ref, 0, k); !slices.Equal(got, want) {
				t.Fatalf("row %v k=%d: TopKOf %v, nn.TopK %v", row, k, got, want)
			}
		}
	}
}

func TestGaussianNoiseScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	im := imaging.New(8, 8)
	im.Fill(0.5, 0.5, 0.5)
	g := GaussianNoise{Sigma: 0.1}
	out := g.Companion(0, im, rng)
	if imaging.MSE(im, out) == 0 {
		t.Fatal("gaussian noise must perturb")
	}
	if im.Pix[0] != 0.5 {
		t.Fatal("scheme mutated its input")
	}
	// zero sigma ≈ identity
	z := GaussianNoise{Sigma: 0}.Companion(0, im, rng)
	if imaging.MSE(im, z) != 0 {
		t.Fatal("zero-sigma gaussian must be identity")
	}
	if g.Name() != "gaussian" {
		t.Fatal("name")
	}
}

func TestDistortionScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	im := imaging.New(16, 16)
	for i := range im.Pix {
		im.Pix[i] = float32(rng.Float64())
	}
	d := DefaultDistortion()
	out := d.Companion(0, im, rng)
	if imaging.MSE(im, out) == 0 {
		t.Fatal("distortion must change the image")
	}
	for _, v := range out.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("distorted pixel %v out of range", v)
		}
	}
	if d.Name() != "distortion" {
		t.Fatal("name")
	}
}

func TestDistortionVariesPerDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	im := imaging.New(8, 8)
	im.Fill(0.4, 0.5, 0.6)
	d := DefaultDistortion()
	a := d.Companion(0, im, rng)
	b := d.Companion(0, im, rng)
	if imaging.MSE(a, b) == 0 {
		t.Fatal("distortion must resample parameters per call")
	}
}

func TestTwoImagesScheme(t *testing.T) {
	companions := []*imaging.Image{imaging.New(4, 4), imaging.New(4, 4)}
	companions[1].Fill(1, 1, 1)
	s := TwoImages{Companions: companions}
	if got := s.Companion(1, nil, nil); got != companions[1] {
		t.Fatal("two-images must return the paired photo")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index must panic")
		}
	}()
	s.Companion(5, nil, nil)
}

func TestSubsamplePoolsPerClass(t *testing.T) {
	// 4 companions: 2 of class 0, 2 of class 1; pool size 1 keeps only the
	// first of each class.
	companions := make([]*imaging.Image, 4)
	for i := range companions {
		companions[i] = imaging.New(2, 2)
		companions[i].Fill(float32(i)/4, 0, 0)
	}
	labels := []int{0, 0, 1, 1}
	s := NewSubsample(1, companions, labels)
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		if got := s.Companion(1, nil, rng); got != companions[0] {
			t.Fatal("class-0 pool must contain only the first class-0 image")
		}
		if got := s.Companion(2, nil, rng); got != companions[2] {
			t.Fatal("class-1 pool must contain only the first class-1 image")
		}
	}
	if s.Name() != "subsample-1" {
		t.Fatalf("name %q", s.Name())
	}
}

func TestSubsampleEmptyPoolPanics(t *testing.T) {
	s := NewSubsample(1, nil, nil)
	s.labels = []int{2}
	defer func() {
		if recover() == nil {
			t.Fatal("empty pool must panic")
		}
	}()
	s.Companion(0, nil, rand.New(rand.NewSource(1)))
}

func TestFinetuneStabilityReducesDivergence(t *testing.T) {
	// Fine-tuning with the two-images embedding loss must reduce the
	// embedding distance between paired inputs.
	m := tinyModel(16)
	clean, labels := separableImages(30, 17)
	// companions: brightness-shifted copies (a systematic device gap)
	companions := make([]*imaging.Image, len(clean))
	for i, im := range clean {
		companions[i] = imaging.AdjustBrightness(im, 0.15).Clamp()
	}
	embDist := func() float64 {
		x := imaging.BatchTensor(clean)
		xp := imaging.BatchTensor(companions)
		_, e := m.Forward(x, false)
		e = e.Clone() // the next Forward rewrites the layer's output
		_, ep := m.Forward(xp, false)
		d, _, _ := nn.EmbeddingL2(nil, nil, e, ep)
		return d
	}
	// brief CE pretrain so embeddings are meaningful
	Classifier(m, clean, labels, Config{Epochs: 2, BatchSize: 10, LR: 0.05, Seed: 18})
	before := embDist()
	FinetuneStability(m, clean, labels, StabilityConfig{
		Config: Config{Epochs: 3, BatchSize: 10, LR: 0.02, Seed: 19},
		Alpha:  0.5,
		Loss:   LossEmbedding,
		Scheme: TwoImages{Companions: companions},
	})
	after := embDist()
	if after >= before {
		t.Fatalf("stability training did not reduce embedding distance: %v → %v", before, after)
	}
}

func TestFinetuneStabilityNilSchemeIsPlainFinetune(t *testing.T) {
	m := tinyModel(20)
	images, labels := separableImages(20, 21)
	loss := FinetuneStability(m, images, labels, StabilityConfig{
		Config: Config{Epochs: 1, BatchSize: 10, LR: 0.02, Seed: 22},
	})
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("plain fine-tune loss %v", loss)
	}
}

func TestFinetuneStabilityKLRuns(t *testing.T) {
	m := tinyModel(23)
	images, labels := separableImages(20, 24)
	loss := FinetuneStability(m, images, labels, StabilityConfig{
		Config: Config{Epochs: 1, BatchSize: 10, LR: 0.02, Seed: 25, ClipNorm: 5},
		Alpha:  0.5,
		Loss:   LossKL,
		Scheme: GaussianNoise{Sigma: 0.05},
	})
	if math.IsNaN(loss) {
		t.Fatal("KL stability training produced NaN")
	}
}

func TestStabilityLossString(t *testing.T) {
	if LossKL.String() != "relative entropy" || LossEmbedding.String() != "embedding distance" {
		t.Fatal("loss names wrong")
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Epochs: 2, BatchSize: 8, LR: 0.1}
	if got := c.String(); got == "" {
		t.Fatal("empty config string")
	}
}
