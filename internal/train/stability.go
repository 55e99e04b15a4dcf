package train

import (
	"math/rand"

	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// StabilityLoss selects the auxiliary loss Ls of the paper's augmented
// objective L = L0 + α·Ls.
type StabilityLoss int

// The two stability losses of §9.1.
const (
	// LossKL is the relative entropy between the prediction distributions
	// of the clean and noisy images.
	LossKL StabilityLoss = iota
	// LossEmbedding is the squared Euclidean distance between the
	// embedding-layer activations of the clean and noisy images.
	LossEmbedding
)

// String implements fmt.Stringer.
func (l StabilityLoss) String() string {
	if l == LossEmbedding {
		return "embedding distance"
	}
	return "relative entropy"
}

// StabilityConfig parameterizes a stability fine-tuning run.
type StabilityConfig struct {
	Config
	Alpha float64       // stability-loss weight α
	Loss  StabilityLoss // which Ls to use
	// Scheme generates the noisy companion; nil means plain fine-tuning
	// (the paper's "no noise" row).
	Scheme NoiseScheme
}

// FinetuneStability fine-tunes the model with the augmented loss
// L = L0(x) + α·Ls(x, x'). Each batch concatenates the clean images and
// their noisy companions so both branches share one forward pass and one set
// of batch statistics, as in the Keras two-input implementation. It returns
// the final epoch's mean combined loss.
func FinetuneStability(m *nn.Model, images []*imaging.Image, labels []int, cfg StabilityConfig) float64 {
	cfg.Config = cfg.Config.withDefaults()
	if cfg.Scheme == nil {
		return Classifier(m, images, labels, cfg.Config)
	}
	if len(images) != len(labels) {
		panic("train: images/labels length mismatch")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	idx := make([]int, len(images))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			n := end - start
			both := make([]*imaging.Image, 2*n)
			batchLabels := make([]int, n)
			for bi, i := range idx[start:end] {
				clean := images[i]
				noisy := cfg.Scheme.Companion(i, clean, rng)
				both[bi] = clean
				both[n+bi] = noisy
				batchLabels[bi] = labels[i]
			}
			x := modelInput(m, both)
			m.ZeroGrad()
			logits, embed := m.Forward(x, true)
			zClean, zNoisy := splitRows(logits, n)
			eClean, eNoisy := splitRows(embed, n)

			ceLoss, ceGrad := nn.CrossEntropy(zClean, batchLabels)
			dLogits := tensor.New(2*n, m.Classes)
			copyRows(dLogits, ceGrad, 0)

			var sLoss float64
			var dEmbed *tensor.Tensor
			switch cfg.Loss {
			case LossEmbedding:
				loss, de, dep := nn.EmbeddingL2(eClean, eNoisy)
				sLoss = loss
				de.Scale(float32(cfg.Alpha))
				dep.Scale(float32(cfg.Alpha))
				dEmbed = tensor.New(2*n, m.EmbedDim)
				copyRows(dEmbed, de, 0)
				copyRows(dEmbed, dep, n)
			default:
				loss, dz, dzp := nn.KLStability(zClean, zNoisy)
				sLoss = loss
				dz.Scale(float32(cfg.Alpha))
				dzp.Scale(float32(cfg.Alpha))
				addRows(dLogits, dz, 0)
				addRows(dLogits, dzp, n)
			}

			m.Backward(dLogits, dEmbed)
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(m.Params(), cfg.ClipNorm)
			}
			opt.Step(m.Params())
			epochLoss += ceLoss + float64(cfg.Alpha*sLoss)
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		cfg.logf("stability epoch %d/%d (%s, α=%g): loss %.4f", epoch+1, cfg.Epochs, cfg.Scheme.Name(), cfg.Alpha, lastLoss)
	}
	return lastLoss
}

// splitRows views a (2n, k) tensor as two (n, k) tensors without copying.
func splitRows(t *tensor.Tensor, n int) (a, b *tensor.Tensor) {
	k := t.Dim(1)
	return tensor.NewFrom(t.Data()[:n*k], n, k), tensor.NewFrom(t.Data()[n*k:], t.Dim(0)-n, k)
}

// copyRows writes src (n,k) into dst starting at row offset.
func copyRows(dst, src *tensor.Tensor, offset int) {
	k := src.Dim(1)
	copy(dst.Data()[offset*k:], src.Data())
}

// addRows accumulates src (n,k) into dst starting at row offset.
func addRows(dst, src *tensor.Tensor, offset int) {
	k := src.Dim(1)
	d := dst.Data()[offset*k : offset*k+src.Len()]
	for i, v := range src.Data() {
		d[i] += v
	}
}
