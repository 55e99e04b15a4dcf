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
// of batch statistics, as in the Keras two-input implementation. Without a
// scheme a batch is its clean images and L is L0. It returns the final
// epoch's mean combined loss.
func FinetuneStability(m *nn.Model, images []*imaging.Image, labels []int, cfg StabilityConfig) float64 {
	cfg.Config = cfg.Config.withDefaults()
	if len(images) != len(labels) {
		panic("train: images/labels length mismatch")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	var st step
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
			batch := idx[start:min(start+cfg.BatchSize, len(idx))]
			batchImages, batchLabels := make([]*imaging.Image, 0, 2*len(batch)), make([]int, 0, len(batch))
			for _, i := range batch {
				batchImages = append(batchImages, images[i])
				batchLabels = append(batchLabels, labels[i])
			}
			if cfg.Scheme != nil {
				for _, i := range batch {
					batchImages = append(batchImages, cfg.Scheme.Companion(i, images[i], rng))
				}
			}
			m.ZeroGrad()
			st.input = modelInput(st.input, m, batchImages)
			logits, embed := m.Forward(st.input, true)
			loss, dLogits, dEmbed := cfg.objective(&st, logits, embed, batchLabels)
			m.Backward(dLogits, dEmbed)
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(m.Params(), cfg.ClipNorm)
			}
			opt.Step(m.Params())
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Scheme == nil {
			cfg.logf("epoch %d/%d: loss %.4f", epoch+1, cfg.Epochs, lastLoss)
		} else {
			cfg.logf("stability epoch %d/%d (%s, α=%g): loss %.4f", epoch+1, cfg.Epochs, cfg.Scheme.Name(), cfg.Alpha, lastLoss)
		}
	}
	return lastLoss
}

// step is what a fine-tune's steps write outside the model's layers: the
// input batch, the losses' gradients and the two gradients Model.Backward
// takes. The first step allocates them and every later step rewrites them
// (tensor.Reuse re-slices them for a smaller last batch). The zero value is
// ready.
type step struct {
	input                *tensor.Tensor
	ce, dz, dzp, de, dep *tensor.Tensor
	dLogits, dEmbed      *tensor.Tensor
}

// objective returns a batch's loss and its gradients with respect to the
// logits and the embedding (nil when Ls does not read it), all in st. The
// first len(labels) rows are the clean images; with a scheme, as many noisy
// companions follow.
func (cfg StabilityConfig) objective(st *step, logits, embed *tensor.Tensor, labels []int) (float64, *tensor.Tensor, *tensor.Tensor) {
	n := len(labels)
	if cfg.Scheme == nil {
		var loss float64
		loss, st.ce = nn.CrossEntropy(st.ce, logits, labels)
		return loss, st.ce, nil
	}
	zClean, zNoisy := splitRows(logits, n)
	eClean, eNoisy := splitRows(embed, n)

	ceLoss, ceGrad := nn.CrossEntropy(st.ce, zClean, labels)
	st.ce = ceGrad
	// Cleared: the buffer holds the last step's, and without the KL term
	// the noisy rows' logit gradient is +0.
	st.dLogits = tensor.Reuse(st.dLogits, 2*n, logits.Dim(1))
	st.dLogits.Zero()
	copyRows(st.dLogits, ceGrad, 0)

	var sLoss float64
	var dEmbed *tensor.Tensor
	switch cfg.Loss {
	case LossEmbedding:
		sLoss, st.de, st.dep = nn.EmbeddingL2(st.de, st.dep, eClean, eNoisy)
		st.de.Scale(float32(cfg.Alpha))
		st.dep.Scale(float32(cfg.Alpha))
		st.dEmbed = tensor.Reuse(st.dEmbed, 2*n, embed.Dim(1))
		copyRows(st.dEmbed, st.de, 0)
		copyRows(st.dEmbed, st.dep, n)
		dEmbed = st.dEmbed
	default:
		sLoss, st.dz, st.dzp = nn.KLStability(st.dz, st.dzp, zClean, zNoisy)
		st.dz.Scale(float32(cfg.Alpha))
		st.dzp.Scale(float32(cfg.Alpha))
		addRows(st.dLogits, st.dz, 0)
		addRows(st.dLogits, st.dzp, n)
	}
	return ceLoss + float64(cfg.Alpha*sLoss), st.dLogits, dEmbed
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
