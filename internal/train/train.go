// Package train implements model training for the reproduction: standard
// cross-entropy pre-training ("pre-trained on ImageNet" stand-in) and the
// paper's stability fine-tuning (§9.1) — the adapted Zheng et al. stability
// training with four noise-generation schemes (Gaussian, distortion,
// two-images, subsample) and two stability losses (relative entropy and
// embedding distance).
package train

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config holds the shared optimization hyperparameters.
type Config struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	ClipNorm    float64 // 0 disables gradient clipping
	Seed        int64
	// Verbose emits one line per epoch via the Log callback.
	Log func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	return c
}

// modelInput resizes and normalizes a training batch into a fresh input
// tensor through imaging.BatchTensorInto, the call Evaluate makes, so train-
// and eval-time preprocessing cannot diverge. Fresh, not pooled: a training
// Forward caches its input for the backward pass.
func modelInput(m *nn.Model, images []*imaging.Image) *tensor.Tensor {
	in := m.InputSize()
	return imaging.BatchTensorInto(tensor.New(len(images), 3, in, in), images)
}

// Classifier trains the model with plain cross-entropy on the given images,
// returning the final training loss. This is the repo's stand-in for
// ImageNet pre-training and for the paper's "no noise" fine-tuning baseline:
// FinetuneStability without a scheme.
func Classifier(m *nn.Model, images []*imaging.Image, labels []int, cfg Config) float64 {
	return FinetuneStability(m, images, labels, StabilityConfig{Config: cfg})
}

// inputBuf is a recycled model-input buffer. Evaluate draws one from a pool
// rather than keeping it on the backend: a worker's cached backend would hold
// 150 KB at fleet batch sizes for as long as it lives, a pool gives it up at
// the next collection.
type inputBuf struct{ data []float32 }

var inputPool = sync.Pool{New: func() any { return new(inputBuf) }}

// Evaluate runs an inference backend over images (resized as needed) and
// returns top-1 predictions, their confidences, and full probability rows.
// Any nn.Backend works here; *nn.Model is the float32 reference.
//
// Each batch is resampled and normalized straight into a pooled input tensor
// (imaging.BatchTensorInto), so images of another resolution cost no
// intermediate image and no batch a fresh tensor; the buffer goes back once
// the last Infer has returned, which is why backends must not retain x.
func Evaluate(b nn.Backend, images []*imaging.Image, batchSize int) (preds []int, scores []float64, probs [][]float64) {
	if batchSize <= 0 {
		batchSize = 64
	}
	classes := b.NumClasses()
	preds = make([]int, len(images))
	scores = make([]float64, len(images))
	probs = make([][]float64, len(images))
	in := b.InputSize()
	buf := inputPool.Get().(*inputBuf)
	defer inputPool.Put(buf)
	for start := 0; start < len(images); start += batchSize {
		end := min(start+batchSize, len(images))
		n := (end - start) * 3 * in * in
		if cap(buf.data) < n {
			buf.data = make([]float32, n)
		}
		x := tensor.NewFrom(buf.data[:n], end-start, 3, in, in)
		p := b.Infer(imaging.BatchTensorInto(x, images[start:end]))
		for i := start; i < end; i++ {
			row := p[(i-start)*classes : (i-start+1)*classes]
			preds[i], scores[i] = Top1(row)
			probs[i] = row
		}
	}
	return preds, scores, probs
}

// Top1 returns the index and value of a probability row's largest entry,
// ties going to the lower class index.
func Top1(row []float64) (pred int, score float64) {
	for c, v := range row {
		if v > row[pred] {
			pred = c
		}
	}
	return pred, row[pred]
}

// TopKOf extracts per-example top-k class lists from probability rows, in
// descending order of value with ties going to the lower class index — the
// selection nn.TopK makes on the float32 tensor the rows were widened from
// (widening is exact, so order and ties carry over), without rebuilding that
// tensor for every cell.
func TopKOf(probs [][]float64, k int) [][]int {
	out := make([][]int, len(probs))
	for i, row := range probs {
		idx := make([]int, 0, min(k, len(row)))
		for len(idx) < cap(idx) {
			best := -1
			for j, v := range row {
				if (best < 0 || v > row[best]) && !slices.Contains(idx, j) {
					best = j
				}
			}
			idx = append(idx, best)
		}
		out[i] = idx
	}
	return out
}

// String renders a config compactly for experiment logs.
func (c Config) String() string {
	return fmt.Sprintf("epochs=%d batch=%d lr=%g momentum=%g wd=%g", c.Epochs, c.BatchSize, c.LR, c.Momentum, c.WeightDecay)
}
