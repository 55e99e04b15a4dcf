package nn

import (
	"math"
	"strings"

	"repro/internal/tensor"
)

// DefaultPruneKeep is the weight fraction the pruned runtime keeps: top-70%
// by magnitude. Without the fine-tuning real pruning pipelines add, this
// micro model tolerates about this much sparsity before accuracy collapses
// — which keeps the variant a plausible shipped build while still diverging
// measurably from the float32 reference.
const DefaultPruneKeep = 0.7

// PrunedBackend is a magnitude-pruned compilation of the classifier: each
// convolution / dense weight matrix keeps only its top-keep fraction of
// entries by absolute value (BatchNorm parameters and biases are spared, as
// usual for unstructured pruning). It runs the float32 plan over the pruned
// weights, multiplying by the zeros as a mobile runtime without sparse
// kernels would.
type PrunedBackend struct {
	m    *Model
	keep float64
	own  Scratch // Infer's
}

// NewPrunedBackend prunes the model's weights in place to the top-keep
// fraction. The backend takes ownership of the model, whose pruned weights
// it keeps and reads through the inference plan; callers hand over a model
// of their own that has not trained, so it carries weights only (see
// fleet.BackendReplicator).
func NewPrunedBackend(m *Model, keep float64) *PrunedBackend {
	if keep <= 0 || keep > 1 {
		keep = DefaultPruneKeep
	}
	for _, p := range m.Params() {
		if strings.HasSuffix(p.Name, ".weight") {
			pruneToKeep(p.W.Data(), keep)
		}
	}
	return &PrunedBackend{m: m, keep: keep}
}

// Name implements Backend.
func (b *PrunedBackend) Name() string { return RuntimePruned }

// NumClasses implements Backend.
func (b *PrunedBackend) NumClasses() int { return b.m.Classes }

// InputSize implements Backend.
func (b *PrunedBackend) InputSize() int { return b.m.InputHW }

// Keep returns the kept weight fraction.
func (b *PrunedBackend) Keep() float64 { return b.keep }

// Infer implements Backend.
func (b *PrunedBackend) Infer(x *tensor.Tensor) []float64 { return b.InferIn(&b.own, x) }

// InferIn implements Backend: the float32 plan over the pruned weights.
func (b *PrunedBackend) InferIn(sc *Scratch, x *tensor.Tensor) []float64 { return b.m.InferIn(sc, x) }

// pruneToKeep zeroes every entry whose magnitude falls below the value at
// the keep-quantile. Ties at the threshold survive, so slightly more than
// keep·len entries may remain; the choice is deterministic either way.
func pruneToKeep(w []float32, keep float64) {
	n := len(w)
	k := int(float64(float64(n)*keep) + 0.5)
	if k >= n {
		return
	}
	if k < 1 {
		k = 1
	}
	threshold := kthLargestMagnitude(w, k)
	for i, v := range w {
		if v < threshold && -v < threshold {
			w[i] = 0
		}
	}
}

// kthLargestMagnitude returns the k-th largest |v| of w, 1 ≤ k ≤ len(w),
// without sorting: with the sign bit cleared a float32's bit pattern orders
// as its magnitude does, so the value is found a byte at a time from the top,
// by counting the magnitudes that share the bytes already chosen.
func kthLargestMagnitude(w []float32, k int) float32 {
	var found uint32
	for shift := 24; shift >= 0; shift -= 8 {
		var count [256]int
		for _, v := range w {
			if b := math.Float32bits(v) &^ (1 << 31); b>>(shift+8) == found>>(shift+8) {
				count[b>>shift&0xff]++
			}
		}
		digit := 255
		for ; count[digit] < k; digit-- {
			k -= count[digit] // all of these are larger
		}
		found |= uint32(digit) << shift
	}
	return math.Float32frombits(found)
}
