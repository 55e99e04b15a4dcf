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
// usual for unstructured pruning), and the two dense layers — where the
// zeros actually pay for themselves — are re-packed into a compressed sparse
// row form that skips them. The backbone keeps the dense kernels and simply
// multiplies by zeros, as a mobile runtime without sparse conv kernels
// would.
type PrunedBackend struct {
	m           *Model
	embed, head *sparseDense
	keep        float64
	own         Scratch // Infer's
}

// NewPrunedBackend prunes the model's weights in place to the top-keep
// fraction and packs the dense layers. The backend takes ownership of the
// model, whose weights it keeps and reads (the backbone's, pruned, through
// the inference plan); callers hand over a model of their own that has not
// trained, so it carries weights only (see fleet.BackendReplicator).
func NewPrunedBackend(m *Model, keep float64) *PrunedBackend {
	if keep <= 0 || keep > 1 {
		keep = DefaultPruneKeep
	}
	for _, p := range m.Params() {
		if strings.HasSuffix(p.Name, ".weight") {
			pruneToKeep(p.W.Data(), keep)
		}
	}
	return &PrunedBackend{
		m:     m,
		embed: newSparseDense(m.Embed),
		head:  newSparseDense(m.Head),
		keep:  keep,
	}
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

// InferIn implements Backend: pruned-dense backbone, then the sparse-packed
// embedding and head.
func (b *PrunedBackend) InferIn(sc *Scratch, x *tensor.Tensor) []float64 {
	sc.embed = b.embed.apply(sc.embed, b.m.inferPlan().features(sc, x))
	sc.logits = b.head.apply(sc.logits, sc.embed)
	return sc.probs()
}

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

// sparseDense is a CSR-packed dense layer: only surviving weights are
// stored, one row per output unit.
type sparseDense struct {
	rowPtr  []int32
	colIdx  []int32
	val     []float32
	bias    []float32
	in, out int
	relu    bool
}

func newSparseDense(d *Dense) *sparseDense {
	w := d.Weight.W.Data()
	s := &sparseDense{in: d.in, out: d.out, relu: d.ReLU, rowPtr: make([]int32, d.out+1)}
	s.bias = make([]float32, d.out)
	copy(s.bias, d.Bias.W.Data())
	for o := 0; o < d.out; o++ {
		for j := 0; j < d.in; j++ {
			if v := w[o*d.in+j]; v != 0 {
				s.colIdx = append(s.colIdx, int32(j))
				s.val = append(s.val, v)
			}
		}
		s.rowPtr[o+1] = int32(len(s.val))
	}
	return s
}

// apply runs the layer over an (N, in) batch into y, reused when it already
// has the right shape.
func (s *sparseDense) apply(y, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	y = tensor.Reuse(y, n, s.out)
	for i := 0; i < n; i++ {
		row := x.Data()[i*s.in : (i+1)*s.in]
		out := y.Data()[i*s.out : (i+1)*s.out]
		for o := 0; o < s.out; o++ {
			var acc float32
			for p := s.rowPtr[o]; p < s.rowPtr[o+1]; p++ {
				acc += float32(s.val[p] * row[s.colIdx[p]])
			}
			v := acc + s.bias[o]
			if s.relu && v < 0 {
				v = 0
			}
			out[o] = v
		}
	}
	return y
}
