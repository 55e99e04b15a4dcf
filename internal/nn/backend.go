package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Backend is an inference runtime: one concrete compilation of the trained
// classifier. The paper's §7 observation is that the runtime stack itself is
// a divergence source — the same weights quantized or differently compiled
// produce different labels on near-identical inputs — so the reproduction
// models the runtime as a first-class axis next to sensors, ISPs and codecs.
//
// Infer consumes a batch (N, 3, H, W) at the backend's input resolution and
// returns softmax class probabilities as a flat row-major (N × NumClasses)
// slice. The returned slice is freshly allocated and owned by the caller —
// implementations must not recycle it across calls (callers retain
// sub-slices of it; internal scratch is fine, the output buffer is not).
// The input goes the other way: x is the caller's and may be recycled as soon
// as Infer returns (train.Evaluate pools it), so implementations must not
// retain it or return views of it.
// Implementations are deterministic: the same input yields the same bytes on
// every call, in any scratch and at any worker count.
//
// A backend is a compiled program, read-only once built: everything a call
// writes — the one-image activation arena, the im2col and quantized panels,
// the head tensors — is an nn.Scratch (about 0.5 MB warm at the default
// width, whichever runtimes it has served). InferIn runs in the caller's
// scratch and is safe for any number of concurrent callers, each with its
// own, so one backend per runtime serves a whole fleet of workers; Infer runs
// in a scratch the backend allocates on first use and, like that scratch, is
// for one caller at a time. Neither fills the layers' training caches (im2col
// panels, cached inputs and outputs): a backend that is only inferred on
// retains its weights and, if Infer was called, its own scratch.
type Backend interface {
	// Name identifies the runtime variant (e.g. "float32", "int8").
	Name() string
	// Infer returns row-major softmax probabilities for the batch, computed
	// in the backend's own scratch.
	Infer(x *tensor.Tensor) []float64
	// InferIn is Infer in the caller's scratch.
	InferIn(sc *Scratch, x *tensor.Tensor) []float64
	// NumClasses is the width of one probability row.
	NumClasses() int
	// InputSize is the square input resolution the backend expects.
	InputSize() int
}

// Runtime variant names. RuntimeFloat32 is the reference stack (*Model's
// inference plan, bit-identical to its eval-mode Forward); the others are
// derived compilations of the same weights.
const (
	RuntimeFloat32 = "float32"
	RuntimeInt8    = "int8"
	RuntimePruned  = "pruned"
)

// Runtimes returns every known runtime variant, in deterministic order.
func Runtimes() []string { return []string{RuntimeFloat32, RuntimeInt8, RuntimePruned} }

// ValidRuntime reports whether name names a known runtime variant.
func ValidRuntime(name string) bool {
	for _, r := range Runtimes() {
		if r == name {
			return true
		}
	}
	return false
}

// RuntimeOrDefault resolves a possibly-empty runtime name: the empty string
// means the float32 reference (profiles and records predating the runtime
// axis). Every layer that defaults a runtime name goes through this one
// helper so the rule cannot drift.
func RuntimeOrDefault(name string) string {
	if name == "" {
		return RuntimeFloat32
	}
	return name
}

// NewRuntimeBackend compiles a model into the named runtime variant. The
// model is consumed: float32 wraps it directly, int8 reads its weights, and
// pruned rewrites them in place — callers hand over a model of their own (see
// fleet.BackendReplicator). It panics on unknown variants; validate with
// ValidRuntime at configuration boundaries.
func NewRuntimeBackend(runtime string, m *Model) Backend {
	switch runtime {
	case RuntimeFloat32:
		return m
	case RuntimeInt8:
		return NewInt8Backend(m)
	case RuntimePruned:
		return NewPrunedBackend(m, DefaultPruneKeep)
	default:
		panic(fmt.Sprintf("nn: unknown runtime %q (want one of %v)", runtime, Runtimes()))
	}
}

// Name implements Backend: a *Model is the float32 reference runtime.
func (m *Model) Name() string { return RuntimeFloat32 }

// NumClasses implements Backend.
func (m *Model) NumClasses() int { return m.Classes }

// InputSize implements Backend.
func (m *Model) InputSize() int { return m.InputHW }

// Infer implements Backend.
func (m *Model) Infer(x *tensor.Tensor) []float64 { return m.InferIn(&m.own, x) }

// InferIn implements Backend: the fused inference plan of the backbone, the
// embedding and head without their training caches, and softmax, flattened
// row-major. It is bit-identical to the softmax of the eval-mode Forward, and
// reads the live weights, so it may follow training steps — but not run
// concurrently with one.
func (m *Model) InferIn(sc *Scratch, x *tensor.Tensor) []float64 {
	sc.embed = denseInfer(sc.embed, m.inferPlan().features(sc, x), m.Embed)
	sc.logits = denseInfer(sc.logits, sc.embed, m.Head)
	return sc.probs()
}

// inferPlan returns the backbone's inference plan, compiled on first use.
func (m *Model) inferPlan() *inferPlan {
	m.planOnce.Do(func() { m.plan = newInferPlan(m.Backbone.Layers, false) })
	return m.plan
}

// flatProbs converts an (N, classes) probability tensor to the Backend wire
// shape.
func flatProbs(p *tensor.Tensor) []float64 {
	out := make([]float64, p.Len())
	for i, v := range p.Data() {
		out[i] = float64(v)
	}
	return out
}
