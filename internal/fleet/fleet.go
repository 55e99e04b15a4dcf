// Package fleet scales the paper's five-phone lab rig into a simulated
// device fleet: thousands of heterogeneous phone profiles synthesized from
// the lab bases, driven concurrently through capture → inference by a
// sharded worker pool, with stability summaries aggregated online while the
// run is in flight. It is the substrate for continuous fleet-level
// instability monitoring (the characterization the paper performs once,
// offline) and the scaffolding later scaling work — distributed shards,
// multiple inference backends — plugs into.
//
// There is one executor, the unexported sweep: each device's whole
// virtual-time timeline (lifecycle events folded at window starts, the
// scene matrix captured, evaluated and filed per window) is one unit of pool
// work. Runner and ContinuousRunner are snapshot views over it — the
// paper's one-shot characterization is a sweep of a single window under an
// empty lifecycle schedule, read back as Stats; a continuous fleet is the
// same sweep over many windows under churn and upgrades, read back as a
// FleetReport. Both render through one device view in device-ID order and
// ship their state to a coordinator in the same shape.
//
// Determinism is the load-bearing property: every stochastic choice (device
// synthesis, screen flicker, sensor noise) draws from an RNG seeded by a
// hash of the fleet seed and the cell's coordinates, never from shared
// state, so a run's results are bit-identical for any worker count.
package fleet

import (
	"math/rand"

	"repro/internal/fmath"
	"repro/internal/nn"
)

// cellRNG returns the dedicated RNG for one simulation cell.
func cellRNG(seed int64, vals ...int64) *rand.Rand {
	return rand.New(rand.NewSource(fmath.Mix(seed, vals...)))
}

// BackendFactory compiles the trained model into the named runtime variant
// (one of nn.Runtimes()). A backend is read-only once built and serves
// concurrent callers, each inferring in a scratch of its own (see
// nn.Backend), so a run calls the factory once per runtime and shares the
// result across all its workers, each of which keeps one nn.Scratch.
// Factories typically rebuild the architecture, restore a snapshot of the
// trained weights, and compile it into the requested runtime. They may be
// called concurrently, for different runtimes.
type BackendFactory func(runtime string) nn.Backend

// BackendReplicator adapts a trained model into a BackendFactory: it
// copies the weights once and, per call, clones that copy (nn.Model.Clone,
// which draws no initialisation) and compiles the clone into the requested
// runtime (float32 reference, int8 quantized, or magnitude-pruned), so no
// backend shares weights with the trained model or with another runtime. A
// replica is weights only: it has never trained, so it carries no gradient
// and no step buffers, unless it is fine-tuned (a stable model's float32
// replica), which gives it its own. arch, the architecture's constructor, is
// not needed to build a clone; the parameter stays for existing callers.
func BackendReplicator(arch func() *nn.Model, trained *nn.Model) BackendFactory {
	return replicator(trained.Clone())
}

// replicator is the BackendFactory of a model no one else holds: each call
// compiles a clone of it.
func replicator(m *nn.Model) BackendFactory {
	return func(runtime string) nn.Backend {
		return nn.NewRuntimeBackend(runtime, m.Clone())
	}
}
