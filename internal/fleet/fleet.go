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

// BackendFactory builds one private inference backend for the named runtime
// variant (one of nn.Runtimes()). Every backend owns inference scratch that
// Infer overwrites (see nn.Backend), so concurrent workers cannot share one;
// the pool calls the factory per (worker, runtime) and LRU-caches the
// replicas, each of which retains its weights and that scratch. Factories
// typically rebuild the architecture, restore a snapshot of the trained
// weights, and compile it into the requested runtime.
type BackendFactory func(runtime string) nn.Backend

// BackendReplicator adapts a trained model into a BackendFactory: it
// snapshots the weights once and, per call, stamps them into a fresh
// architecture and compiles that replica into the requested runtime
// (float32 reference, int8 quantized, or magnitude-pruned).
func BackendReplicator(arch func() *nn.Model, trained *nn.Model) BackendFactory {
	snap := trained.TakeSnapshot()
	return func(runtime string) nn.Backend {
		m := arch()
		m.Restore(snap)
		return nn.NewRuntimeBackend(runtime, m)
	}
}
