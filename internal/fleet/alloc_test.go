package fleet

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Allocation ceilings for the hot paths. These are regression guards, not
// targets: the capture path measures 2 allocs (the returned image's header
// + pixel buffer when the pool is cold), the recycled codec roundtrip 0, and
// inference through nn's per-image plan 8 (float32, int8) and 14 (pruned)
// objects, under 8 KB, whatever the batch — 17 objects when the batch size
// changes from call to call — where a training step writes batch-sized
// buffers of every layer's (kept by the layers for the next step). The ceilings leave slack only for
// pool-refill noise under concurrent GC, so any new per-op allocation — a
// dropped Into-variant, a fresh rand.Rand, an un-pooled scratch buffer —
// trips the guard immediately.
const (
	captureAllocCeiling   = 8
	roundtripAllocCeiling = 8

	planInferAllocCeiling = 40       // objects per Infer, any runtime
	planInferBytesCeiling = 64 << 10 // bytes per Infer, any runtime
)

// TestCaptureAllocCeiling pins the steady-state allocation count of one
// fleet capture (sensor → fused ISP → codec → decode) with the returned
// image recycled, as the runner does after inference.
func TestCaptureAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; alloc counts are not steady-state")
	}
	items := dataset.GenerateHard(benchItems, 3).Items
	gen := NewGenerator(7, 2, 256)
	engine := NewEngine(7, 0, 0)
	devices := make([]*Device, 16)
	for i := range devices {
		devices[i] = gen.Device(i)
	}
	for _, it := range items {
		for a := 0; a < benchAngles; a++ {
			engine.Displayed(it, a)
		}
	}
	// Warm every pool (arena, raw plane, ISP images, codec scratch) across
	// the full device mix before measuring.
	i := 0
	capture := func() {
		img, _ := engine.Capture(devices[i%len(devices)], items[i%benchItems], i%benchAngles)
		imaging.PutImage(img)
		i++
	}
	for n := 0; n < 64; n++ {
		capture()
	}
	if avg := testing.AllocsPerRun(100, capture); avg > captureAllocCeiling {
		t.Fatalf("capture allocates %.1f/op, ceiling %d", avg, captureAllocCeiling)
	}
}

// TestCodecRoundtripAllocCeiling pins the recycled encode→decode loop: with
// Release and DecodeInto the codec reaches steady state with zero
// allocations per roundtrip.
func TestCodecRoundtripAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; alloc counts are not steady-state")
	}
	items := dataset.GenerateHard(benchItems, 3).Items
	gen := NewGenerator(7, 2, 256)
	engine := NewEngine(7, 0, 0)
	d := gen.Device(0)
	img := engine.Displayed(items[0], 0)
	roundtrip := func() {
		enc := d.Profile.Codec.Encode(img)
		out := enc.DecodeInto(d.Profile.Decode, imaging.GetImage(enc.W, enc.H))
		codec.Release(enc)
		imaging.PutImage(out)
	}
	for n := 0; n < 16; n++ {
		roundtrip()
	}
	if avg := testing.AllocsPerRun(100, roundtrip); avg > roundtripAllocCeiling {
		t.Fatalf("codec roundtrip allocates %.1f/op, ceiling %d", avg, roundtripAllocCeiling)
	}
}

// TestInt8InferAllocCeiling holds the quantized runtime to the same ceiling:
// it runs on the same per-image plan, so no op keeps a batch-sized output.
func TestInt8InferAllocCeiling(t *testing.T) { planInferAllocCeilingTest(t, nn.RuntimeInt8) }

// TestFloat32InferAllocCeiling pins the float32 reference arm to its fused
// inference plan: after warm-up an 8-image Infer allocates the output
// buffers and nothing per layer.
func TestFloat32InferAllocCeiling(t *testing.T) { planInferAllocCeilingTest(t, nn.RuntimeFloat32) }

// TestPrunedInferAllocCeiling is the same guard for the pruned runtime,
// whose backbone shares the plan.
func TestPrunedInferAllocCeiling(t *testing.T) { planInferAllocCeilingTest(t, nn.RuntimePruned) }

func planInferAllocCeilingTest(t *testing.T, runtimeName string) {
	if raceEnabled {
		t.Skip("alloc counts are not steady-state under -race")
	}
	backend := testFactory()(runtimeName)
	in := backend.InputSize()
	rng := rand.New(rand.NewSource(9))
	imgs := make([]*imaging.Image, 24)
	for i := range imgs {
		imgs[i] = imaging.New(in, in)
		for j := range imgs[i].Pix {
			imgs[i].Pix[j] = rng.Float32()
		}
	}
	// One batch size repeated, then the sizes a serve worker's micro-batches
	// and the bench probe alternate between: the arena is one image deep, so
	// a changed batch size may reallocate the (N, width) head tensors only.
	for _, sizes := range [][]int{{8}, {1, 5, 24}} {
		var batches []*tensor.Tensor
		for _, n := range sizes {
			batches = append(batches, imaging.BatchTensor(imgs[:n]))
		}
		cycle := func() {
			for _, x := range batches {
				backend.Infer(x)
			}
		}
		cycle()
		calls := float64(len(batches))
		if avg := testing.AllocsPerRun(20, cycle) / calls; avg > planInferAllocCeiling {
			t.Fatalf("%s Infer at batches %v allocates %.1f objects/op, ceiling %d", runtimeName, sizes, avg, planInferAllocCeiling)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		if perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs / calls; perOp > planInferBytesCeiling {
			t.Fatalf("%s Infer at batches %v allocates %.0f B/op, ceiling %d", runtimeName, sizes, perOp, planInferBytesCeiling)
		}
	}
}

// TestEvaluateAllocCeiling pins the model-input leg of a full-resolution
// cell: a warm 12-image train.Evaluate over 64×64 captures allocates its
// three result slices, the input tensor's header and what Infer itself does
// (1.4 KB measured) — a third of a single resized 32×32 image (12 KB) at
// most, where it used to allocate twelve of those and a 147 KB tensor.
func TestEvaluateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; alloc counts are not steady-state")
	}
	const (
		evaluateAllocCeiling = planInferAllocCeiling + 8
		evaluateBytesCeiling = 4 << 10
	)
	backend := testFactory()(nn.RuntimeInt8)
	rng := rand.New(rand.NewSource(9))
	imgs := make([]*imaging.Image, 12)
	for i := range imgs {
		imgs[i] = imaging.New(2*backend.InputSize(), 2*backend.InputSize())
		for j := range imgs[i].Pix {
			imgs[i].Pix[j] = rng.Float32()
		}
	}
	evaluate := func() { train.Evaluate(backend, imgs, 24) }
	evaluate()
	if avg := testing.AllocsPerRun(20, evaluate); avg > evaluateAllocCeiling {
		t.Fatalf("Evaluate allocates %.1f objects/op, ceiling %d", avg, evaluateAllocCeiling)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		evaluate()
	}
	runtime.ReadMemStats(&after)
	if perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs; perOp > evaluateBytesCeiling {
		t.Fatalf("Evaluate allocates %.0f B/op, ceiling %d", perOp, evaluateBytesCeiling)
	}
}

// TestArenaRNGMatchesCellRNG proves the pooled, re-seeded arena RNG is
// stream-identical to the fresh rand.New(rand.NewSource(seed)) the engine
// used before capture arenas — the property that keeps arena reuse out of
// the captured bytes.
func TestArenaRNGMatchesCellRNG(t *testing.T) {
	a := arenaPool.Get().(*captureArena)
	defer arenaPool.Put(a)
	for _, seed := range []int64{0, 1, -7, 1 << 40, fmath.Mix(11, 2, 3, 4, 5)} {
		fresh := cellRNG(seed)
		reused := a.seed(fmath.Mix(seed))
		for i := 0; i < 1000; i++ {
			if f, r := fresh.NormFloat64(), reused.NormFloat64(); f != r {
				t.Fatalf("seed %d draw %d: fresh NormFloat64 %v, arena %v", seed, i, f, r)
			}
			if f, r := fresh.Float64(), reused.Float64(); f != r {
				t.Fatalf("seed %d draw %d: fresh Float64 %v, arena %v", seed, i, f, r)
			}
			if f, r := fresh.Intn(1<<20), reused.Intn(1<<20); f != r {
				t.Fatalf("seed %d draw %d: fresh Intn %v, arena %v", seed, i, f, r)
			}
		}
	}
}

// compileBytesCeiling is what one BackendReplicator call may allocate per
// runtime at the committed model's width: a clone of the weights and the
// compiled program. A model that has never trained carries no gradient
// storage, about 108 KB of it at this width; the calls measure about 127,
// 229 and 200 KB, 11 KB under the initialised architecture with the
// snapshot restored over it that a replica used to be.
var compileBytesCeiling = map[string]uint64{
	nn.RuntimeFloat32: 140 << 10,
	nn.RuntimeInt8:    245 << 10,
	nn.RuntimePruned:  215 << 10,
}

// TestCompileAllocCeiling pins the bytes a run pays for each runtime it
// compiles (every run and serve leg compiles its own): the replica of the
// committed model that BackendReplicator stamps and compiles holds weights
// only.
func TestCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	base, err := lab.LoadBaseModel("../../bench/testdata/base.model")
	if err != nil {
		t.Fatal(err)
	}
	factory := BackendReplicator(lab.DefaultBaseModel().Arch, base)
	for _, rt := range nn.Runtimes() {
		factory(rt)
		const calls = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			factory(rt)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > compileBytesCeiling[rt] {
			t.Errorf("%s: a BackendReplicator call allocates %d KB, ceiling %d KB", rt, got>>10, compileBytesCeiling[rt]>>10)
		}
	}
}
