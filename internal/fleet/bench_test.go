package fleet

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/stability"
)

// The capture benchmarks compare the fleet hot path against the sequential
// lab-rig path on the same work unit (one photograph of a displayed item),
// so `go test -bench=Capture ./internal/fleet` prints the speedup the
// subsystem exists for: the rig pays a full-resolution display pass plus an
// interpreted ISP per capture, the fleet amortizes the display across the
// fleet and runs compiled ISPs at model resolution.

// benchCells enumerates a realistic capture mix: many devices over a few
// shared items and angles.
const (
	benchItems  = 4
	benchAngles = 3
)

// BenchmarkSequentialRigCapture reproduces the per-capture cost of a
// sequential five-phone rig: scene rendered once per cell, display +
// full-resolution device.Profile.Capture per photograph.
func BenchmarkSequentialRigCapture(b *testing.B) {
	items := dataset.GenerateHard(benchItems, 3).Items
	phones := device.LabPhones()
	screen := dataset.DefaultScreen()
	// Pre-render scenes: a rig renders each (item, angle) once and reuses
	// it across phones, so rendering is not part of the per-capture cost.
	scenes := map[[2]int]*imaging.Image{}
	for _, it := range items {
		for a := 0; a < benchAngles; a++ {
			scenes[[2]int{it.ID, a}] = it.Render(a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%benchItems]
		a := i % benchAngles
		phone := phones[i%len(phones)]
		rng := rand.New(rand.NewSource(int64(i)))
		displayed := screen.Display(scenes[[2]int{it.ID, a}], rng)
		_ = phone.Capture(displayed, rng)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "captures/sec")
}

// BenchmarkFleetCapture measures the fleet engine on the same mix: shared
// cached display, fused ISP, model-resolution captures.
func BenchmarkFleetCapture(b *testing.B) {
	items := dataset.GenerateHard(benchItems, 3).Items
	gen := NewGenerator(7, 2, 256)
	engine := NewEngine(7, 0, 0)
	// Warm the device and displayed-frame caches; steady-state fleet runs
	// reuse both across thousands of captures.
	devices := make([]*Device, 64)
	for i := range devices {
		devices[i] = gen.Device(i)
	}
	for _, it := range items {
		for a := 0; a < benchAngles; a++ {
			engine.Displayed(it, a)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = engine.Capture(devices[i%len(devices)], items[i%benchItems], i%benchAngles)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "captures/sec")
}

// BenchmarkFleetPoolCapture drives captures through the worker pool — the
// deployed configuration. On multi-core hosts this stacks core-parallelism
// on top of the single-threaded speedup.
func BenchmarkFleetPoolCapture(b *testing.B) {
	items := dataset.GenerateHard(benchItems, 3).Items
	gen := NewGenerator(7, 2, 256)
	engine := NewEngine(7, 0, 0)
	devices := make([]*Device, 64)
	for i := range devices {
		devices[i] = gen.Device(i)
	}
	for _, it := range items {
		for a := 0; a < benchAngles; a++ {
			engine.Displayed(it, a)
		}
	}
	b.ResetTimer()
	NewPool(0).Run(b.N, func(i int) {
		_, _ = engine.Capture(devices[i%len(devices)], items[i%benchItems], i%benchAngles)
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "captures/sec")
}

// BenchmarkObsOverhead measures the telemetry tax on the capture hot path:
// the "off" case is the uninstrumented engine (one nil check), "on" pays
// four clock reads plus three histogram observes and a counter increment
// per capture. The target tracked in BENCH_fleet.json is on/off ≤ 1.02.
func BenchmarkObsOverhead(b *testing.B) {
	items := dataset.GenerateHard(benchItems, 3).Items
	gen := NewGenerator(7, 2, 256)
	devices := make([]*Device, 64)
	for i := range devices {
		devices[i] = gen.Device(i)
	}
	for _, mode := range []struct {
		name string
		tele *Telemetry
	}{
		{"off", nil},
		{"on", NewTelemetry(obs.NewRegistry())},
	} {
		b.Run(mode.name, func(b *testing.B) {
			engine := NewEngine(7, 0, 0)
			engine.tele = mode.tele
			for _, it := range items {
				for a := 0; a < benchAngles; a++ {
					engine.Displayed(it, a)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = engine.Capture(devices[i%len(devices)], items[i%benchItems], i%benchAngles)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "captures/sec")
		})
	}
}

// BenchmarkAccumulatorAdd measures streaming aggregation throughput: the
// aggregator must keep up with every worker's record stream.
func BenchmarkAccumulatorAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	records := make([]*stability.Record, 4096)
	for i := range records {
		records[i] = &stability.Record{
			ItemID:    rng.Intn(64),
			Angle:     rng.Intn(5),
			TrueClass: rng.Intn(5),
			Env:       "device-" + string(rune('a'+rng.Intn(26))),
			Pred:      rng.Intn(5),
			Score:     rng.Float64(),
			TopK:      []int{rng.Intn(5), rng.Intn(5), rng.Intn(5)},
		}
		records[i].TrueClass = records[i].ItemID % 5
	}
	acc := stability.NewAccumulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(records[i%len(records)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkGeneratorSynthesize measures cold device synthesis (profile
// jitter + ISP compilation), the cost an LRU miss pays.
func BenchmarkGeneratorSynthesize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen := NewGenerator(int64(i), 2, 1)
		_ = gen.Device(i % 4096)
	}
}

// BenchmarkCodecRoundtrip isolates the codec leg of the capture hot path
// (encode + decode at fleet capture resolution) — the quant/DCT scratch
// reuse this benchmark guards is a direct lever on captures/sec.
func BenchmarkCodecRoundtrip(b *testing.B) {
	items := dataset.GenerateHard(benchItems, 3).Items
	gen := NewGenerator(7, 2, 256)
	engine := NewEngine(7, 0, 0)
	d := gen.Device(0)
	// A decoded capture is a realistic codec input (processed ISP output).
	img, _ := engine.Capture(d, items[0], 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := d.Profile.Codec.Encode(img)
		_ = enc.Decode(d.Profile.Decode)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "roundtrips/sec")
}

// BenchmarkBackendInfer compares the per-capture inference cost of the
// three runtime variants on one warm backend replica each.
func BenchmarkBackendInfer(b *testing.B) {
	factory := testFactory()
	imgs := make([]*imaging.Image, 8)
	items := dataset.GenerateHard(benchItems, 3).Items
	gen := NewGenerator(7, 2, 256)
	engine := NewEngine(7, 0, 0)
	for i := range imgs {
		imgs[i], _ = engine.Capture(gen.Device(i), items[i%benchItems], i%benchAngles)
	}
	for _, runtime := range nn.Runtimes() {
		b.Run(runtime, func(b *testing.B) {
			backend := factory(runtime)
			x := imaging.BatchTensor(imgs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = backend.Infer(x)
			}
			b.ReportMetric(float64(b.N*len(imgs))/b.Elapsed().Seconds(), "inferences/sec")
		})
	}
}

// BenchmarkFleetCaptureByCohort times one warm capture per lab-phone cohort
// at both capture scales. The cohorts' pipelines differ (median or box
// denoise, sharpen sigma, codec block size) and so do their costs — an
// iphone-xr capture was 2.3× a moto-g5 one while the median filter branched
// on pixel data — which a fleet-wide mean or a median across cohorts hides;
// this is the table capture optimisations are picked from.
func BenchmarkFleetCaptureByCohort(b *testing.B) {
	items := dataset.GenerateHard(benchItems, 3).Items
	for _, scale := range []int{1, 2} {
		gen := NewGenerator(7, scale, 256)
		engine := NewEngine(7, scale, 0)
		for _, it := range items {
			for a := 0; a < benchAngles; a++ {
				engine.Displayed(it, a)
			}
		}
		for i, base := range device.LabPhones() {
			d := gen.Device(i)
			b.Run("scale"+strconv.Itoa(scale)+"/"+base.Name, func(b *testing.B) {
				if d.Cohort != base.Name {
					b.Fatalf("device %d is a %s, want %s", i, d.Cohort, base.Name)
				}
				capture := func(i int) {
					img, _ := engine.Capture(d, items[i%benchItems], i%benchAngles)
					imaging.PutImage(img)
				}
				capture(0) // this pipeline's pooled scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					capture(i)
				}
			})
		}
	}
}

// BenchmarkFinetune times one stable:two-images fine-tune of the committed
// base model: the corpus capture and two epochs of training on a fresh float32
// replica, the work a run with a `stable:*` model waits for before its first
// cell. It is the training yardstick; B/op is what the training step arena is
// held to.
func BenchmarkFinetune(b *testing.B) {
	base, err := lab.LoadBaseModel("../../bench/testdata/base.model")
	if err != nil {
		b.Fatal(err)
	}
	factory := BackendReplicator(lab.DefaultBaseModel().Arch, base)
	m, err := parseModel("stable:two-images")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.finetune(float32Replica(factory))
	}
}
