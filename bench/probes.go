package main

import (
	"math/rand"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/stability"
)

// cell is one (device, item, angle) coordinate of a workload.
type cell struct{ device, item, angle int }

// cellSet is the part of a workload's inputs the shared probes time the
// layers on: its cells, the seed and the size of the item set that give them
// meaning, the scale it captures at and the runtime it forces ("" for each
// device's own).
type cellSet struct {
	cells   []cell
	seed    int64
	items   int
	scale   int
	runtime string
}

// gridCells lists devices x items x angles in run order.
func gridCells(devices, items int, angles []int) []cell {
	var out []cell
	for d := 0; d < devices; d++ {
		for it := 0; it < items; it++ {
			for _, a := range angles {
				out = append(out, cell{d, it, a})
			}
		}
	}
	return out
}

// captureRig is what one capture needs at one scale.
type captureRig struct {
	gen    *fleet.Generator
	engine *fleet.Engine
	items  []*dataset.Item
}

func newRig(seed int64, scale, items int) captureRig {
	return captureRig{fleet.NewGenerator(seed, scale, 0), fleet.NewEngine(seed, scale, 0), fleet.Items(seed, items)}
}

// sharedProbes times every layer below fleetd from outside, on the
// workload's own cells: the per-layer metrics that exist on every workload.
func sharedProbes(r *run) {
	var err error
	if r.factory, err = loadModel(r.sz.ModelCheckItems); err != nil {
		fatal(err)
	}
	cs := r.w.cells(r)
	n := r.sz.ProbeCalls
	seed := cs.seed

	var model32 []*imaging.Image // decoded captures at the model's input size
	for _, scale := range []int{2, 1} {
		rig := newRig(seed, scale, cs.items)
		tele := fleet.NewTelemetry(obs.NewRegistry())
		suffix := map[int]string{2: ".s2", 1: ".s1"}[scale]
		raw := new(sensor.RawImage)
		stage := make([][]float64, 4) // sensor, isp, encode, decode
		var staged, whole, telemetered, bytes, resize []float64
		// One iteration takes the cell apart stage by stage, then captures
		// it whole through the engine, bare and with telemetry attached (as
		// fleetd always runs it): side by side, so that box drift cannot
		// pass for a difference.
		for i := 0; i < n; i++ {
			c := cs.cells[i%len(cs.cells)]
			d, it := rig.gen.Device(c.device), rig.items[c.item]
			displayed := rig.engine.Displayed(it, c.angle)
			rng := rand.New(rand.NewSource(seed + int64(i)))
			t0 := time.Now()
			raw = d.Sensor.CaptureInto(raw, displayed, rng)
			t1 := time.Now()
			processed := d.ISP.Process(raw)
			t2 := time.Now()
			enc := d.Profile.Codec.Encode(processed.Clamp())
			t3 := time.Now()
			imaging.PutImage(processed)
			t4 := time.Now()
			img := enc.DecodeInto(d.Profile.Decode, imaging.GetImage(enc.W, enc.H))
			codec.Release(enc)
			t5 := time.Now()
			sum := 0.0
			for s, dt := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t5.Sub(t4)} {
				stage[s] = append(stage[s], us(dt))
				sum += us(dt)
			}
			staged = append(staged, sum)
			if scale == 1 {
				t0 := time.Now()
				small := imaging.Resize(img, img.W/2, img.H/2)
				resize = append(resize, us(time.Since(t0)))
				imaging.PutImage(img)
				img = small
			}
			if len(model32) < r.sz.NNBatch {
				model32 = append(model32, img)
			} else {
				imaging.PutImage(img)
			}

			// Bare first on even iterations, telemetered first on odd: the
			// second of two captures of one cell finds the caches warmer.
			capture := func(t *fleet.Telemetry) float64 {
				rig.engine.SetTelemetry(t)
				t0 := time.Now()
				img, size := rig.engine.Capture(d, it, c.angle)
				took := us(time.Since(t0))
				imaging.PutImage(img)
				bytes = append(bytes, float64(size))
				return took
			}
			if i%2 == 0 {
				whole = append(whole, capture(nil))
				telemetered = append(telemetered, capture(tele))
			} else {
				telemetered = append(telemetered, capture(tele))
				whole = append(whole, capture(nil))
			}
		}
		for s, name := range []string{"sensor.capture_us", "isp.process_us", "codec.encode_us", "codec.decode_us"} {
			r.emit(name+suffix, metrics.Median(stage[s]), nil)
		}
		if scale == 1 {
			r.emit("imaging.resize_us.s1", metrics.Median(resize), nil)
		}
		r.emit("fleet.capture_us"+suffix, metrics.Median(whole), nil)
		if scale == cs.scale {
			total := 0.0
			for _, b := range bytes {
				total += b
			}
			r.emit("codec.bytes_per_capture", total/float64(len(bytes)), nil)
			r.emit("fleet.capture_residual_share", 1-metrics.Median(staged)/metrics.Median(whole), nil)
			r.emit("obs.telemetry_overhead_share", metrics.Median(telemetered)/metrics.Median(whole)-1, nil)
			probeMisses(r, cs)
		}
	}
	batch := imaging.BatchTensor(model32)
	r.emit("imaging.batch_tensor_us", us(timeCalls(n, func() { imaging.BatchTensor(model32) }))/float64(len(model32)), nil)
	one := imaging.BatchTensor(model32[:1])
	for _, rt := range nn.Runtimes() {
		var backend nn.Backend
		r.emit("nn.compile_ms."+rt, ms(timeCalls(3, func() { backend = r.factory(rt) })), nil)
		backend.Infer(batch) // first call sizes the backend's scratch
		calls := max(3, n/len(model32))
		r.emit("nn.infer_us."+rt, us(timeCalls(calls, func() { backend.Infer(batch) }))/float64(len(model32)), nil)
		r.emit("nn.infer_b1_us."+rt, us(timeCalls(max(3, n/4), func() { backend.Infer(one) })), nil)
		r.emit("nn.alloc_kb."+rt, allocPerCall(3, func() { backend.Infer(batch) })/1024/float64(len(model32)), nil)
	}
	probeStability(r, cs)
}

// probeMisses times what a run pays once per device and once per (item,
// angle): device synthesis and the displayed frame, on cold caches.
func probeMisses(r *run, cs cellSet) {
	rig := newRig(cs.seed, cs.scale, cs.items)
	id := 0
	r.emit("fleet.device_synth_us", us(timeCalls(r.sz.ProbeCalls, func() { rig.gen.Device(id); id++ })), nil)
	seen := map[[2]int]bool{}
	var display []float64
	for _, c := range cs.cells {
		if key := [2]int{c.item, c.angle}; !seen[key] && len(display) < r.sz.ProbeCalls/4 {
			seen[key] = true
			t0 := time.Now()
			rig.engine.Displayed(rig.items[c.item], c.angle)
			display = append(display, ms(time.Since(t0)))
		}
	}
	r.emit("dataset.display_ms", metrics.Median(display), nil)
}

// cellRecords builds one stability record per cell. Predictions are made up
// (right except every fifth): what the stability probes compare is cost,
// which depends on the group and environment structure, not on the labels.
func cellRecords(cs cellSet) []*stability.Record {
	rig := newRig(cs.seed, cs.scale, cs.items)
	out := make([]*stability.Record, len(cs.cells))
	for i, c := range cs.cells {
		d, it := rig.gen.Device(c.device), rig.items[c.item]
		rt := cs.runtime
		if rt == "" {
			rt = d.Profile.RuntimeName()
		}
		pred := int(it.Class)
		if i%5 == 0 {
			pred = (pred + 1) % int(dataset.NumClasses)
		}
		out[i] = &stability.Record{
			ItemID: it.ID, Angle: c.angle, TrueClass: int(it.Class), Env: d.Profile.Name,
			Runtime: rt, Pred: pred, Score: 0.75, TopK: []int{pred, (pred + 1) % int(dataset.NumClasses), (pred + 2) % int(dataset.NumClasses)},
		}
	}
	return out
}

// probeStability times the accumulator at the workload's end-of-run size.
func probeStability(r *run, cs cellSet) {
	records := cellRecords(cs)
	var acc *stability.Accumulator
	add := timeCalls(5, func() {
		acc = stability.NewAccumulator()
		acc.AddAll(records)
	})
	r.emit("stability.add_us", us(add)/float64(len(records)), nil)
	r.emit("stability.snapshot_ms", ms(timeCalls(5, func() { acc.Snapshot() })), nil)
}
