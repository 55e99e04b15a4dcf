package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/fleetd"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// batchKind is what tells the two batch workloads apart: the capture scale
// and the runtime every device is forced onto ("" keeps each device's own).
type batchKind struct {
	scale   int
	runtime string
}

var (
	batchMixed   = batchKind{scale: 2}
	batchFullres = batchKind{scale: 1, runtime: "int8"}
)

func (k batchKind) spec(r *run, devices int) fleetapi.RunSpec {
	return fleetapi.RunSpec{
		Devices: devices, Items: r.sz.BatchItems, Angles: r.sz.BatchAngles,
		Seed: r.mixedSeed(devices), Scale: k.scale, Runtime: k.runtime, Workers: r.opt.procs,
	}
}

// batchInstance builds the fleetd a batch workload posts to and warms it
// with one small run. A run owns its generator, engine and backends, so the
// warm-up reaches only what outlives a run: the heap, the image and arena
// pools and the HTTP path.
func batchInstance(r *run, k batchKind) *instance {
	in := newInstance(r, fleetd.Options{}, false)
	if _, _, err := postRun(in.client, k.spec(r, r.opt.procs)); err != nil {
		fatal(err)
	}
	return in
}

// postRun is one pass: POST /v1/runs, wait, fetch the stats. The wall time
// runs from the POST to the last stats byte received.
func postRun(c *fleetapi.Client, spec fleetapi.RunSpec) ([]byte, time.Duration, error) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := c.CreateRun(ctx, spec)
	if err != nil {
		return nil, 0, err
	}
	if st, err = c.WaitRun(ctx, st.ID, pollEvery); err != nil {
		return nil, 0, err
	}
	if st.State != fleetapi.StateDone {
		return nil, 0, &fleetapi.Error{Code: fleetapi.CodeRunFailed, Message: "run ended " + st.State + " " + st.Error}
	}
	stats, err := c.RunStats(ctx, st.ID)
	return stats, time.Since(t0), err
}

// timedPasses repeats pass until the timed section has lasted -seconds, and
// at least MinPasses times, reading the box's speed between passes. It
// returns each pass's wall time in seconds and the box's speed around it.
func timedPasses(r *run, pass func() (time.Duration, error)) (walls, speeds []float64, failedPasses int) {
	budget := time.Duration(r.opt.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	before := r.box.read()
	for len(walls)+failedPasses < r.sz.MinPasses || time.Since(start)+last/2 < budget {
		wall, err := pass()
		after := r.box.read()
		if err != nil {
			r.printf("pass failed: %v\n", err)
			failedPasses++
		} else {
			last = wall
			walls = append(walls, wall.Seconds())
			speeds = append(speeds, (before+after)/2)
		}
		before = after
	}
	return walls, speeds, failedPasses
}

func batchEndToEnd(k batchKind) func(*run) {
	return func(r *run) {
		in := setUp(r, func() *instance { return batchInstance(r, k) }, (*instance).close)
		defer in.close()

		spec := k.spec(r, r.sz.BatchDevices)
		cells := spec.FleetConfig().Captures()
		var stats [][]byte
		mem := r.readMemory()
		walls, speeds, failedPasses := timedPasses(r, func() (time.Duration, error) {
			b, wall, err := postRun(in.client, spec)
			stats = append(stats, b)
			return wall, err
		})
		r.emitMemory(mem, cells*len(walls))
		r.count(cells*(len(walls)+failedPasses), cells*failedPasses)
		r.emitCellRates(cells, walls, speeds)
		checkBatch(r, spec, stats)
	}
}

// emitCellRates reports a cell workload's cells per second from its pass
// walls.
func (r *run) emitCellRates(cells int, walls, speeds []float64) {
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(cells) / w
	}
	r.emitRates("cells_per_s", rates, speeds)
}

// checkBatch holds the passes to the determinism contract: every pass
// returned the same bytes, they equal what a one-worker in-process runner
// renders, and every cell was captured. Accuracy and the unstable groups are
// printed, not checked: they hang on which four items the seed drew (0.10 to
// 0.90 and 0 to 12 of 12 across seeds), and the snapshot check at load is
// what keeps a degenerate model out.
func checkBatch(r *run, spec fleetapi.RunSpec, stats [][]byte) {
	if len(stats) == 0 {
		r.check(false, "no pass completed")
		return
	}
	same := true
	for _, b := range stats[1:] {
		same = same && bytes.Equal(b, stats[0])
	}
	r.check(same, "stats bytes differ between passes")

	cfg := spec.FleetConfig()
	cfg.Workers = 1
	ref := fleet.NewRunner(cfg, r.factory).Run().JSON()
	r.check(bytes.Equal(ref, stats[0]), "stats differ from a one-worker fleet.NewRunner run")

	var st fleet.Stats
	if err := json.Unmarshal(stats[0], &st); err != nil {
		r.check(false, "stats do not parse: %v", err)
		return
	}
	r.check(st.Captures == cfg.Captures(), "captures = %d, want %d", st.Captures, cfg.Captures())
	r.printf("check: accuracy %.3f, %d of %d groups unstable\n", st.Accuracy, st.Top1.Unstable, st.Top1.Groups)
}

func (k batchKind) cells(r *run) cellSet {
	return cellSet{gridCells(r.sz.BatchDevices, r.sz.BatchItems, r.sz.BatchAngles),
		r.mixedSeed(r.sz.BatchDevices), r.sz.BatchItems, k.scale, k.runtime}
}

// batchLayers splits a batch pass into its layers on a smaller fleet of
// BudgetDevices: the same cells go through the API, through
// fleet.NewRunner at P workers and at one, and through the traced walk, so
// that what the API, the pool and the benchmark's own spans add can each be
// read as a difference between two of them.
func batchLayers(k batchKind) func(*run) {
	return func(r *run) {
		in := setUp(r, func() *instance { return batchInstance(r, k) }, (*instance).close)
		defer in.close()

		spec := k.spec(r, r.sz.BudgetDevices)
		cfgP := spec.FleetConfig()
		cfg1 := cfgP
		cfg1.Workers = 1
		cells := cfgP.Captures()
		var api, poolP, pool1, untraced, traced, layered []float64
		var runner1 *fleet.Runner
		// Interleaved, so that a drifting box slows all five alike.
		for i := 0; i < r.sz.MinPasses; i++ {
			_, wall, err := postRun(in.client, spec)
			r.count(cells, 0)
			if err != nil {
				r.fail("pass: %v", err)
			}
			api = append(api, wall.Seconds())
			t0 := time.Now()
			fleet.NewRunner(cfgP, r.factory).Run()
			poolP = append(poolP, time.Since(t0).Seconds())
			t0 = time.Now()
			runner1 = fleet.NewRunner(cfg1, r.factory)
			runner1.Run()
			pool1 = append(pool1, time.Since(t0).Seconds())

			untraced = append(untraced, walkCells(tracing{}, cfg1, r.factory).Seconds())
			// Span IDs repeat from walk to walk, so only the last one goes
			// into the run's tracer and its dump.
			tr := tracing{obs.NewTracer(1 << 14), r.traceID}
			if i == r.sz.MinPasses-1 {
				tr.t = r.tracer
			}
			traced = append(traced, walkCells(tr, cfg1, r.factory).Seconds())
			var sum time.Duration
			for _, d := range layerSelfTimes(tr.t.Spans(r.traceID)) {
				sum += d
			}
			layered = append(layered, sum.Seconds())
		}
		r.emit("cells_per_s", float64(cells)/metrics.Median(api), nil)
		r.emit("fleetd.run_api_overhead_share", 1-metrics.Median(poolP)/metrics.Median(api), nil)
		r.emit("fleet.pool_efficiency", metrics.Median(pool1)/(float64(r.opt.procs)*metrics.Median(poolP)), nil)
		r.emit("fleet.stats_ms", ms(timeCalls(5, func() { runner1.Stats().JSON() })), nil)
		r.emit("fleet.budget_residual_share", 1-metrics.Median(layered)/metrics.Median(pool1), nil)
		r.emit("bench.trace_overhead_share", metrics.Median(traced)/metrics.Median(untraced)-1, nil)
	}
}
