package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleetapi"
	"repro/internal/fleetd"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
)

// serveKind tells the two serve workloads apart.
type serveKind struct{ hot bool }

var (
	serveSpread  = serveKind{}
	serveHotcell = serveKind{hot: true}
)

func (k serveKind) sizes(r *run) serveSizes {
	if k.hot {
		return r.sz.Hot
	}
	return r.sz.Spread
}

// Serve classes. Requests are judged under benchClass, whose rate and queue
// limits are set so high that admission never sheds: on these workloads no
// operation may fail. checkClass re-serves sampled cells unbatched.
const (
	benchClass = "bench"
	checkClass = "check"
)

func serveClasses(sz serveSizes) []fleetapi.SLOClass {
	open := fleetapi.SLOClass{TargetNanos: int64(sz.SLOMs * 1e6), RatePerSec: 1e6, Burst: 1 << 20, QueueDepth: 1 << 14}
	bench, check := open, open
	bench.Name, bench.MaxBatch, bench.LingerMillis = benchClass, sz.MaxBatch, sz.LingerMs
	check.Name = checkClass
	return []fleetapi.SLOClass{bench, check}
}

// runtimeMix is the traffic's runtime mix: float32, int8 and pruned in the
// 3:2:1 the fleet generator assigns devices, but requested explicitly, so
// that every seed draws exactly the same mix and costs the same.
var runtimeMix = []struct {
	runtime string
	parts   int // of 6
}{{nn.RuntimeFloat32, 3}, {nn.RuntimeInt8, 2}, {nn.RuntimePruned, 1}}

// cohorts builds one open-loop step: one cohort per runtime of the mix (the
// hot-cell workload forces float32 alone, or its ten cells would be thirty),
// each with an exact request budget.
func (k serveKind) cohorts(sz serveSizes, step string, rate, seconds float64) []loadgen.Cohort {
	base := loadgen.Cohort{Class: benchClass, Dist: sz.Dist, Shape: sz.Shape, Devices: sz.Devices, Items: sz.Items, Scale: 2}
	if k.hot {
		base.Name, base.Runtime = step, nn.RuntimeFloat32
		base.RatePerSec, base.Requests = rate, max(1, int(rate*seconds))
		return []loadgen.Cohort{base}
	}
	var out []loadgen.Cohort
	for _, m := range runtimeMix {
		c := base
		c.Name, c.Runtime = step+"."+m.runtime, m.runtime
		c.RatePerSec = rate * float64(m.parts) / 6
		c.Requests = max(1, int(c.RatePerSec*seconds))
		out = append(out, c)
	}
	return out
}

// schedule expands one step into its arrivals and times the expansion.
func (k serveKind) schedule(r *run, step string, rate, seconds float64) ([]loadgen.Arrival, time.Duration) {
	spec := loadgen.WorkloadSpec{Name: r.w.name + "." + step, Seed: r.opt.seed, Cohorts: k.cohorts(k.sizes(r), step, rate, seconds)}
	t0 := time.Now()
	arrivals, err := loadgen.Schedule(spec)
	if err != nil {
		fatal(err)
	}
	return arrivals, time.Since(t0)
}

func (k serveKind) cells(r *run) cellSet {
	sz := k.sizes(r)
	arrivals, _ := k.schedule(r, "hi", sz.HiRate, r.opt.seconds*sz.HiShare)
	cs := cellSet{seed: r.opt.seed, items: sz.Items, scale: 2}
	for _, a := range arrivals {
		cs.cells = append(cs.cells, cell{a.Device, a.Item, a.Angle})
	}
	return cs
}

// serveInstance builds the fleetd a serve workload fires at and warms it
// with closed-loop requests from P callers: every runtime on every worker,
// and on serve_spread every device, so that no timed request pays for a
// device synthesis, a displayed frame or a backend compile.
func (k serveKind) instance(r *run) *instance {
	sz := k.sizes(r)
	in := newInstance(r, fleetd.Options{Serve: fleetd.ServeOptions{Classes: serveClasses(sz), Workers: r.opt.procs}}, sz.Sockets)
	n := 8 * r.opt.procs * len(runtimeMix)
	if sz.WarmPerDevice {
		n = max(n, sz.Devices)
	}
	reqs := make([]fleetapi.ServeRequest, n)
	for i := range reqs {
		reqs[i] = fleetapi.ServeRequest{
			Device: i % sz.Devices, Item: i % sz.Items, Angle: (i / sz.Items) % 5, Seed: r.opt.seed,
			Items: sz.Items, Scale: 2, Runtime: runtimeMix[i%len(runtimeMix)].runtime, Class: benchClass,
		}
	}
	if _, failed := closedLoop(in.client, reqs, r.opt.procs, 0); failed > 0 {
		fatal(fmt.Errorf("warm-up: %d of %d requests failed", failed, n))
	}
	return in
}

// sample is one request's outcome. lat and late run from the instant the
// request was due, so a stalled system is charged for the requests it delays.
type sample struct {
	a    loadgen.Arrival
	lat  time.Duration // due -> reply read
	late time.Duration // due -> handed to its goroutine
	due  time.Time
	resp fleetapi.ServeResponse
	err  error
}

// openLoop fires the arrivals on schedule, whatever the replies do: one
// goroutine sleeps to each due time and hands the request to a goroutine of
// its own. loadgen.Fire is not used because it stamps latency at send, which
// forgives the generator's own lateness.
func openLoop(c *fleetapi.Client, seed int64, arrivals []loadgen.Arrival) []sample {
	out := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(time.Duration(a.OffsetNanos))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			late := time.Since(due)
			resp, err := c.Serve(context.Background(), a.ServeRequest(seed))
			out[i] = sample{a: a, lat: time.Since(due), late: late, due: due, resp: resp, err: err}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop has callers goroutines each send their next request only after
// the previous reply: for length, cycling through reqs, or once through reqs
// when length is 0. It returns completions and failures.
func closedLoop(c *fleetapi.Client, reqs []fleetapi.ServeRequest, callers int, length time.Duration) (completed, failed int) {
	var next, done, bad atomic.Int64
	deadline := time.Now().Add(length)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (length == 0 && i >= len(reqs)) || (length > 0 && !time.Now().Before(deadline)) {
					return
				}
				if _, err := c.Serve(context.Background(), reqs[i%len(reqs)]); err != nil {
					bad.Add(1)
				} else {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), int(bad.Load())
}

// serveSteps is everything one serve run measures: the two open-loop steps
// and the closed-loop saturation segments.
type serveSteps struct {
	lo, hi     []sample
	satRates   []float64 // completions per second, one per segment
	satSpeeds  []float64 // the box's speed around each segment
	scheduleUs float64   // loadgen.Schedule time per arrival
	requests   int
	failed     int
}

// open returns the samples of both open-loop steps, lo first.
func (st serveSteps) open() []sample { return append(append([]sample(nil), st.lo...), st.hi...) }

// steps runs lo, hi and sat for the given share of -seconds.
func (k serveKind) steps(r *run, in *instance, share float64) serveSteps {
	sz := k.sizes(r)
	seconds := r.opt.seconds * share
	var st serveSteps
	lo, loTime := k.schedule(r, "lo", sz.LoRate, seconds*sz.LoShare)
	hi, hiTime := k.schedule(r, "hi", sz.HiRate, seconds*sz.HiShare)
	st.scheduleUs = us(loTime+hiTime) / float64(len(lo)+len(hi))
	st.lo = openLoop(in.client, r.opt.seed, lo)
	st.hi = openLoop(in.client, r.opt.seed, hi)

	satReqs := make([]fleetapi.ServeRequest, len(hi))
	for i, a := range hi {
		satReqs[i] = a.ServeRequest(r.opt.seed)
	}
	callers := sz.SatCallers
	if callers == 0 {
		callers = r.opt.procs
	}
	segment := time.Duration(seconds * sz.SatShare / float64(r.sz.SatSegments) * float64(time.Second))
	before := r.box.read()
	for i := 0; i < r.sz.SatSegments; i++ {
		t0 := time.Now()
		done, failed := closedLoop(in.client, satReqs, callers, segment)
		st.satRates = append(st.satRates, float64(done)/time.Since(t0).Seconds())
		after := r.box.read()
		st.satSpeeds = append(st.satSpeeds, (before+after)/2)
		before = after
		st.requests += done + failed
		st.failed += failed
	}
	for _, s := range st.open() {
		st.requests++
		if s.err != nil {
			st.failed++
		}
	}
	return st
}

// segmentQuantiles splits a step's samples, in arrival order, into MinPasses
// equal segments and returns each segment's latency quantile in ms. A failed
// request has no latency; it is counted in fail_share and misses the SLO.
func segmentQuantiles(samples []sample, segments int, q float64) []float64 {
	out := make([]float64, 0, segments)
	for s := 0; s < segments; s++ {
		var lats []float64
		for _, sm := range samples[len(samples)*s/segments : len(samples)*(s+1)/segments] {
			if sm.err == nil {
				lats = append(lats, ms(sm.lat))
			}
		}
		out = append(out, quantile(lats, q))
	}
	return out
}

func (k serveKind) emit(r *run, st serveSteps) {
	sz := k.sizes(r)
	r.emitRates("sat_rps", st.satRates, st.satSpeeds)
	r.emitMedian("lat_p50_ms.hi", segmentQuantiles(st.hi, r.sz.MinPasses, 0.5))
	r.emitMedian("lat_p50_ms.lo", segmentQuantiles(st.lo, r.sz.MinPasses, 0.5))

	// The tail is taken over the whole step: the highest percentile up to
	// p99 that still has ten samples beyond it.
	var lats, queue, service, httpJSON, late []float64
	var batchSum float64
	missed, shedRate, shedQueue := 0, 0, 0
	for _, s := range st.hi {
		late = append(late, ms(s.late))
		var apiErr *fleetapi.Error
		if errors.As(s.err, &apiErr) {
			switch apiErr.Code {
			case fleetapi.CodeRateLimited:
				shedRate++
			case fleetapi.CodeQueueFull:
				shedQueue++
			}
		}
		if s.err != nil || ms(s.lat) > sz.SLOMs {
			missed++
		}
		if s.err != nil {
			continue
		}
		lats = append(lats, ms(s.lat))
		queue = append(queue, float64(s.resp.QueueNanos)/1e6)
		service = append(service, float64(s.resp.TotalNanos-s.resp.QueueNanos)/1e6)
		httpJSON = append(httpJSON, ms(s.lat)-float64(s.resp.TotalNanos)/1e6)
		batchSum += float64(s.resp.BatchSize)
	}
	if len(lats) == 0 {
		return // every request failed and is counted; there is nothing to summarise
	}
	tail := tailQuantile(len(lats))
	r.printf("tail: lat_p99_ms.hi is p%.1f of %d samples\n", tail*100, len(lats))
	r.emit("lat_p99_ms.hi", quantile(lats, tail), nil)
	r.emit("slo_miss_share.hi", float64(missed)/float64(len(st.hi)), nil)
	r.emit("fleetd.queue_wait_ms.p50", quantile(queue, 0.5), nil)
	r.emit("fleetd.queue_wait_ms.p99", quantile(queue, tail), nil)
	r.emit("fleetd.service_ms.p50", quantile(service, 0.5), nil)
	r.emit("fleetd.batch_mean", batchSum/float64(max(len(lats), 1)), nil)
	r.emit("fleetd.shed_share.rate", float64(shedRate)/float64(len(st.hi)), nil)
	r.emit("fleetd.shed_share.queue", float64(shedQueue)/float64(len(st.hi)), nil)
	r.emit("fleetapi.http_json_ms.p50", quantile(httpJSON, 0.5), nil)
	r.emit("loadgen.schedule_us", st.scheduleUs, nil)
	r.emit("loadgen.late_ms.p99", quantile(late, tail), nil)
	tenth := max(len(lats)/10, 1)
	r.emit("loadgen.backlog_ms.hi", metrics.Median(lats[len(lats)-tenth:])-metrics.Median(lats[:tenth]), nil)

	seen := map[string]bool{}
	dups := 0
	for _, s := range st.hi {
		if key := cellKey(s.a); seen[key] {
			dups++
		} else {
			seen[key] = true
		}
	}
	r.emit("loadgen.dup_cell_share", float64(dups)/float64(len(st.hi)), nil)
}

func cellKey(a loadgen.Arrival) string {
	return fmt.Sprintf("%d/%d/%d/%s", a.Device, a.Item, a.Angle, a.Runtime)
}

func serveEndToEnd(k serveKind) func(*run) {
	return func(r *run) {
		in := setUp(r, func() *instance { return k.instance(r) }, (*instance).close)
		defer in.close()
		mem := r.readMemory()
		st := k.steps(r, in, 1)
		r.emitMemory(mem, st.requests)
		r.count(st.requests, st.failed)
		k.emit(r, st)
		checkServe(r, in, st)
	}
}

// checkServe holds the replies to the determinism contract: every reply for
// one cell carries the same prediction, score and capture size, however it
// was batched, and 64 sampled cells served again unbatched agree with them.
func checkServe(r *run, in *instance, st serveSteps) {
	type answer struct {
		pred, bytes int
		score       float64
	}
	first := map[string]answer{}
	var order []sample
	same := true
	for _, s := range st.open() {
		if s.err != nil {
			continue
		}
		got := answer{s.resp.Pred, s.resp.Bytes, s.resp.Score}
		if want, ok := first[cellKey(s.a)]; !ok {
			first[cellKey(s.a)] = got
			order = append(order, s)
		} else if want != got {
			same = false
		}
	}
	r.check(same, "replies for one cell differ")
	agree := true
	for i := 0; i < 64 && i < len(order); i++ {
		s := order[i*len(order)/min(64, len(order))]
		req := s.a.ServeRequest(r.opt.seed)
		req.Class = checkClass
		resp, err := in.client.Serve(context.Background(), req)
		agree = agree && err == nil && resp.BatchSize == 1 &&
			first[cellKey(s.a)] == answer{resp.Pred, resp.Bytes, resp.Score}
	}
	r.check(agree && len(order) > 0, "cells served again unbatched disagree with the timed replies")
}

// serveLayers runs shorter steps and lays the hi step out as spans: the
// client-observed request is the root, fleetd's admitted-to-replied time its
// child, and the queue wait and capture and inference stages its children in
// turn, all read from the reply.
func serveLayers(k serveKind) func(*run) {
	return func(r *run) {
		in := setUp(r, func() *instance { return k.instance(r) }, (*instance).close)
		defer in.close()
		st := k.steps(r, in, 0.6)
		r.count(st.requests, st.failed)
		k.emit(r, st)

		t0 := time.Now()
		tr := tracing{r.tracer, r.traceID}
		step := tr.start(nil, "bench.step")
		for i, s := range st.hi {
			if s.err == nil {
				recordRequest(r.tracer, r.traceID, step.SpanID(), i, s)
			}
		}
		step.End()
		wall := st.hi[len(st.hi)-1].due.Add(st.hi[len(st.hi)-1].lat).Sub(st.hi[0].due)
		r.emit("bench.trace_overhead_share", time.Since(t0).Seconds()/wall.Seconds(), nil)
	}
}

// recordRequest records one served request's spans.
func recordRequest(t *obs.Tracer, trace, parent string, i int, s sample) {
	q := strconv.Itoa(i)
	span := func(parent, name string, start time.Time, d time.Duration) (string, time.Time) {
		id := obs.SpanID(trace, name, q)
		t.Record(obs.Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: start.Add(d).UnixNano()})
		return id, start.Add(d)
	}
	total := time.Duration(s.resp.TotalNanos)
	root, _ := span(parent, "fleetapi.request", s.due, s.lat)
	// fleetd's share sits in the middle of the request: what the client saw
	// beyond it is split evenly between the way in and the way out.
	serve, _ := span(root, "fleetd.serve", s.due.Add((s.lat-total)/2), total)
	_, at := span(serve, "fleetd.queue", s.due.Add((s.lat-total)/2), time.Duration(s.resp.QueueNanos))
	_, at = span(serve, "sensor.capture", at, time.Duration(s.resp.StageNanos.Sensor))
	_, at = span(serve, "isp.process", at, time.Duration(s.resp.StageNanos.ISP))
	_, at = span(serve, "codec.roundtrip", at, time.Duration(s.resp.StageNanos.Codec))
	span(serve, "nn.inference", at, time.Duration(s.resp.StageNanos.Inference))
}
