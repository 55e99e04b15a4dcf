package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
	procs   int
}

// run is one execution of one workload: its sizes, the model, and the
// metrics and verdict it accumulates.
type run struct {
	w   workload
	sz  sizes
	opt options
	out io.Writer

	box     *box                 // yardstick readings taken through the run
	factory fleet.BackendFactory // over the snapshot; set by every set-up
	values  map[string]metricValue
	seeds   map[int]int64 // mixedSeed by fleet size
	ops     int           // attempted operations: cells, requests and correctness checks
	failed  int
	tracer  *obs.Tracer // traced pass only
	traceID string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRun(w workload, sz sizes, opt options, out io.Writer) *run {
	return &run{w: w, sz: sz, opt: opt, out: out, values: map[string]metricValue{}, seeds: map[int]int64{},
		traceID: fmt.Sprintf("%s-%d", w.name, opt.seed)}
}

func (r *run) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

// printHeader prints what a reader needs to compare two logs: the box, the
// build, the seed and every frozen size and rate.
func (r *run) printHeader() {
	r.printf("bench: workload=%s trace=%v seed=%d seconds=%g\n", r.w.name, r.opt.trace, r.opt.seed, r.opt.seconds)
	r.printf("bench: why: %s\n", r.w.why)
	r.printf("bench: GOMAXPROCS=%d (P) nproc=%d %s commit=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	r.printf("bench: sizes: %+v\n", r.sz)
}

// execute runs the workload and prints the result line; the return value is
// the process exit code.
func (r *run) execute() int {
	r.box = newBox(r.opt.procs, r.sz.YardUnits)
	if r.opt.trace {
		r.tracer = obs.NewTracer(1 << 17)
		sharedProbes(r)
		r.w.layers(r)
	} else {
		r.w.endToEnd(r)
	}
	for i := 0; i < 2; i++ {
		r.box.read()
	}
	speed, drift := metrics.Median(r.box.readings), iqrShare(r.box.readings)
	r.emit("box.calib_mops", speed, nil)
	r.emit("box.calib_drift_share", drift, nil)
	r.emit("fail_share", float64(r.failed)/float64(max(r.ops, 1)), nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.emit("peak_mem_mb", float64(ms.Sys)/(1<<20), nil)
	if r.opt.trace {
		if err := r.dumpTrace(); err != nil {
			r.fail("trace dump: %v", err)
		}
	}
	if drift > 0.10 {
		r.printf("unresolved: the box's speed spread %.0f%% around %.0f Mops over %d readings; apart from ops_per_s, which is scaled by them, the timings of this run are not comparable\n",
			drift*100, speed, len(r.box.readings))
	}
	for _, d := range dictionary(r.opt.trace) {
		if _, ok := r.values[d.name]; ok {
			continue
		}
		if d.appliesTo(r.w.name) {
			r.fail("metric %s was not measured", d.name)
		}
		r.values[d.name] = metricValue{0, d.unit}
		r.printf("metric %s = n/a on %s\n", d.name, r.w.name)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.ops, 1),
		"failed":    r.failed,
		"metrics":   r.values,
	})
	if err != nil {
		fatal(err)
	}
	r.printf("%s\n", line)
	if r.failed > 0 {
		return 1
	}
	return 0
}

// emit records one metric and prints it with its unit and, when the value
// is a median, the per-pass or per-segment values behind it.
func (r *run) emit(name string, value float64, parts []float64) {
	d, ok := lookup(name)
	switch {
	case !ok:
		panic("bench: metric " + name + " is not in the dictionary")
	case d.endToEnd == r.opt.trace:
		// A traced run reports per-layer metrics only, an untraced one
		// end-to-end metrics only; the other kind is printed for the log.
		r.printf("(not reported) ")
	default:
		if _, dup := r.values[name]; dup {
			panic("bench: metric " + name + " emitted twice")
		}
		r.values[name] = metricValue{value, d.unit}
	}
	r.printf("metric %s = %.6g %s", name, value, d.unit)
	if len(parts) > 0 {
		r.printf("  %s", formatParts(parts))
	}
	r.printf("\n")
}

func formatParts(parts []float64) string {
	strs := make([]string, len(parts))
	for i, p := range parts {
		strs[i] = fmt.Sprintf("%.5g", p)
	}
	return "[" + strings.Join(strs, " ") + "]"
}

// emitMedian emits the median of per-pass or per-segment values.
func (r *run) emitMedian(name string, parts []float64) { r.emit(name, metrics.Median(parts), parts) }

// emitRates reports a workload's throughput from the rates of its passes or
// segments: their median under the workload's own name for it, and as
// ops_per_s the median of the rates scaled to the reference box. speeds[i] is
// the yardstick's reading around pass i, the mean of the one before it and the
// one after, and a pass read at r.sz.RefMops counts as it is. On a shared box
// a neighbour slows whole runs by a tenth to a half, so the raw medians of ten
// runs spread 13-20% where the scaled ones spread 3-8%.
func (r *run) emitRates(own string, rates, speeds []float64) {
	scaled := make([]float64, len(rates))
	for i, rate := range rates {
		scaled[i] = rate * r.sz.RefMops / speeds[i]
	}
	r.emitMedian("ops_per_s", scaled)
	r.emitMedian(own, rates)
	r.printf("yardstick around each pass, Mops: %s\n", formatParts(speeds))
}

// count adds attempted operations, some of which may have failed.
func (r *run) count(attempted, failed int) {
	r.ops += attempted
	r.failed += failed
}

// check records one correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	r.ops++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	r.printf("FAIL: "+format+"\n", args...)
}

// setUp builds the workload's servers three times and keeps the last build,
// so that setup_s is a median and not the one cold start. One set-up is the
// snapshot load and check, the build, and the build's own warm-up; the first
// is timed from process start.
func setUp[T any](r *run, build func() T, tearDown func(T)) T {
	var last T
	setups := r.sz.Setups
	if r.opt.trace {
		setups = 1 // a traced run does not report setup_s
	}
	var took []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		} else {
			tearDown(last)
		}
		var err error
		if r.factory, err = loadModel(r.sz.ModelCheckItems); err != nil {
			fatal(err)
		}
		last = build()
		took = append(took, time.Since(t0).Seconds())
		r.box.read()
	}
	if !r.opt.trace {
		r.emitMedian("setup_s", took)
	}
	return last
}

// readMemory returns the bytes allocated so far, the yardstick's own left
// out; it is read before a timed section.
func (r *run) readMemory() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - r.box.allocated
}

// emitMemory reports what the timed section allocated per operation, and the
// heap still reachable now that it is over with the servers still up: their
// caches, histories and pools. Two collections, because a sync.Pool keeps
// its contents through one.
func (r *run) emitMemory(start uint64, ops int) {
	r.emit("alloc_kb_per_op", float64(r.readMemory()-start)/1024/float64(max(ops, 1)), nil)
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.emit("retained_mem_mb", float64(ms.HeapAlloc)/(1<<20), nil)
}

// dumpTrace writes the traced pass's spans as NDJSON and prints each layer's
// self time and share.
func (r *run) dumpTrace() error {
	spans := r.tracer.Spans(r.traceID)
	if len(spans) == 0 {
		return fmt.Errorf("traced pass recorded no spans")
	}
	path := filepath.Join(r.opt.out, fmt.Sprintf("bench-%s.trace.ndjson", r.traceID))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tracer.WriteNDJSON(f, r.traceID); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.printf("trace: %d spans -> %s\n", len(spans), path)

	self := layerSelfTimes(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		r.printf("trace: layer %-10s self %10.3f ms  %5.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(total))
	}
	for _, l := range tracedLayers {
		r.emit("trace.self_share."+l, float64(self[l])/float64(total), nil)
	}
	return nil
}
