package fleetd

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/train"
)

// Serving-path metric names.
const (
	metricServeRequests  = "fleetd_serve_requests_total"     // class, code
	metricServeShed      = "fleetd_serve_shed_total"         // class, reason
	metricServeLatency   = "fleetd_serve_seconds"            // class (queue wait + service)
	metricServeQueueWait = "fleetd_serve_queue_wait_seconds" // class
	metricServeDepth     = "fleetd_serve_queue_depth"        // class
	metricServeBatch     = "fleetd_serve_batch_size"         // class (jobs per executed batch)
)

// batchSizeBounds buckets the per-class batch-size histogram: powers of two
// up to fleetapi.MaxServeBatch. Sum/count of this histogram is the observed
// mean batch size /v1/slo reports.
func batchSizeBounds() []int64 { return []int64{1, 2, 4, 8, 16, 32, 64} }

// ServeOptions configures the request-serving leg of an instance.
type ServeOptions struct {
	// Classes are the admission classes POST /v1/serve judges requests
	// under, in priority order (workers drain earlier classes first). Nil
	// selects fleetapi.DefaultSLOClasses.
	Classes []fleetapi.SLOClass
	// Workers is the serve worker count — the execution parallelism behind
	// the queues (default max(2, GOMAXPROCS/2), so serving coexists with
	// batch runs instead of seizing every core).
	Workers int
}

// tokenBucket is a standard refill-on-demand token bucket. One guards each
// SLO class; it is the serving path's rate admission — beyond it only the
// bounded queue stands.
type tokenBucket struct {
	mu    sync.Mutex
	rate  float64 // tokens per second
	burst float64
	level float64
	last  time.Time
}

// maxRetryAfter caps the Retry-After a shed reply advertises. A class
// configured at a near-zero rate would otherwise compute hours of backoff;
// past a minute the number stops being advice a client can act on (an early
// retry just sheds again, cheaply).
const maxRetryAfter = time.Minute

// take consumes one token if available, refilling for the elapsed time
// first. When empty it reports how long until a token accrues — the
// Retry-After a shed reply carries, clamped to maxRetryAfter.
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.level += now.Sub(b.last).Seconds() * b.rate
		if b.level > b.burst {
			b.level = b.burst
		}
	} else {
		b.level = b.burst
	}
	b.last = now
	if b.level >= 1 {
		b.level--
		return true, 0
	}
	// Clamped as a float64: converting a wait too long for a Duration is
	// implementation-defined (negative on amd64, zero on 386).
	wait := (1 - b.level) / b.rate
	if !(wait < maxRetryAfter.Seconds()) {
		return false, maxRetryAfter
	}
	return false, time.Duration(wait * float64(time.Second))
}

// serveJob is one admitted request waiting for (or being executed by) a
// serve worker. Exactly one result is sent on done, after which the worker
// holds no reference to the job.
type serveJob struct {
	req   fleetapi.ServeRequest
	class *serveClass
	enq   time.Time
	wait  time.Duration // queue wait, stamped when batch execution starts
	ctx   context.Context
	done  chan serveResult
}

// jobPool recycles jobs with their reply channels. A handler returns a job
// only once it has received the job's result; a handler that stops waiting
// (client gone, shutdown) leaves it to the collector, since a worker may
// still send on done.
var jobPool = sync.Pool{New: func() any { return &serveJob{done: make(chan serveResult, 1)} }}

// recycle returns a job whose result has been received.
func (job *serveJob) recycle() {
	job.req, job.class, job.ctx = fleetapi.ServeRequest{}, nil, nil
	jobPool.Put(job)
}

type serveResult struct {
	resp fleetapi.ServeResponse
	err  *fleetapi.Error
}

// serveClass is one SLO class's admission state and instruments.
type serveClass struct {
	spec      fleetapi.SLOClass
	bucket    tokenBucket
	queue     chan *serveJob
	depth     *obs.Gauge
	latency   *obs.Histogram
	queueWait *obs.Histogram
	batch     *obs.Histogram // jobs per executed batch
	// errors counts the requests of the class answered with neither a 200
	// nor a 429 — /v1/slo's errors column. It is not a /metrics series: the
	// requests counter already carries every code.
	errors obs.Counter
}

// serveState is the Server's request-serving leg: the classes, the shared
// wake channel workers block on, and the LRU of (seed, items, scale)
// serving bundles.
type serveState struct {
	classes []*serveClass
	names   []string // the classes' names, in priority order
	byName  map[string]*serveClass
	bundles *fleet.LRU[bundleKey, *serveBundle]
	// wake carries one token per enqueued job; workers drain it and then
	// scan class queues in priority order, so "which queue" is decided at
	// dequeue time, not enqueue time.
	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	workers  int
	wg       sync.WaitGroup // live serveWorker goroutines
}

// bundleKey addresses one serving universe: the deterministic fleet and
// evaluation set serve requests with these parameters hit.
type bundleKey struct {
	seed         int64
	items, scale int
}

// serveBundle is the materialized universe: generator, engine (sharing the
// instance's capture telemetry) and items. Safe for concurrent use — the
// generator and engine caches are internally locked, and captures are
// cell-seeded.
type serveBundle struct {
	gen    *fleet.Generator
	engine *fleet.Engine
	items  []*dataset.Item
}

// initServe builds the serving leg and launches its workers. Called from
// New; the classes come validated from Options.
func (s *Server) initServe(o ServeOptions) {
	classes := o.Classes
	if classes == nil {
		classes = fleetapi.DefaultSLOClasses()
	}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("fleetd: bad serve class: %v", err))
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / 2
		if workers < 2 {
			workers = 2
		}
	}
	st := &serveState{
		byName:  map[string]*serveClass{},
		bundles: fleet.NewLRU[bundleKey, *serveBundle](4),
		stop:    make(chan struct{}),
		workers: workers,
	}
	s.reg.Describe(metricServeRequests, "Serve requests by class and status code.")
	s.reg.Describe(metricServeShed, "Serve requests shed by admission control, by class and reason.")
	s.reg.Describe(metricServeLatency, "Serve request latency (queue wait + service) by SLO class.")
	s.reg.Describe(metricServeQueueWait, "Time an admitted serve request waited for a worker, by SLO class.")
	s.reg.Describe(metricServeDepth, "Admitted serve requests currently queued, by SLO class.")
	s.reg.Describe(metricServeBatch, "Jobs per executed serve batch, by SLO class.")
	depthCap := 0
	for _, spec := range classes {
		c := &serveClass{
			spec:      spec,
			bucket:    tokenBucket{rate: spec.RatePerSec, burst: float64(spec.Burst)},
			queue:     make(chan *serveJob, spec.QueueDepth),
			depth:     s.reg.Gauge(metricServeDepth, "class", spec.Name),
			latency:   s.reg.DurationHistogram(metricServeLatency, "class", spec.Name),
			queueWait: s.reg.DurationHistogram(metricServeQueueWait, "class", spec.Name),
			batch:     s.reg.Histogram(metricServeBatch, batchSizeBounds(), 1, "class", spec.Name),
		}
		st.classes = append(st.classes, c)
		st.names = append(st.names, spec.Name)
		st.byName[spec.Name] = c
		depthCap += spec.QueueDepth
	}
	st.wake = make(chan struct{}, depthCap)
	s.serve = st
	st.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.serveWorker()
	}
}

// stopServe terminates the serve workers; queued jobs are failed with 503.
// CancelRuns calls it as part of shutdown.
func (s *Server) stopServe() {
	s.serve.stopOnce.Do(func() { close(s.serve.stop) })
}

// serveBundleFor resolves (or builds) a serving universe. A cache miss pays
// device-set-independent dataset generation synchronously — bounded by
// fleetapi.MaxServeItems.
func (s *Server) serveBundleFor(key bundleKey) *serveBundle {
	return s.serve.bundles.GetOrCompute(key, func() *serveBundle {
		gen := fleet.NewGenerator(key.seed, key.scale, 0)
		engine := fleet.NewEngine(key.seed, key.scale, 0)
		engine.SetTelemetry(s.tele)
		return &serveBundle{gen: gen, engine: engine, items: fleet.Items(key.seed, key.items)}
	})
}

func itemsOrDefault(n int) int {
	if n <= 0 {
		return 8
	}
	return n
}

// scaleOrDefault spells an omitted scale as fleet.NewGenerator and
// fleet.NewEngine read it, so that the two spellings of one universe share a
// bundle and coalesce.
func scaleOrDefault(n int) int {
	if n <= 0 {
		return 2
	}
	return n
}

// handleServe serves POST /v1/serve: admission (token bucket, then bounded
// queue), hand-off to a serve worker, and the reply. Sheds answer 429 with
// a Retry-After header and a typed envelope distinguishing rate-limit sheds
// from queue-full sheds.
func (s *Server) handleServe(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodPost) {
		s.countServe("", http.StatusMethodNotAllowed)
		return
	}
	sr, apiErr := decodeServe(w, req, s.serve.names)
	if apiErr != nil {
		s.countServe("", apiErr.Status)
		fleetapi.WriteError(w, apiErr)
		return
	}
	class, apiErr := s.resolveClass(sr.Class)
	if apiErr != nil {
		s.countServe(sr.Class, apiErr.Status)
		fleetapi.WriteError(w, apiErr)
		return
	}
	sr.Class = class.spec.Name
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		s.countServe(class.spec.Name, http.StatusServiceUnavailable)
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down"))
		return
	}

	// Admission leg 1: the class token bucket. A shed names how long until
	// a token accrues; open-loop clients ignore it, closed-loop ones back
	// off exactly that much.
	if ok, retry := class.bucket.take(time.Now()); !ok {
		s.shedServe(w, class, "rate", retry,
			fleetapi.Errorf(fleetapi.CodeRateLimited, "class %q over %.4g req/s", class.spec.Name, class.spec.RatePerSec))
		return
	}
	// Admission leg 2: the bounded queue. Full queue = the class is past
	// its latency budget already; queuing deeper only converts overload
	// into worse tail latency.
	job := jobPool.Get().(*serveJob)
	job.req, job.class, job.enq, job.ctx = sr, class, time.Now(), req.Context()
	select {
	case class.queue <- job:
		class.depth.Add(1)
		s.serve.wake <- struct{}{}
	default:
		job.recycle()
		s.shedServe(w, class, "queue", time.Second,
			fleetapi.Errorf(fleetapi.CodeQueueFull, "class %q queue full (%d deep)", class.spec.Name, class.spec.QueueDepth))
		return
	}

	select {
	case res := <-job.done:
		job.recycle()
		if res.err != nil {
			s.countServe(class.spec.Name, res.err.Status)
			fleetapi.WriteError(w, res.err)
			return
		}
		s.countServe(class.spec.Name, http.StatusOK)
		writeServeResponse(w, &res.resp)
	case <-req.Context().Done():
		// Client went away; the worker will notice job.ctx and skip or
		// finish into the buffered done channel. Nothing to write.
	case <-s.serve.stop:
		// Shutdown landed between this job's enqueue and a worker's drain
		// pass; don't hang the handler on a queue nobody is reading.
		s.countServe(class.spec.Name, http.StatusServiceUnavailable)
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down"))
	}
}

// resolveClass maps a request's class name (empty = the first configured
// class) to its admission state.
func (s *Server) resolveClass(name string) (*serveClass, *fleetapi.Error) {
	if name == "" {
		return s.serve.classes[0], nil
	}
	if c := s.serve.byName[name]; c != nil {
		return c, nil
	}
	return nil, fleetapi.Errorf(fleetapi.CodeBadRequest, "unknown SLO class %q (configured: %v)", name, s.serve.names)
}

// shedServe records and writes one shed reply: 429, Retry-After, typed
// envelope.
func (s *Server) shedServe(w http.ResponseWriter, class *serveClass, reason string, retry time.Duration, apiErr *fleetapi.Error) {
	s.reg.Counter(metricServeShed, "class", class.spec.Name, "reason", reason).Inc()
	s.countServe(class.spec.Name, apiErr.Status)
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	fleetapi.WriteError(w, apiErr)
}

// countServe increments the per-class, per-code request counter, and a
// configured class's errors for a code that is neither served nor shed. An
// empty class labels requests rejected before class resolution.
func (s *Server) countServe(class string, code int) {
	if c := s.serve.byName[class]; c != nil && code != http.StatusOK && code != http.StatusTooManyRequests {
		c.errors.Inc()
	}
	if class == "" {
		class = "unresolved"
	}
	s.reg.Counter(metricServeRequests, "class", class, "code", codeLabel(code)).Inc()
}

// serveWorker executes admitted requests. Each worker owns a backend LRU (a
// backend owns inference scratch and cannot be shared), and picks work in
// class priority order: one wake token is consumed per batch-forming pass,
// then the earliest-configured class with a queued job wins the pass and
// may drain up to its MaxBatch of followers.
func (s *Server) serveWorker() {
	defer s.serve.wg.Done()
	backends := fleet.NewLRU[string, nn.Backend](8)
	for {
		select {
		case <-s.serve.stop:
			s.drainServe()
			return
		case <-s.serve.wake:
		}
		batch, stopping := s.collectBatch()
		if len(batch) > 0 {
			if stopping {
				// Shutdown landed while the batch was forming: jobs already
				// pulled off their queue must still be answered, exactly as
				// drainServe answers the ones left queued.
				failServe(batch)
			} else {
				s.executeServeBatch(batch, backends)
			}
		}
		if stopping {
			s.drainServe()
			return
		}
	}
}

// collectBatch is one batch-forming pass: the earliest-configured class with
// a queued job wins, then up to its MaxBatch jobs are drained non-blocking.
// If the batch is still short and the class lingers, the worker holds it
// open up to the linger deadline for the queue to top it up. Every job
// drained beyond the first eats one wake token (each enqueue posted one), so
// tokens keep tracking queued jobs instead of waking workers into empty
// scans. stopping reports that shutdown interrupted the linger wait.
func (s *Server) collectBatch() (batch []*serveJob, stopping bool) {
	for _, class := range s.serve.classes {
		select {
		case job := <-class.queue:
			class.depth.Add(-1)
			batch = append(batch, job)
		default:
			continue
		}
		max := class.spec.EffectiveBatch()
	drain:
		for len(batch) < max {
			select {
			case job := <-class.queue:
				class.depth.Add(-1)
				batch = append(batch, job)
				s.eatWakeToken()
			default:
				break drain
			}
		}
		if linger := class.spec.Linger(); linger > 0 && len(batch) < max {
			timer := time.NewTimer(linger)
			for len(batch) < max {
				select {
				case job := <-class.queue:
					class.depth.Add(-1)
					batch = append(batch, job)
					s.eatWakeToken()
				case <-timer.C:
					return batch, false
				case <-s.serve.stop:
					timer.Stop()
					return batch, true
				}
			}
			timer.Stop()
		}
		return batch, false
	}
	return nil, false
}

// eatWakeToken consumes one pending wake token if there is one — the token
// posted by a job this worker just drained as a batch follower.
func (s *Server) eatWakeToken() {
	select {
	case <-s.serve.wake:
	default:
	}
}

// failServe answers every job in the slice with the shutdown envelope.
func failServe(jobs []*serveJob) {
	for _, job := range jobs {
		job.done <- serveResult{err: fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down")}
	}
}

// drainServe fails every queued job with 503 once the workers are stopping;
// their handlers are (or soon will be) unblocked by the replies.
func (s *Server) drainServe() {
	for _, class := range s.serve.classes {
	drain:
		for {
			select {
			case job := <-class.queue:
				class.depth.Add(-1)
				job.done <- serveResult{err: fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down")}
			default:
				break drain
			}
		}
	}
}

// batchItem is one distinct cell's in-flight state while its batch executes:
// its coordinate, the capture output, and how many coalesced jobs wait on it.
type batchItem struct {
	key    cellKey
	jobs   int
	img    *imaging.Image // nil once inferred
	size   int
	stages fleet.StageTimes
	it     *dataset.Item
}

// batchJob is one live job of a batch and the index of its cell.
type batchJob struct {
	job  *serveJob
	cell int
}

// cellKey identifies one deterministic serving cell — the full coordinate a
// response is a pure function of. Jobs in a batch with equal keys coalesce.
type cellKey struct {
	bundleKey
	device, item, angle int
	rt                  string
}

// executeServeBatch runs one formed batch end to end. Every distinct cell's
// capture is still its own arena'd, cell-seeded capture — batching changes
// when cells are computed, never their bytes — and inference is issued once
// per runtime represented in the batch: the captured images pack into a
// single pooled input tensor (inside train.Evaluate) and one Infer call
// serves the whole group.
//
// Within the batch, jobs naming the same cell coalesce: a response is a pure
// function of (seed, items, scale, device, item, angle, runtime), so the
// cell is captured and inferred once and the identical result fans out to
// every coalesced job. This is where batching buys real throughput — under
// hot-cell traffic a formed batch of n duplicates costs one capture+infer
// where batch-1 execution pays n — and it is sound only because cells are
// bit-deterministic, which the golden identity test pins. The batched
// inference wall time is split across the group's jobs pro rata (equal
// shares), so per-request stage accounting still sums sensibly.
//
// A batch holds at most MaxServeBatch jobs, so cells and runtime groups are
// found by scanning slices, which stay on the stack for up to eight jobs; a
// job is not touched after its result is sent.
func (s *Server) executeServeBatch(jobs []*serveJob, backends *fleet.LRU[string, nn.Backend]) {
	class := jobs[0].class
	var liveBuf [8]batchJob
	var cellBuf [8]batchItem
	var imgBuf [8]*imaging.Image
	live, cells, imgs := liveBuf[:0], cellBuf[:0], imgBuf[:0]
	for _, job := range jobs {
		job.wait = time.Since(job.enq)
		job.class.queueWait.Observe(job.wait.Nanoseconds())
		if job.ctx.Err() != nil {
			// Client hung up while the job queued; don't burn a capture on it.
			job.done <- serveResult{err: fleetapi.Errorf(fleetapi.CodeUnavailable, "client went away")}
			continue
		}
		req := job.req
		key := cellKey{
			bundleKey: bundleKey{seed: req.Seed, items: itemsOrDefault(req.Items), scale: scaleOrDefault(req.Scale)},
			device:    req.Device,
			item:      req.Item,
			angle:     req.Angle,
			rt:        req.Runtime,
		}
		if key.rt == "" {
			key.rt = s.serveBundleFor(key.bundleKey).gen.Device(req.Device).Profile.RuntimeName()
		}
		c := 0
		for c < len(cells) && cells[c].key != key {
			c++
		}
		if c == len(cells) {
			cells = append(cells, batchItem{key: key})
		}
		cells[c].jobs++
		live = append(live, batchJob{job, c})
	}
	if len(live) == 0 {
		return
	}
	class.batch.Observe(int64(len(live)))
	for i := range cells {
		cell := &cells[i]
		bundle := s.serveBundleFor(cell.key.bundleKey)
		cell.it = bundle.items[cell.key.item]
		cell.img, cell.size, cell.stages = bundle.engine.CaptureTimed(bundle.gen.Device(cell.key.device), cell.it, cell.key.angle)
	}
	// Group cells by runtime: requests pinning different runtimes can share
	// a formed batch, but each backend sees one contiguous sub-batch. A group
	// is led by its runtime's first cell, so execution is deterministic in the
	// batch's job order.
	for g := range cells {
		if cells[g].img == nil {
			continue // inferred in an earlier cell's group
		}
		rt := cells[g].key.rt
		imgs = imgs[:0]
		groupJobs := 0
		for i := g; i < len(cells); i++ {
			if cells[i].key.rt == rt {
				imgs = append(imgs, cells[i].img)
				groupJobs += cells[i].jobs
			}
		}
		backend := backends.GetOrCompute(rt, func() nn.Backend { return s.factory(rt) })
		t0 := time.Now()
		preds, scores, _ := train.Evaluate(backend, imgs, len(imgs))
		share := time.Since(t0).Nanoseconds() / int64(groupJobs)
		k := 0 // index of the cell in the group
		for i := g; i < len(cells); i++ {
			cell := &cells[i]
			if cell.key.rt != rt {
				continue
			}
			imaging.PutImage(cell.img)
			cell.img = nil
			for _, lj := range live {
				if lj.cell != i {
					continue
				}
				job := lj.job
				if s.tele != nil {
					s.tele.Inference.Observe(share)
				}
				total := time.Since(job.enq)
				job.class.latency.Observe(total.Nanoseconds())
				job.done <- serveResult{resp: fleetapi.ServeResponse{
					Pred:       preds[k],
					TrueClass:  int(cell.it.Class),
					Score:      scores[k],
					Runtime:    rt,
					Class:      job.class.spec.Name,
					Bytes:      cell.size,
					BatchSize:  groupJobs,
					QueueNanos: job.wait.Nanoseconds(),
					StageNanos: fleetapi.ServeStageNanos{
						Sensor:    cell.stages.SensorNanos,
						ISP:       cell.stages.ISPNanos,
						Codec:     cell.stages.CodecNanos,
						Inference: share,
					},
					TotalNanos: total.Nanoseconds(),
				}}
			}
			k++
		}
	}
}

// handleSLO serves GET /v1/slo: the serving path's live SLO report, built
// from the per-class histograms and shed counters accumulated since the
// process started. Attainment is exact when the class target sits on a
// bucket bound (the default classes do).
func (s *Server) handleSLO(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodGet) {
		return
	}
	rep := fleetapi.SLOReport{Classes: make([]fleetapi.SLOClassReport, 0, len(s.serve.classes))}
	var attainments []float64
	for _, c := range s.serve.classes {
		lat := c.latency.Snapshot()
		qw := c.queueWait.Snapshot()
		batch := c.batch.Snapshot()
		served := lat.Total()
		shedRate := s.reg.Counter(metricServeShed, "class", c.spec.Name, "reason", "rate").Value()
		shedQueue := s.reg.Counter(metricServeShed, "class", c.spec.Name, "reason", "queue").Value()
		errs := c.errors.Value()
		row := fleetapi.SLOClassReport{
			Class:       c.spec.Name,
			TargetNanos: c.spec.TargetNanos,
			Requests:    served + shedRate + shedQueue + errs,
			Served:      served,
			ShedRate:    shedRate,
			ShedQueue:   shedQueue,
			Errors:      errs,
			LatencyNanos: fleetapi.QuantileSet{
				P50: lat.Quantile(0.50) * 1e9,
				P95: lat.Quantile(0.95) * 1e9,
				P99: lat.Quantile(0.99) * 1e9,
			},
			QueueWaitNanos: fleetapi.QuantileSet{
				P50: qw.Quantile(0.50) * 1e9,
				P95: qw.Quantile(0.95) * 1e9,
				P99: qw.Quantile(0.99) * 1e9,
			},
		}
		if served > 0 {
			row.Attainment = float64(lat.CountLE(c.spec.TargetNanos)) / float64(served)
			attainments = append(attainments, row.Attainment)
		}
		// Mean over executed batches: the histogram's sum is total batched
		// jobs, its count the number of batches.
		if batches := batch.Total(); batches > 0 {
			row.MeanBatch = float64(batch.Sum) / float64(batches)
		}
		rep.Classes = append(rep.Classes, row)
	}
	rep.Fairness = fleetapi.JainIndex(attainments)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(rep.JSON())
	fmt.Fprintln(w)
}
