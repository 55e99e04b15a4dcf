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
	"repro/internal/tensor"
	"repro/internal/train"
)

// Serving-path metric names.
const (
	metricServeRequests  = "fleetd_serve_requests_total"     // class, code
	metricServeShed      = "fleetd_serve_shed_total"         // class, reason
	metricServeLatency   = "fleetd_serve_seconds"            // class (queue wait + service)
	metricServeQueueWait = "fleetd_serve_queue_wait_seconds" // class
	metricServeDepth     = "fleetd_serve_queue_depth"        // class
	metricServeBatch     = "fleetd_serve_batch_size"         // class (jobs per formed batch)
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

// serveJob is one admitted request waiting for (or being answered by) a
// serve worker. Exactly one result is sent on done, after which the worker
// holds no reference to the job.
type serveJob struct {
	req   fleetapi.ServeRequest
	class *serveClass
	cell  cellKey // set when the job is registered
	enq   time.Time
	wait  time.Duration // queue wait, stamped when its cell's computation starts or it joins a running one
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
	batch     *obs.Histogram // jobs per formed batch
	pending   flightList     // cells waiting for a worker; guarded by serveState.mu
	// errors counts the requests of the class answered with neither a 200
	// nor a 429 — /v1/slo's errors column. It is not a /metrics series: the
	// requests counter already carries every code.
	errors obs.Counter
}

// serveState is the Server's request-serving leg: the classes, the
// channels workers block on, the in-flight table of cells, the LRU of
// (seed, items, scale) serving bundles and the compiled backends.
type serveState struct {
	classes []*serveClass
	names   []string // the classes' names, in priority order
	byName  map[string]*serveClass
	bundles *fleet.LRU[bundleKey, *serveBundle]
	// backends holds one compiled backend per runtime, built by the
	// factory on first use and shared by every worker, each inferring in
	// its own cellWorker scratch.
	backends *fleet.LRU[string, nn.Backend]
	// wake wakes idle workers: a handler posts to it after queueing a job,
	// and a worker after registering cells it wants help with. A token is a
	// hint, not a count — it holds at most one a worker, and a worker looks
	// for pending cells and queued jobs after every cell it computes and
	// every wake-up, so work is never stranded behind a lost token.
	wake chan struct{}
	// mu guards flights, the in-flight table — every cell a registered job
	// waits on, from registration until its answer is sent — and the
	// classes' pending lists.
	mu       sync.Mutex
	flights  map[flightKey]*flight
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
		byName:   map[string]*serveClass{},
		bundles:  fleet.NewLRU[bundleKey, *serveBundle](4),
		backends: fleet.NewLRU[string, nn.Backend](8),
		wake:     make(chan struct{}, workers),
		flights:  map[flightKey]*flight{},
		stop:     make(chan struct{}),
		workers:  workers,
	}
	s.reg.Describe(metricServeRequests, "Serve requests by class and status code.")
	s.reg.Describe(metricServeShed, "Serve requests shed by admission control, by class and reason.")
	s.reg.Describe(metricServeLatency, "Serve request latency (queue wait + service) by SLO class.")
	s.reg.Describe(metricServeQueueWait, "Time an admitted serve request waited for a worker, by SLO class.")
	s.reg.Describe(metricServeDepth, "Admitted serve requests currently queued, by SLO class.")
	s.reg.Describe(metricServeBatch, "Jobs per formed serve batch, by SLO class.")
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
	}
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
		s.serve.hint()
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

// serveWorker executes admitted requests. A worker computes pending cells
// while there are any. Otherwise it forms a batch from the earliest-configured
// class with a queued job (collectBatch) and registers it in the in-flight
// table, and with nothing queued either it sleeps until woken.
func (s *Server) serveWorker() {
	defer s.serve.wg.Done()
	w := new(cellWorker)
	for {
		select {
		case <-s.serve.stop:
			s.drainServe()
			return
		default:
		}
		if f := s.takeFlight(); f != nil {
			s.computeFlight(f, w)
			continue
		}
		batch, stopping := s.collectBatch()
		if stopping {
			// Shutdown landed while the batch was forming: jobs already
			// pulled off their queue must still be answered, exactly as
			// drainServe answers the ones left queued.
			failServe(batch)
			s.drainServe()
			return
		}
		if len(batch) > 0 {
			s.register(batch)
			continue
		}
		select {
		case <-s.serve.stop:
			s.drainServe()
			return
		case <-s.serve.wake:
		}
	}
}

// hint wakes one idle worker, unless every worker already has a wake-up
// waiting.
func (st *serveState) hint() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// collectBatch is one batch-forming pass: the earliest-configured class with
// a queued job wins, then up to its MaxBatch jobs are drained non-blocking.
// If the batch is still short and the class lingers, the worker holds it
// open up to the linger deadline for the queue to top it up. It returns no
// batch when every queue is empty; stopping reports that shutdown
// interrupted the linger wait.
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

// failServe answers every job in the slice with the shutdown envelope.
func failServe(jobs []*serveJob) {
	for _, job := range jobs {
		job.done <- serveResult{err: fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down")}
	}
}

// drainServe fails every queued job and every job of a pending cell with 503
// once the workers are stopping; their handlers are (or soon will be)
// unblocked by the replies. A cell a worker is computing is still answered.
func (s *Server) drainServe() {
	st := s.serve
	for _, class := range st.classes {
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
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, class := range st.classes {
		for f := class.pending.pop(); f != nil; f = class.pending.pop() {
			delete(st.flights, f.key)
			failServe(f.jobs)
			f.recycle()
		}
	}
}

// cellKey identifies one deterministic serving cell — the full coordinate a
// response is a pure function of.
type cellKey struct {
	bundleKey
	device, item, angle int
	rt                  string
}

// cellOf resolves a request's cell with the defaults spelled out and the
// device's own runtime filled in, so that every spelling of one cell has one
// key.
func (s *Server) cellOf(req *fleetapi.ServeRequest) cellKey {
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
	return key
}

// flightKey addresses a flight in the in-flight table. The class is part of
// it, so that a cell asked for under two classes is computed at each class's
// own priority.
type flightKey struct {
	class *serveClass
	cell  cellKey
}

// flight is one cell computation in the server's in-flight table: every job
// that asked for the cell while it was pending or computing, all answered by
// the one capture and inference of the worker that takes it. A response is a
// pure function of the cell, so sharing the computation is sound only
// because cells are bit-deterministic, which the golden identity test pins.
type flight struct {
	key     flightKey
	jobs    []*serveJob
	started bool    // a worker has taken it
	next    *flight // the class's pending list
}

// flightPool recycles flights with their job lists.
var flightPool = sync.Pool{New: func() any { return new(flight) }}

// recycle returns a flight that has left the table.
func (f *flight) recycle() {
	clear(f.jobs[:cap(f.jobs)])
	f.key, f.jobs, f.started, f.next = flightKey{}, f.jobs[:0], false, nil
	flightPool.Put(f)
}

// flightList is a class's pending cells in arrival order, linked through
// flight.next so that queueing a cell allocates nothing.
type flightList struct{ head, tail *flight }

func (l *flightList) push(f *flight) {
	if l.tail == nil {
		l.head = f
	} else {
		l.tail.next = f
	}
	l.tail = f
}

func (l *flightList) pop() *flight {
	f := l.head
	if f != nil {
		l.head, f.next = f.next, nil
		if l.head == nil {
			l.tail = nil
		}
	}
	return f
}

// stampWait ends a job's queue wait at the given instant.
func (job *serveJob) stampWait(at time.Time) {
	job.wait = at.Sub(job.enq)
	job.class.queueWait.Observe(job.wait.Nanoseconds())
}

// register enters a formed batch into the in-flight table. A job whose cell
// is pending or computing joins that flight; a job joining a computation
// already running ends its queue wait at the join. Every other job starts a
// flight at the tail of its class's pending list. The registering worker
// goes on to take pending cells itself, so an idle worker is woken for each
// new cell beyond the first.
func (s *Server) register(batch []*serveJob) {
	class := batch[0].class
	class.batch.Observe(int64(len(batch)))
	for _, job := range batch {
		job.cell = s.cellOf(&job.req)
	}
	st := s.serve
	fresh := 0
	st.mu.Lock()
	for _, job := range batch {
		key := flightKey{class, job.cell}
		f := st.flights[key]
		if f == nil {
			f = flightPool.Get().(*flight)
			f.key = key
			st.flights[key] = f
			class.pending.push(f)
			fresh++
		} else if f.started {
			job.stampWait(time.Now())
		}
		f.jobs = append(f.jobs, job)
	}
	st.mu.Unlock()
	for ; fresh > 1; fresh-- {
		st.hint()
	}
}

// takeFlight takes the oldest pending cell of the earliest class that has
// one and marks it computing: the queue waits of its jobs end now. Jobs whose
// clients hung up while it was pending are answered and dropped, and a cell
// with no job left leaves the table without a capture. It returns nil when
// nothing is pending.
func (s *Server) takeFlight() *flight {
	st := s.serve
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, class := range st.classes {
		for f := class.pending.pop(); f != nil; f = class.pending.pop() {
			now := time.Now()
			live := f.jobs[:0]
			for _, job := range f.jobs {
				job.stampWait(now)
				if job.ctx.Err() != nil {
					job.done <- serveResult{err: fleetapi.Errorf(fleetapi.CodeUnavailable, "client went away")}
					continue
				}
				live = append(live, job)
			}
			clear(f.jobs[len(live):])
			if f.jobs = live; len(live) > 0 {
				f.started = true
				return f
			}
			delete(st.flights, f.key)
			f.recycle()
		}
	}
	return nil
}

// computeFlight captures and infers a taken cell, takes it out of the table
// and answers every job that joined it, those that joined while it computed
// included. The capture is the cell's own arena'd, cell-seeded capture and
// the inference one image on the worker's backend, so a reply's bytes never
// depend on how many jobs shared it. The inference time is split evenly
// among them, so per-request stage accounting still sums sensibly.
func (s *Server) computeFlight(f *flight, w *cellWorker) {
	cell := f.key.cell
	bundle := s.serveBundleFor(cell.bundleKey)
	it := bundle.items[cell.item]
	img, size, stages := bundle.engine.CaptureTimed(bundle.gen.Device(cell.device), it, cell.angle)
	t0 := time.Now()
	pred, score := w.infer(s, cell.rt, img)
	inference := time.Since(t0)
	imaging.PutImage(img)

	st := s.serve
	st.mu.Lock()
	delete(st.flights, f.key)
	st.mu.Unlock()
	share := inference.Nanoseconds() / int64(len(f.jobs))
	for _, job := range f.jobs {
		if s.tele != nil {
			s.tele.Inference.Observe(share)
		}
		total := time.Since(job.enq)
		job.class.latency.Observe(total.Nanoseconds())
		job.done <- serveResult{resp: fleetapi.ServeResponse{
			Pred:       pred,
			TrueClass:  int(it.Class),
			Score:      score,
			Runtime:    cell.rt,
			Class:      job.class.spec.Name,
			Bytes:      size,
			BatchSize:  len(f.jobs),
			QueueNanos: job.wait.Nanoseconds(),
			StageNanos: fleetapi.ServeStageNanos{
				Sensor:    stages.SensorNanos,
				ISP:       stages.ISPNanos,
				Codec:     stages.CodecNanos,
				Inference: share,
			},
			TotalNanos: total.Nanoseconds(),
		}}
	}
	f.recycle()
}

// cellWorker is what one serve worker owns: the inference scratch it lends
// to whichever runtime a cell runs (the compiled backends are the serve
// leg's, shared by every worker) and the one-image model input every cell it
// computes is packed into.
type cellWorker struct {
	sc    nn.Scratch
	input *tensor.Tensor
}

// infer runs one captured image through the runtime's backend and returns
// its top-1 class and confidence: what train.Evaluate reports for the image
// in any batch, since activations quantize per sample.
func (w *cellWorker) infer(s *Server, rt string, img *imaging.Image) (pred int, score float64) {
	backend := s.serve.backends.GetOrCompute(rt, func() nn.Backend { return s.factory(rt) })
	if in := backend.InputSize(); w.input == nil || w.input.Dim(2) != in {
		w.input = tensor.New(1, 3, in, in)
	}
	return train.Top1(backend.InferIn(&w.sc, imaging.BatchTensorInto(w.input, []*imaging.Image{img})))
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
		// Mean over formed batches: the histogram's sum is total batched
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
