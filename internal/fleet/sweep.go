package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sensor"
	"repro/internal/stability"
	"repro/internal/train"
)

// windowSlot is one (device, window) observation's deterministic
// aggregates, written only by the worker that ran the device and merged in
// device-ID order at snapshot time (so float accumulation order never
// depends on scheduling).
type windowSlot struct {
	ran     bool // false: the device was absent (not yet joined, or left)
	runtime string
	score   metrics.Online
	bytes   metrics.Online
}

// deviceView is one finished device's whole-timeline aggregates. Live
// runners read views out of their slots, the Merged* functions rebuild them
// from shard-shipped device states; both hand them to the one render path
// in ascending device-ID order.
type deviceView struct {
	id      int
	cohort  string
	windows []windowSlot // indexed by window
}

// deviceSlot is the view a runner fills in for one device of its range;
// done publishes it to snapshots.
type deviceSlot struct {
	done atomic.Bool
	deviceView
}

// backendCacheCap bounds a run's backend LRU. Three variants exist today;
// the headroom keeps a future longer variant list from thrashing.
const backendCacheCap = 8

// sweep is the fleet's one executor: every device of the range runs its
// whole virtual-time timeline (lifecycle events folded at window starts,
// the scene matrix captured in each window the device is present for,
// evaluated, and filed into that window's stability accumulator) as one
// unit of work on one pool worker. Every observation is a pure function of
// (config, device id, window), so snapshots are byte-identical for any
// worker count and device-range shards merge back losslessly. Runner and
// ContinuousRunner are its two snapshot views.
type sweep struct {
	cfg ContinuousConfig
	// continuous selects what a one-shot run has always done differently:
	// its captures draw from Engine.Capture's seed stream rather than the
	// epoch-qualified one, and it leaves the "continuous fleet" instruments
	// (active devices, device-windows) alone.
	continuous bool
	sched      *lifecycle.Schedule
	// factory is the caller's until Start resolves the run's model into it.
	factory BackendFactory
	model   *stableModel // nil: the factory's own weights
	gen     *Generator
	engine  *Engine
	pool    *Pool
	// backends holds the run's compiled runtimes, shared by every worker:
	// a backend is read-only once built, and GetOrCompute is single-flight,
	// so the factory runs once per runtime per run.
	backends *LRU[string, nn.Backend]
	// scratch holds one inference scratch per pool worker, lent to whichever
	// runtime the worker's current device runs; worker ids are a dense range
	// and each id is a single goroutine, so the slice needs no locking.
	scratch []*nn.Scratch
	items   []*dataset.Item
	// prefetch: the run's whole scene set fits the engine's cache, and
	// Start renders it before the devices start.
	prefetch bool

	windowed *stability.Windowed
	// slots[i] belongs to device Fleet.DeviceLo+i.
	slots []deviceSlot

	devicesDone  atomic.Int64
	capturesDone atomic.Int64
	cancelled    atomic.Bool

	tele    *Telemetry // nil → no recording
	started time.Time  // set by Start, read by workers for queue-wait

	startOnce sync.Once
	done      chan struct{}
}

// newSweep prepares a sweep of an already-defaulted config; no work happens
// until Start.
func newSweep(cfg ContinuousConfig, sched *lifecycle.Schedule, continuous bool, factory BackendFactory) *sweep {
	fc := cfg.Fleet
	pool := NewPool(fc.Workers)
	items := Items(fc.Seed, fc.Items)
	scenes := sceneSetCap(len(items)*len(fc.Angles), fc.Scale)
	s := &sweep{
		cfg:        cfg,
		continuous: continuous,
		sched:      sched,
		factory:    factory,
		gen:        NewGenerator(fc.Seed, fc.Scale, 0),
		engine:     NewEngine(fc.Seed, fc.Scale, scenes),
		pool:       pool,
		backends:   NewLRU[string, nn.Backend](backendCacheCap),
		scratch:    make([]*nn.Scratch, pool.WorkersFor(fc.rangeSize())),
		items:      items,
		prefetch:   scenes > 0,
		windowed:   stability.NewWindowed(),
		slots:      make([]deviceSlot, fc.rangeSize()),
		done:       make(chan struct{}),
	}
	swap, _, err := parseFormat(fc.Format)
	if err == nil {
		s.model, err = parseModel(fc.Model)
	}
	if err != nil { // the API validates specs; a direct caller passed a bad one
		panic("fleet: " + err.Error())
	}
	s.engine.swap = swap
	windows := make([]windowSlot, len(s.slots)*cfg.Windows)
	for i := range s.slots {
		s.slots[i].id = fc.DeviceLo + i
		s.slots[i].windows = windows[i*cfg.Windows : (i+1)*cfg.Windows]
	}
	return s
}

// SetTelemetry attaches capture instruments to the runner (and its engine).
// Must be called before Start; nil (the default) disables all recording.
// Telemetry never influences results — it only reads the clock — so
// instrumented and uninstrumented runs are byte-identical.
func (s *sweep) SetTelemetry(t *Telemetry) {
	s.tele = t
	s.engine.SetTelemetry(t)
}

// Start launches the run in the background, returning a channel closed on
// completion. Snapshots may be taken at any time while it is in flight. A
// run with a model first fine-tunes it (or waits for the cache) in the
// run's own goroutine; a Cancel meanwhile takes effect when that returns.
func (s *sweep) Start() <-chan struct{} {
	s.startOnce.Do(func() {
		s.started = time.Now()
		go func() {
			defer close(s.done)
			s.prepare()
			s.pool.RunWorker(len(s.slots), func(worker, i int) {
				s.runDevice(worker, s.cfg.Fleet.DeviceLo+i)
			})
		}()
	})
	return s.done
}

// prepare is a run's fixed work before its devices start: the model's
// fine-tune (or a wait for the cache) and, when it fits, the scene set.
func (s *sweep) prepare() {
	if s.model != nil {
		s.factory = s.model.factory(s.factory)
	}
	if s.prefetch {
		s.renderScenes()
	}
}

// renderScenes fills the engine's cache with the run's whole scene set, one
// frame a pool task. Every device photographs every frame, so rendered up
// front they are drawn once each and on every worker at once, where on first
// use the workers' first devices would wait together on each frame's one
// render. A frame is a pure function of (seed, item, angle), so the cells do
// not move.
func (s *sweep) renderScenes() {
	angles := s.cfg.Fleet.Angles
	s.pool.Run(len(s.items)*len(angles), func(i int) {
		if !s.cancelled.Load() {
			s.engine.Displayed(s.items[i/len(angles)], angles[i%len(angles)])
		}
	})
}

// Cancel asks the run to stop: devices not yet started are skipped (a
// timeline runs whole or not at all, so a partial snapshot never contains a
// half-observed device), and the done channel still closes once in-flight
// devices drain. After a cancelled run, Progress reports done < total and
// snapshots are valid partial ones. Safe to call at any time, repeatedly.
func (s *sweep) Cancel() { s.cancelled.Store(true) }

// Cancelled reports whether Cancel has been called.
func (s *sweep) Cancelled() bool { return s.cancelled.Load() }

// Progress reports devices completed, total devices in this runner's range,
// and captures taken.
func (s *sweep) Progress() (done, total, captures int) {
	return int(s.devicesDone.Load()), len(s.slots), int(s.capturesDone.Load())
}

// views lists the finished devices in ascending ID order.
func (s *sweep) views() []deviceView {
	views := make([]deviceView, 0, len(s.slots))
	for i := range s.slots {
		if slot := &s.slots[i]; slot.done.Load() {
			views = append(views, slot.deviceView)
		}
	}
	return views
}

// runDevice executes one device's whole virtual-time timeline on one
// worker: fold lifecycle events at each window start, capture the scene
// matrix when present, evaluate, and file records into that window's
// accumulator.
func (s *sweep) runDevice(worker, id int) {
	if s.cancelled.Load() {
		return
	}
	if s.tele != nil {
		// Queue wait: how long this device sat behind others before a pool
		// worker picked it up.
		s.tele.QueueWait.ObserveSince(s.started)
		if s.continuous {
			s.tele.Active.Add(1)
			defer s.tele.Active.Add(-1)
		}
	}
	fc := s.cfg.Fleet
	d := s.gen.Device(id)
	sc := s.scratchFor(worker)
	slot := &s.slots[id-fc.DeviceLo]
	slot.cohort = d.Cohort

	// dev is the device as the lifecycle events so far have left it
	// (applyEvent).
	dev := *d
	evs := s.sched.DeviceEvents(id)
	present := presentAtStart(evs)

	cells := len(s.items) * len(fc.Angles)
	images := make([]*imaging.Image, 0, cells)
	sizes := make([]int, 0, cells)
	for w := 0; w < s.cfg.Windows; w++ {
		for ; len(evs) > 0 && evs[0].Window <= w; evs = evs[1:] {
			present = s.gen.applyEvent(&dev, evs[0], present)
		}
		if !present {
			continue
		}

		runtime, backend := s.backendFor(&dev)

		images, sizes = images[:0], sizes[:0]
		for _, it := range s.items {
			for _, a := range fc.Angles {
				var img *imaging.Image
				var size int
				if s.continuous {
					img, size = s.engine.CaptureEpoch(&dev, it, a, w)
				} else {
					img, size = s.engine.Capture(&dev, it, a)
				}
				images = append(images, img)
				sizes = append(sizes, size)
				s.capturesDone.Add(1)
			}
		}

		var inferStart time.Time
		if s.tele != nil {
			inferStart = time.Now()
		}
		preds, scores, probs := train.EvaluateIn(sc, backend, images, fc.BatchSize)
		if s.tele != nil {
			s.tele.Inference.ObserveSince(inferStart)
		}
		// Evaluate copied every pixel into its input tensors; the capture
		// images came from the image pool and can recycle for the next window.
		for _, img := range images {
			imaging.PutImage(img)
		}
		topks := train.TopKOf(probs, fc.TopK)

		ws := &slot.windows[w]
		ws.ran = true
		ws.runtime = runtime
		records := make([]*stability.Record, len(images))
		i := 0
		for _, it := range s.items {
			for _, a := range fc.Angles {
				records[i] = &stability.Record{
					ItemID:    it.ID,
					Angle:     a,
					TrueClass: int(it.Class),
					Env:       dev.Profile.Name,
					Runtime:   runtime,
					Pred:      preds[i],
					Score:     scores[i],
					TopK:      topks[i],
				}
				ws.score.Observe(scores[i])
				ws.bytes.Observe(float64(sizes[i]))
				i++
			}
		}
		s.windowed.AddAll(w, records)
		if s.continuous && s.tele != nil {
			s.tele.Windows.Inc()
		}
	}
	slot.done.Store(true)
	s.devicesDone.Add(1)
}

// presentAtStart reports whether a device with these events is in the
// population at window 0: one that joins late is absent until its join
// window.
func presentAtStart(evs []lifecycle.Event) bool {
	for _, ev := range evs {
		if ev.Kind == lifecycle.KindJoin {
			return false
		}
	}
	return true
}

// applyEvent folds one lifecycle event into dev, the device as the events
// before it left it, and returns whether the device is present after it
// (present: before it). dev keeps the synthesized identity (ID, cohort,
// fused ISP — no transition touches ISP stages); its profile changes, and
// after a thermal event its capture-resolution sensor is rebuilt. The
// profile name never changes, which is what lets consecutive windows pair
// cell for cell in ComparePair. The sweep and EventCauses' replay both fold
// events here.
func (g *Generator) applyEvent(dev *Device, ev lifecycle.Event, present bool) bool {
	switch ev.Kind {
	case lifecycle.KindJoin:
		return true
	case lifecycle.KindLeave:
		return false
	case lifecycle.KindOSUpgrade:
		dev.Profile = device.UpgradeOS(dev.Profile)
	case lifecycle.KindRuntimeUpgrade:
		dev.Profile = device.UpgradeRuntime(dev.Profile, ev.Runtime)
	case lifecycle.KindThermalDrift:
		// The throttle jitter seed is (run seed, stream 6, device, event
		// window): deterministic, and distinct per event.
		dev.Profile = device.Throttle(dev.Profile, ev.Severity, fmath.Mix(g.Seed, 6, int64(dev.ID), int64(ev.Window)))
		params := dev.Profile.Sensor.Params
		params.BlurSigma /= float64(g.Scale)
		params.ChromaticShift /= float64(g.Scale)
		dev.Sensor = sensor.New(params)
	}
	return present
}

// scratchFor returns a pool worker's inference scratch, made on first use.
func (s *sweep) scratchFor(worker int) *nn.Scratch {
	if s.scratch[worker] == nil {
		s.scratch[worker] = new(nn.Scratch)
	}
	return s.scratch[worker]
}

// backendFor returns the runtime dev classifies with — the forced
// Config.Runtime when set, otherwise the variant in its current profile —
// and that runtime's backend from the run's shared cache.
func (s *sweep) backendFor(dev *Device) (string, nn.Backend) {
	runtime := s.cfg.Fleet.Runtime
	if runtime == "" {
		runtime = dev.Profile.RuntimeName()
	}
	return runtime, s.backends.GetOrCompute(runtime, func() nn.Backend { return s.factory(runtime) })
}

// shardView is one shard-shipped device as a view, rejected when its ID
// lies outside the [lo, hi) its own state declares.
func shardView(id, lo, hi int, cohort string, windows []windowSlot) (deviceView, error) {
	if id < lo || id >= hi {
		return deviceView{}, fmt.Errorf("fleet: shard state for devices [%d, %d) lists device %d", lo, hi, id)
	}
	return deviceView{id: id, cohort: cohort, windows: windows}, nil
}

// shardSlot is one shard-shipped (device, window) observation.
func shardSlot(runtime string, score, bytes metrics.OnlineState) windowSlot {
	return windowSlot{ran: true, runtime: runtime, score: metrics.FromState(score), bytes: metrics.FromState(bytes)}
}

// orderViews is the merge step of MergedRun and MergedFleetReport: device
// ID order is the float accumulation order of a single-instance run, so
// shard arrival order must not leak into the merged snapshot; a device two
// shards both list would be double-counted and is rejected.
func orderViews(views []deviceView) error {
	sort.Slice(views, func(i, j int) bool { return views[i].id < views[j].id })
	for i := 1; i < len(views); i++ {
		if views[i-1].id == views[i].id {
			return fmt.Errorf("fleet: merged shards overlap at device %d", views[i].id)
		}
	}
	return nil
}
