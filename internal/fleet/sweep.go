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

// backendCacheCap bounds each worker's backend LRU. Three variants exist
// today; the headroom keeps a future longer variant list from thrashing.
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
	factory    BackendFactory
	gen        *Generator
	engine     *Engine
	pool       *Pool
	// backends holds one LRU of runtime→backend per pool worker; worker
	// ids are a dense range and each id is a single goroutine, so the
	// outer slice needs no locking. Compiling a backend (restore +
	// quantize/prune) is paid once per (worker, variant).
	backends []*LRU[string, nn.Backend]
	items    []*dataset.Item

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
	s := &sweep{
		cfg:        cfg,
		continuous: continuous,
		sched:      sched,
		factory:    factory,
		gen:        NewGenerator(fc.Seed, fc.Scale, 0),
		engine:     NewEngine(fc.Seed, fc.Scale, 0),
		pool:       pool,
		backends:   make([]*LRU[string, nn.Backend], pool.WorkersFor(fc.rangeSize())),
		items:      Items(fc.Seed, fc.Items),
		windowed:   stability.NewWindowed(),
		slots:      make([]deviceSlot, fc.rangeSize()),
		done:       make(chan struct{}),
	}
	swap, _, err := parseFormat(fc.Format)
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
// completion. Snapshots may be taken at any time while it is in flight.
func (s *sweep) Start() <-chan struct{} {
	s.startOnce.Do(func() {
		s.started = time.Now()
		go func() {
			defer close(s.done)
			s.pool.RunWorker(len(s.slots), func(worker, i int) {
				s.runDevice(worker, s.cfg.Fleet.DeviceLo+i)
			})
		}()
	})
	return s.done
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
	cache := s.backends[worker]
	if cache == nil {
		cache = NewLRU[string, nn.Backend](backendCacheCap)
		s.backends[worker] = cache
	}
	slot := &s.slots[id-fc.DeviceLo]
	slot.cohort = d.Cohort

	// dev is the device as the lifecycle events so far have left it: the
	// synthesized identity (ID, cohort, fused ISP — no transition touches
	// ISP stages) with the current profile and, after a thermal event, a
	// rebuilt capture-resolution sensor. The profile name never changes,
	// which is what lets consecutive windows pair cell-for-cell in
	// ComparePair.
	dev := *d
	evs := s.sched.DeviceEvents(id)
	present := true
	for _, ev := range evs {
		if ev.Kind == lifecycle.KindJoin {
			present = false // joins late; absent until its join window
			break
		}
	}

	cells := len(s.items) * len(fc.Angles)
	images := make([]*imaging.Image, 0, cells)
	sizes := make([]int, 0, cells)
	for w := 0; w < s.cfg.Windows; w++ {
		for ; len(evs) > 0 && evs[0].Window <= w; evs = evs[1:] {
			switch ev := evs[0]; ev.Kind {
			case lifecycle.KindJoin:
				present = true
			case lifecycle.KindLeave:
				present = false
			case lifecycle.KindOSUpgrade:
				dev.Profile = device.UpgradeOS(dev.Profile)
			case lifecycle.KindRuntimeUpgrade:
				dev.Profile = device.UpgradeRuntime(dev.Profile, ev.Runtime)
			case lifecycle.KindThermalDrift:
				// The throttle jitter seed is (run seed, stream 6, device,
				// event window): deterministic, and distinct per event.
				dev.Profile = device.Throttle(dev.Profile, ev.Severity, fmath.Mix(s.gen.Seed, 6, int64(id), int64(ev.Window)))
				params := dev.Profile.Sensor.Params
				params.BlurSigma /= float64(s.gen.Scale)
				params.ChromaticShift /= float64(s.gen.Scale)
				dev.Sensor = sensor.New(params)
			}
		}
		if !present {
			continue
		}

		// The forced Config.Runtime when set, otherwise the variant in the
		// device's current profile.
		runtime := fc.Runtime
		if runtime == "" {
			runtime = dev.Profile.RuntimeName()
		}
		backend := cache.GetOrCompute(runtime, func() nn.Backend { return s.factory(runtime) })

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
		preds, scores, probs := train.Evaluate(backend, images, fc.BatchSize)
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

// orderViews is the merge step of MergedStats and MergedFleetReport: device
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
