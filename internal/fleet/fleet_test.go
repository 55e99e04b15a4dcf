package fleet

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/stability"
)

// testFactory builds tiny untrained (but weight-deterministic) backends:
// determinism tests care about reproducibility, not accuracy, and skipping
// training keeps the suite fast under -race.
func testFactory() BackendFactory {
	return func(runtime string) nn.Backend {
		cfg := nn.DefaultConfig(int(dataset.NumClasses))
		cfg.Width = 0.4
		m := nn.NewMobileNetV2Micro(rand.New(rand.NewSource(5)), cfg)
		return nn.NewRuntimeBackend(runtime, m)
	}
}

// TestLRUBasics: a hit refreshes an entry, and a miss past capacity evicts
// the least recently used one, which shows as a second computation.
func TestLRUBasics(t *testing.T) {
	c := NewLRU[int, string](2)
	computed := map[int]int{}
	get := func(k int) {
		t.Helper()
		want := string(rune('a' + k))
		if v := c.GetOrCompute(k, func() string { computed[k]++; return want }); v != want {
			t.Fatalf("key %d = %q, want %q", k, v, want)
		}
	}
	get(1)
	get(2)
	get(1)
	get(3) // evicts 2 (least recently used after the hit on 1)
	get(1)
	if computed[1] != 1 {
		t.Fatalf("1 computed %d times, want once: evicted despite being recently used", computed[1])
	}
	get(2)
	if computed[2] != 2 {
		t.Fatalf("2 computed %d times, want twice: not evicted", computed[2])
	}
}

func TestLRUGetOrCompute(t *testing.T) {
	c := NewLRU[int, int](4)
	calls := 0
	f := func() int { calls++; return 7 }
	if v := c.GetOrCompute(1, f); v != 7 {
		t.Fatalf("computed %d", v)
	}
	if v := c.GetOrCompute(1, f); v != 7 || calls != 1 {
		t.Fatalf("recompute: v=%d calls=%d", v, calls)
	}
}

// TestLRUGetOrComputeOnce: N goroutines miss one key at once; the
// computation runs once, every caller gets the one value it returned, and a
// computation that panics releases its waiters to compute again.
func TestLRUGetOrComputeOnce(t *testing.T) {
	const n = 16
	c := NewLRU[int, *int](4)
	var calls atomic.Int32
	release := make(chan struct{})
	compute := func() *int {
		calls.Add(1)
		<-release // hold the computation until every caller has missed
		v := 7
		return &v
	}
	got := make([]*int, n)
	var started, done sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			started.Done()
			got[i] = c.GetOrCompute(1, compute)
		}()
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let the goroutines reach the cache
	close(release)
	done.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times for one key", calls.Load())
	}
	for i, p := range got {
		if p != got[0] || *p != 7 {
			t.Fatalf("caller %d got %p (%v), caller 0 got %p", i, p, *p, got[0])
		}
	}

	entered := make(chan struct{})
	var retried atomic.Bool
	go func() {
		defer func() { recover() }()
		c.GetOrCompute(2, func() *int { close(entered); time.Sleep(20 * time.Millisecond); panic("boom") })
	}()
	<-entered
	v := c.GetOrCompute(2, func() *int { retried.Store(true); v := 3; return &v })
	if *v != 3 || !retried.Load() {
		t.Fatalf("after a panicking computation: got %d, retried %v", *v, retried.Load())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 16
				if v := c.GetOrCompute(k, func() int { return k * 10 }); v != k*10 {
					t.Errorf("key %d → %d", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPoolCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		counts := make([]int, 100)
		var mu sync.Mutex
		NewPool(workers).Run(100, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, n := range counts {
			if n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestPoolWorkerIDsInRange(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	NewPool(4).RunWorker(64, func(worker, _ int) {
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
	})
	for w := range seen {
		if w < 0 || w >= 4 {
			t.Fatalf("worker id %d out of range", w)
		}
	}
}

func TestPoolZeroTasks(t *testing.T) {
	NewPool(4).Run(0, func(int) { t.Fatal("called") })
}

func TestGeneratorDeterministicAcrossEviction(t *testing.T) {
	g := NewGenerator(11, 2, 2) // tiny cache forces resynthesis
	first := g.Device(0).Profile.Sensor.Params
	g.Device(1)
	g.Device(2)
	g.Device(3) // 0 long evicted
	if again := g.Device(0).Profile.Sensor.Params; again != first {
		t.Fatalf("device 0 changed after eviction: %+v vs %+v", again, first)
	}
}

func TestGeneratorCohortRoundRobin(t *testing.T) {
	g := NewGenerator(11, 2, 64)
	cohorts := g.Cohorts()
	for i := 0; i < 12; i++ {
		d := g.Device(i)
		if d.Cohort != cohorts[i%len(cohorts)] {
			t.Fatalf("device %d cohort %q, want %q", i, d.Cohort, cohorts[i%len(cohorts)])
		}
		if d.ID != i {
			t.Fatalf("device %d has ID %d", i, d.ID)
		}
	}
}

func TestGeneratorDevicesDiffer(t *testing.T) {
	g := NewGenerator(11, 2, 64)
	a, b := g.Device(0), g.Device(5) // same cohort (round robin of 5 bases)
	if a.Cohort != b.Cohort {
		t.Fatalf("expected same cohort, got %q vs %q", a.Cohort, b.Cohort)
	}
	if a.Profile.Sensor.Params == b.Profile.Sensor.Params {
		t.Fatal("two fleet devices share identical sensors")
	}
}

func TestEngineCaptureDeterministic(t *testing.T) {
	items := dataset.GenerateHard(2, 3).Items
	g := NewGenerator(7, 2, 16)
	a, _ := NewEngine(7, 2, 16).Capture(g.Device(1), items[0], 2)
	b, _ := NewEngine(7, 2, 16).Capture(g.Device(1), items[0], 2)
	if !bytes.Equal(a.ToBytes(), b.ToBytes()) {
		t.Fatal("same cell captured differently across engines")
	}
}

func TestEngineSharesDisplayedFrame(t *testing.T) {
	items := dataset.GenerateHard(1, 3).Items
	e := NewEngine(7, 2, 16)
	a := e.Displayed(items[0], 0)
	b := e.Displayed(items[0], 0)
	if a != b {
		t.Fatal("displayed frame not shared via cache")
	}
	if a.W != dataset.SceneSize/2 {
		t.Fatalf("fleet frame width %d, want %d", a.W, dataset.SceneSize/2)
	}
}

// runStats executes one fleet run and returns its final JSON.
func runStats(t *testing.T, cfg Config) []byte {
	t.Helper()
	r := NewRunner(cfg, testFactory())
	stats := r.Run()
	if done, total, _ := r.Progress(); done != total {
		t.Fatalf("run finished with %d/%d devices", done, total)
	}
	if stats.DevicesDone != cfg.Devices || stats.Records == 0 {
		t.Fatalf("stats incomplete: %+v", stats)
	}
	return stats.JSON()
}

// TestFleetDeterministicAcrossWorkerCounts is the core reproducibility
// property: one seed, worker counts 1, 4 and 16, byte-identical stats.
func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	base := Config{Devices: 36, Items: 2, Angles: []int{1}, Seed: 99, TopK: 3}
	var first []byte
	for _, workers := range []int{1, 4, 16} {
		cfg := base
		cfg.Workers = workers
		got := runStats(t, cfg)
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("workers=%d stats diverged:\n%s\nvs\n%s", workers, got, first)
		}
	}
}

// TestFactoryRunsOncePerRuntimePerRun pins the sharing of compiled backends:
// whatever the worker count, a mixed-runtime run calls the factory exactly
// once for each runtime its devices use, and every worker infers through
// that one backend in its own scratch — with the stats still the bytes a
// one-worker run gives.
func TestFactoryRunsOncePerRuntimePerRun(t *testing.T) {
	base := Config{Devices: 36, Items: 2, Angles: []int{1}, Seed: 99, TopK: 3}
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		calls := map[string]int{}
		factory := testFactory()
		counting := func(runtime string) nn.Backend {
			mu.Lock()
			calls[runtime]++
			mu.Unlock()
			return factory(runtime)
		}
		cfg := base
		cfg.Workers = workers
		stats := NewRunner(cfg, counting).Run()
		if len(stats.ByRuntime) != len(nn.Runtimes()) {
			t.Fatalf("workers=%d: the fleet ran %d runtimes, want all %d", workers, len(stats.ByRuntime), len(nn.Runtimes()))
		}
		for _, rs := range stats.ByRuntime {
			if calls[rs.Runtime] != 1 {
				t.Errorf("workers=%d: factory ran %d times for %s, want once", workers, calls[rs.Runtime], rs.Runtime)
			}
		}
		if len(calls) != len(stats.ByRuntime) {
			t.Errorf("workers=%d: factory calls %v for runtimes %+v", workers, calls, stats.ByRuntime)
		}
		if got := stats.JSON(); first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("workers=%d stats diverged:\n%s\nvs\n%s", workers, got, first)
		}
	}
}

// TestFleetThousandDevicesDeterministic is the acceptance-scale run: ≥1000
// synthesized devices, byte-identical stats for 1 and 16 workers. Skipped
// in -short mode (it is the suite's slowest test).
func TestFleetThousandDevicesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-device fleet run skipped in -short mode")
	}
	base := Config{Devices: 1000, Items: 1, Angles: []int{2}, Seed: 424242, TopK: 3}
	cfg1 := base
	cfg1.Workers = 1
	cfg16 := base
	cfg16.Workers = 16
	a := runStats(t, cfg1)
	b := runStats(t, cfg16)
	if !bytes.Equal(a, b) {
		t.Fatalf("1000-device stats diverged between 1 and 16 workers:\n%s\nvs\n%s", a, b)
	}
}

// TestFleetInt8GoldenDeterminism is the int8 acceptance run: an all-int8
// 500-device fleet must produce byte-identical stats across worker counts
// 1, 4 and 16 — integer kernels, per-sample activation scales and the
// backend LRU must all be invisible to scheduling. Skipped in -short mode
// (it is sized like the thousand-device float test).
func TestFleetInt8GoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("500-device int8 fleet run skipped in -short mode")
	}
	base := Config{Devices: 500, Items: 1, Angles: []int{2}, Seed: 77, TopK: 3, Runtime: nn.RuntimeInt8}
	var first []byte
	for _, workers := range []int{1, 4, 16} {
		cfg := base
		cfg.Workers = workers
		got := runStats(t, cfg)
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("int8 workers=%d stats diverged:\n%s\nvs\n%s", workers, got, first)
		}
	}
}

// TestFleetMixedRuntimes checks the runtime axis of a mixed fleet: devices
// spread over several backends, per-runtime stats that add up, and a
// cross-runtime summary that stays 0/0 because no device is observed under
// two stacks in one run.
func TestFleetMixedRuntimes(t *testing.T) {
	cfg := Config{Devices: 24, Items: 2, Angles: []int{0, 2}, Seed: 5, Workers: 4}
	s := NewRunner(cfg, testFactory()).Run()
	if len(s.ByRuntime) < 2 {
		t.Fatalf("mixed fleet landed on %d runtimes: %+v", len(s.ByRuntime), s.ByRuntime)
	}
	devices, records := 0, 0
	for _, rs := range s.ByRuntime {
		if !nn.ValidRuntime(rs.Runtime) {
			t.Fatalf("unknown runtime %q in stats", rs.Runtime)
		}
		if rs.Devices == 0 || rs.Records != rs.Devices*cfg.Items*2 {
			t.Fatalf("runtime %s: devices=%d records=%d", rs.Runtime, rs.Devices, rs.Records)
		}
		devices += rs.Devices
		records += rs.Records
	}
	if devices != cfg.Devices || records != s.Records {
		t.Fatalf("runtime breakdown sums %d devices / %d records, want %d / %d", devices, records, cfg.Devices, s.Records)
	}
	if s.CrossRuntime.Groups != 0 {
		t.Fatalf("mixed single-observation fleet has cross-runtime groups: %+v", s.CrossRuntime)
	}
}

// TestFleetForcedRuntime pins Config.Runtime: every device reports the
// forced backend regardless of its synthesized assignment.
func TestFleetForcedRuntime(t *testing.T) {
	cfg := Config{Devices: 10, Items: 1, Angles: []int{1}, Seed: 9, Workers: 2, Runtime: nn.RuntimePruned}
	s := NewRunner(cfg, testFactory()).Run()
	if len(s.ByRuntime) != 1 || s.ByRuntime[0].Runtime != nn.RuntimePruned {
		t.Fatalf("forced pruned fleet reports %+v", s.ByRuntime)
	}
	if s.ByRuntime[0].Devices != cfg.Devices {
		t.Fatalf("forced runtime devices %d, want %d", s.ByRuntime[0].Devices, cfg.Devices)
	}
}

// TestRunnerMergedForcedSweeps reproduces the runtime attribution in
// miniature: the same fleet forced through float32 and int8, accumulator
// states merged — every (scene, device) cell is then observed by both
// stacks, so the cross-runtime denominator must cover all cells.
func TestRunnerMergedForcedSweeps(t *testing.T) {
	base := Config{Devices: 8, Items: 2, Angles: []int{0}, Seed: 31, Workers: 4}
	merged := stability.NewAccumulator()
	for _, rt := range []string{nn.RuntimeFloat32, nn.RuntimeInt8} {
		cfg := base
		cfg.Runtime = rt
		r := NewRunner(cfg, testFactory())
		r.Run()
		state, err := r.windowed.Window(0).MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.UnmarshalState(state); err != nil {
			t.Fatal(err)
		}
	}
	snap := merged.Snapshot()
	wantCells := base.Devices * base.Items // every device sees every (item, angle) under both runtimes
	if snap.CrossRuntime.Groups != wantCells {
		t.Fatalf("cross-runtime denominator %d, want %d", snap.CrossRuntime.Groups, wantCells)
	}
	if len(snap.ByRuntime) != 2 {
		t.Fatalf("merged sweeps report %d runtimes", len(snap.ByRuntime))
	}
	if snap.Records != 2*base.Devices*base.Items {
		t.Fatalf("merged records %d", snap.Records)
	}
}

// TestFleetStatsShape sanity-checks the aggregates of a small run.
func TestFleetStatsShape(t *testing.T) {
	cfg := Config{Devices: 10, Items: 2, Angles: []int{0, 2}, Seed: 5, Workers: 4}
	r := NewRunner(cfg, testFactory())
	s := r.Run()
	wantRecords := 10 * 2 * 2
	if s.Records != wantRecords || s.Captures != wantRecords {
		t.Fatalf("records=%d captures=%d, want %d", s.Records, s.Captures, wantRecords)
	}
	if s.Top1.Groups != 4 { // 2 items × 2 angles
		t.Fatalf("groups=%d, want 4", s.Top1.Groups)
	}
	if len(s.ByCohort) != 5 {
		t.Fatalf("cohorts=%d, want 5", len(s.ByCohort))
	}
	devices := 0
	for _, c := range s.ByCohort {
		devices += c.Devices
	}
	if devices != cfg.Devices {
		t.Fatalf("cohort devices sum %d, want %d", devices, cfg.Devices)
	}
	if s.Score.N != wantRecords || s.CaptureBytes.N != wantRecords {
		t.Fatalf("online Ns %d/%d, want %d", s.Score.N, s.CaptureBytes.N, wantRecords)
	}
	if s.CaptureBytes.Mean <= 0 {
		t.Fatal("capture bytes mean not positive")
	}
	if s.Accuracy < 0 || s.Accuracy > 1 {
		t.Fatalf("accuracy %v out of range", s.Accuracy)
	}
}

// TestFleetInFlightSnapshot takes a snapshot mid-run (via Start) and checks
// it is well-formed and monotone with respect to the final one.
func TestFleetInFlightSnapshot(t *testing.T) {
	cfg := Config{Devices: 12, Items: 1, Angles: []int{0}, Seed: 8, Workers: 2}
	r := NewRunner(cfg, testFactory())
	done := r.Start()
	mid := r.Stats() // may see anywhere from 0 to all devices
	if mid.DevicesDone < 0 || mid.DevicesDone > cfg.Devices {
		t.Fatalf("mid-run devices done %d", mid.DevicesDone)
	}
	<-done
	final := r.Stats()
	if final.DevicesDone != cfg.Devices {
		t.Fatalf("final devices done %d", final.DevicesDone)
	}
	if mid.Records > final.Records {
		t.Fatalf("records went backwards: %d → %d", mid.Records, final.Records)
	}
}

// TestConfigDedupsDuplicateAngles: duplicate angles must not double-count
// cells in the admission math or double-feed groups — direct fleet callers
// (the API layer rejects duplicates before reaching here) get them
// collapsed, preserving first-occurrence order.
func TestConfigDedupsDuplicateAngles(t *testing.T) {
	cfg := Config{Devices: 10, Items: 2, Angles: []int{2, 0, 2, 4, 0}}
	got := cfg.WithDefaults().Angles
	want := []int{2, 0, 4}
	if len(got) != len(want) {
		t.Fatalf("deduped angles %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deduped angles %v, want %v", got, want)
		}
	}
	if c := cfg.Captures(); c != 10*2*3 {
		t.Fatalf("captures %d counted duplicate angles, want %d", c, 10*2*3)
	}
	// The original config is untouched (WithDefaults copies).
	if len(cfg.Angles) != 5 {
		t.Fatalf("caller slice mutated: %v", cfg.Angles)
	}
}
