package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/train"
)

// modelPath is the committed snapshot of lab.DefaultBaseModel(), relative to
// the repository root. Training it takes about a minute; a benchmark that
// retrained per run would measure little else, and an untrained net sits at
// chance, where no group is unstable.
const modelPath = "bench/testdata/base.model"

const (
	modelParams      = 27133
	modelMinAccuracy = 0.9
)

// snapshotPath finds the snapshot from the repository root (go run ./bench)
// or from this directory (go test).
func snapshotPath() string {
	if _, err := os.Stat(modelPath); err != nil {
		return filepath.Join("testdata", filepath.Base(modelPath))
	}
	return modelPath
}

// loadModel loads the snapshot, checks it is the model the numbers assume, so
// that a stale or truncated snapshot fails loudly instead of timing a
// degenerate model, and returns the backend factory every server and runner
// of a run shares.
func loadModel(checkItems int) (fleet.BackendFactory, error) {
	path := snapshotPath()
	if _, err := os.Stat(path); err != nil {
		// LoadOrTrainBaseModel would silently spend a minute training.
		return nil, fmt.Errorf("model snapshot: %w (run go run ./bench -regen-model)", err)
	}
	cfg := lab.DefaultBaseModel()
	model, err := lab.LoadOrTrainBaseModel(cfg, path, nil)
	if err != nil {
		return nil, err
	}
	if n := model.NumParams(); n != modelParams {
		return nil, fmt.Errorf("model snapshot %s has %d params, want %d", path, n, modelParams)
	}
	set := dataset.Generate(checkItems, cfg.Seed+100)
	images := make([]*imaging.Image, len(set.Items))
	for i, it := range set.Items {
		images[i] = it.Render(2)
	}
	preds, _, _ := train.Evaluate(model, images, 0)
	right := 0
	for i, it := range set.Items {
		if preds[i] == int(it.Class) {
			right++
		}
	}
	if acc := float64(right) / float64(len(preds)); acc < modelMinAccuracy {
		return nil, fmt.Errorf("model snapshot %s scores %.2f on clean renders, want >= %.2f: stale snapshot?", path, acc, modelMinAccuracy)
	}
	return fleet.BackendReplicator(cfg.Arch, model), nil
}

// regenModel retrains the default base model and rewrites the snapshot.
func regenModel() error {
	if err := os.Remove(modelPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	_, err := lab.LoadOrTrainBaseModel(lab.DefaultBaseModel(), modelPath, logf)
	return err
}

// box is the benchmark's yardstick for the speed of the machine under it,
// read before and after every pass and segment. On a shared box a neighbour
// slows the program by a tenth to a half for seconds or minutes at a time by
// crowding the caches and the memory bus: a loop that waits only on the
// multiplier keeps its speed through it, while loops that stream over memory
// or allocate it slow about as the workloads do. A reading therefore runs one
// loop of each of those two kinds, each a fixed amount of work pulled in small
// units by P goroutines, as a pass is pulled by P workers, and is the
// geometric mean of their speeds. ops_per_s is scaled by the readings around
// each pass (emitRates); they are also reported on their own, as box.calib_*.
type box struct {
	procs, units int
	readings     []float64 // millions of elements per second
	allocated    uint64    // bytes the readings themselves have allocated
}

const (
	streamElems = 1 << 14 // float32 updated per unit by the streaming loop
	allocElems  = 1 << 15 // float32 allocated and written per unit by the allocating loop
)

func newBox(procs, units int) *box { return &box{procs: procs, units: units} }

// spin runs units units of work on the box's goroutines and returns the
// speed in millions of elements per second. worker calls next before every
// unit and stops when it returns false.
func (bx *box) spin(units, elems int, worker func(next func() bool)) float64 {
	var taken atomic.Int64
	next := func() bool { return int(taken.Add(1)) <= units }
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < bx.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(next)
		}()
	}
	wg.Wait()
	return float64(units) * float64(elems) / 1e6 / time.Since(t0).Seconds()
}

// read takes one reading, about a tenth of a second long at the frozen
// size, and returns it.
func (bx *box) read() float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream := bx.spin(3*bx.units, streamElems, func(next func() bool) {
		a, b := make([]float32, streamElems), make([]float32, streamElems)
		var sum float32
		for next() {
			for i := range a {
				a[i] = a[i]*0.5 + b[i]*0.25 + 1
				sum += a[i]
			}
		}
		runtime.KeepAlive(sum) // or the loop is dead code
	})
	// The allocating loop runs beside 32 MB that are live but never touched:
	// without them its speed would hang on how often the collector runs, and
	// so on how much the workload's servers happen to retain (it read twice as
	// fast beside 30 MB of them as beside 1 MB).
	ballast := make([]byte, 32<<20)
	alloc := bx.spin(bx.units, allocElems, func(next func() bool) {
		var sum float32
		for next() {
			a := make([]float32, allocElems)
			for i := range a {
				a[i] = float32(i)
			}
			sum += a[len(a)/2]
		}
		runtime.KeepAlive(sum)
	})
	runtime.KeepAlive(ballast)
	ballast = nil
	runtime.GC() // so that the pass after it starts from the heap the servers hold, not from the reading's
	runtime.ReadMemStats(&after)
	bx.allocated += after.TotalAlloc - before.TotalAlloc
	speed := math.Sqrt(stream * alloc)
	bx.readings = append(bx.readings, speed)
	return speed
}

// iqrShare returns the distance between the first and third quartile as a
// share of the median.
func iqrShare(values []float64) float64 {
	return (quantile(values, 0.75) - quantile(values, 0.25)) / metrics.Median(values)
}

// quantile returns the q-quantile (nearest rank) of the values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailQuantile returns the highest percentile, up to p99, that has at least
// ten samples beyond it.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return min(0.99, 1-10/float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeCalls runs fn n times and returns the median call time.
func timeCalls(n int, fn func()) time.Duration {
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(metrics.Median(times))
}

// allocPerCall returns the bytes fn allocates per call, over n calls.
func allocPerCall(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
