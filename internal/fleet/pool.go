package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool executes index-addressed tasks across a fixed set of workers with
// dynamic work stealing. Tasks must be self-contained functions of their
// index (reading shared immutable state, writing only their own output
// slot); under that contract the results are identical for any worker
// count, which is how the fleet keeps bit-reproducibility while scaling
// across cores.
type Pool struct {
	// Workers is the concurrency level; 0 or less means GOMAXPROCS.
	Workers int
}

// NewPool returns a pool with the given worker count (0 = GOMAXPROCS).
func NewPool(workers int) *Pool { return &Pool{Workers: workers} }

func (p *Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WorkersFor returns the number of workers a Run over n tasks will actually
// use: the configured count (or GOMAXPROCS) clamped to n. Callers sizing
// per-worker state (inference scratches) must use this, not the raw field.
func (p *Pool) WorkersFor(n int) int {
	w := p.workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run invokes fn(i) for every i in [0, n), distributing indices over the
// workers, and returns when all calls complete.
func (p *Pool) Run(n int, fn func(i int)) {
	p.RunWorker(n, func(_, i int) { fn(i) })
}

// RunWorker is Run with the executing worker's id (0..Workers-1) passed to
// each call, for tasks that keep per-worker state such as an inference
// scratch.
// The mapping of indices to workers is load-dependent; correctness must not
// rely on it.
func (p *Pool) RunWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := p.WorkersFor(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for worker := 0; worker < w; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(worker)
	}
	wg.Wait()
}
