package obs

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHistogramMergeEqualsSingleProcess is the shard-determinism property:
// the same observation stream split across N histograms ("shards") and
// merged as snapshots must equal one histogram accumulating everything —
// exactly, counts and sum, for any split and any merge order. This is the
// same discipline fleet.ContinuousState merging is held to.
func TestHistogramMergeEqualsSingleProcess(t *testing.T) {
	bounds := DurationBuckets()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nShards := 1 + rng.Intn(8)
		shards := make([]*Histogram, nShards)
		for i := range shards {
			shards[i] = NewHistogram(bounds, 1e-9)
		}
		single := NewHistogram(bounds, 1e-9)
		n := 1 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			// Heavy-tailed values spanning below the first bound to beyond
			// the overflow bucket.
			v := int64(rng.ExpFloat64() * float64(bounds[rng.Intn(len(bounds))]))
			single.Observe(v)
			shards[rng.Intn(nShards)].Observe(v)
		}
		// Merge in a shuffled order: order must not matter.
		merged := shards[0].Snapshot()
		order := rng.Perm(nShards - 1)
		for _, i := range order {
			if err := merged.Merge(shards[i+1].Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		want := single.Snapshot()
		if merged.Sum != want.Sum {
			t.Fatalf("trial %d: merged sum %d != single %d", trial, merged.Sum, want.Sum)
		}
		for i := range want.Counts {
			if merged.Counts[i] != want.Counts[i] {
				t.Fatalf("trial %d: bucket %d: merged %d != single %d", trial, i, merged.Counts[i], want.Counts[i])
			}
		}
		if merged.Total() != int64(n) {
			t.Fatalf("trial %d: merged total %d != %d", trial, merged.Total(), n)
		}
	}
}

// TestHistogramConcurrentObserve drives observations from many goroutines
// (run under -race in CI) and checks no count is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DurationBuckets(), 1e-9)
	const workers, perWorker = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(rng.Intn(20_000_000_000)))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("lost observations: %d, want %d", got, workers*perWorker)
	}
	snap := h.Snapshot()
	if snap.Total() != workers*perWorker {
		t.Fatalf("snapshot total %d, want %d", snap.Total(), workers*perWorker)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000}, 1)
	for _, v := range []int64{0, 10, 11, 100, 999, 1000, 1001, 5000} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// Inclusive upper bounds: 0,10 → b0; 11,100 → b1; 999,1000 → b2;
	// 1001,5000 → overflow.
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Sum != 0+10+11+100+999+1000+1001+5000 {
		t.Fatalf("sum = %d", snap.Sum)
	}
}

func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a := NewHistogram([]int64{1, 2}, 1).Snapshot()
	b := NewHistogram([]int64{1, 3}, 1).Snapshot()
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched bounds accepted")
	}
	c := NewHistogram([]int64{1, 2, 3}, 1).Snapshot()
	if err := a.Merge(c); err == nil {
		t.Fatal("merge of different bucket counts accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 300, 400}, 1)
	for v := int64(1); v <= 400; v++ {
		h.Observe(v)
	}
	snap := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 200}, {0.25, 100}, {0.95, 380},
	} {
		got := snap.Quantile(tc.q)
		if got < tc.want*0.95 || got > tc.want*1.05 {
			t.Fatalf("q%.2f = %g, want ≈%g", tc.q, got, tc.want)
		}
	}
	if (HistogramSnapshot{Bounds: []int64{1}, Counts: []int64{0, 0}}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

// TestHistogramQuantileEdges pins the defined behavior of the edge cases the
// SLO report paths depend on: empty histograms, a single populated bucket,
// out-of-range q, and q=0/q=1 landing on the edges of non-empty buckets
// rather than inside buckets nothing was observed in.
func TestHistogramQuantileEdges(t *testing.T) {
	bounds := []int64{100, 200, 300, 400}

	// Empty: 0 for every q, including the clamped extremes.
	empty := NewHistogram(bounds, 1).Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}

	// Single populated bucket (200, 300]: every quantile interpolates inside
	// it — q=0 gives its lower edge, q=1 its upper bound.
	single := NewHistogram(bounds, 1)
	for i := 0; i < 10; i++ {
		single.Observe(250)
	}
	ss := single.Snapshot()
	if got := ss.Quantile(0); got != 200 {
		t.Fatalf("single-bucket Quantile(0) = %g, want 200", got)
	}
	if got := ss.Quantile(1); got != 300 {
		t.Fatalf("single-bucket Quantile(1) = %g, want 300", got)
	}
	if got := ss.Quantile(0.5); got <= 200 || got > 300 {
		t.Fatalf("single-bucket Quantile(0.5) = %g, want in (200, 300]", got)
	}

	// q outside [0,1] clamps to the edges.
	if got := ss.Quantile(-3); got != ss.Quantile(0) {
		t.Fatalf("Quantile(-3) = %g, want clamp to Quantile(0) = %g", got, ss.Quantile(0))
	}
	if got := ss.Quantile(7); got != ss.Quantile(1) {
		t.Fatalf("Quantile(7) = %g, want clamp to Quantile(1) = %g", got, ss.Quantile(7))
	}

	// Sparse buckets: observations in (0,100] and (300,400] only. q=0 must
	// report the first bucket's lower edge (0), q=1 the last non-empty
	// bucket's bound (400), and mid quantiles must never land in the empty
	// middle buckets.
	sparse := NewHistogram(bounds, 1)
	sparse.Observe(50)
	sparse.Observe(350)
	sp := sparse.Snapshot()
	if got := sp.Quantile(0); got != 0 {
		t.Fatalf("sparse Quantile(0) = %g, want 0", got)
	}
	if got := sp.Quantile(1); got != 400 {
		t.Fatalf("sparse Quantile(1) = %g, want 400", got)
	}
	if got := sp.Quantile(0.5); got != 100 {
		// rank 1 falls exactly on the first bucket's cumulative count: its
		// upper bound.
		t.Fatalf("sparse Quantile(0.5) = %g, want 100", got)
	}
	if got := sp.Quantile(0.75); got <= 300 || got > 400 {
		t.Fatalf("sparse Quantile(0.75) = %g, want in (300, 400]", got)
	}

	// Overflow bucket: reports the last configured bound for any quantile
	// landing in it, including q=1.
	over := NewHistogram(bounds, 1)
	over.Observe(10_000)
	if got := over.Snapshot().Quantile(1); got != 400 {
		t.Fatalf("overflow Quantile(1) = %g, want 400", got)
	}

	// Scale applies to every edge path.
	scaled := NewHistogram(bounds, 0.5)
	scaled.Observe(250)
	if got := scaled.Snapshot().Quantile(1); got != 150 {
		t.Fatalf("scaled Quantile(1) = %g, want 150", got)
	}
}

func TestHistogramCountLE(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 300}, 1)
	for _, v := range []int64{50, 100, 150, 250, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		v    int64
		want int64
	}{
		{100, 2},     // exact: bucket bound
		{200, 3},     // exact: bucket bound
		{300, 4},     // exact: bucket bound
		{150, 2},     // between bounds: whole buckets below only
		{99, 0},      // below the first bound
		{1 << 40, 4}, // overflow observations are never ≤ a bound
	} {
		if got := s.CountLE(tc.v); got != tc.want {
			t.Fatalf("CountLE(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}
