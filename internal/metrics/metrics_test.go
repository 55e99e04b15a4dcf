package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramCountsAndClamping(t *testing.T) {
	h := NewHistogram([]float64{-1, 0.05, 0.55, 0.95, 2}, 0, 1, 10)
	if h.Total != 5 {
		t.Fatalf("total %d", h.Total)
	}
	if h.Counts[0] != 2 { // -1 clamps into the first bucket
		t.Fatalf("first bucket %d", h.Counts[0])
	}
	if h.Counts[9] != 2 { // 2 clamps into the last bucket
		t.Fatalf("last bucket %d", h.Counts[9])
	}
	if h.Counts[5] != 1 {
		t.Fatalf("middle bucket %d", h.Counts[5])
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		h := NewHistogram(vals, 0, 1, 8)
		width := 1.0 / 8
		var integral float64
		for _, d := range h.Density() {
			integral += d * width
		}
		return math.Abs(integral-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmptyDensity(t *testing.T) {
	h := NewHistogram(nil, 0, 1, 4)
	for _, d := range h.Density() {
		if d != 0 {
			t.Fatal("empty histogram density must be 0")
		}
	}
}

func TestHistogramPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(nil, 0, 1, 0) },
		func() { NewHistogram(nil, 1, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanMedianStddev(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if Mean(vals) != 2.5 {
		t.Fatalf("Mean = %v", Mean(vals))
	}
	if Median(vals) != 2.5 {
		t.Fatalf("Median = %v", Median(vals))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd-length median")
	}
	if math.Abs(Stddev(vals)-math.Sqrt(1.25)) > 1e-9 {
		t.Fatalf("Stddev = %v", Stddev(vals))
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Stddev(nil) != 0 {
		t.Fatal("empty statistics must be 0")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Median(vals)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}
