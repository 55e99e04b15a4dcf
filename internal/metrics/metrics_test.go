package metrics

import (
	"math"
	"testing"
)

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
