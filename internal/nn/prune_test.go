package nn

import (
	"math"
	"os"
	"sort"
	"testing"
)

// refPruneToKeep is pruneToKeep as it was before kthLargestMagnitude: the
// threshold read out of the magnitudes sorted in descending order.
func refPruneToKeep(w []float32, keep float64) {
	n := len(w)
	k := int(float64(n)*keep + 0.5)
	if k >= n {
		return
	}
	if k < 1 {
		k = 1
	}
	abs := make([]float32, n)
	for i, v := range w {
		if v < 0 {
			v = -v
		}
		abs[i] = v
	}
	sort.Slice(abs, func(i, j int) bool { return abs[i] > abs[j] })
	threshold := abs[k-1]
	for i, v := range w {
		if v < threshold && -v < threshold {
			w[i] = 0
		}
	}
}

// TestPruneThresholdMatchesReference prunes every parameter vector of the
// benchmark's committed base model both ways, at the shipped keep fraction and
// at fractions that put the threshold among the ties and at the extremes:
// every pruned weight must have the same bits.
func TestPruneThresholdMatchesReference(t *testing.T) {
	f, err := os.Open("../../bench/testdata/base.model")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	vectors := append(snap.weights, []float32{0, negZero, 0, 1, -1, 1, negZero, -1, 0.5, 0})
	for _, keep := range []float64{DefaultPruneKeep, 0.5, 0.31, 0.05, 1e-9, 0.999} {
		for i, w := range vectors {
			got, want := append([]float32(nil), w...), append([]float32(nil), w...)
			pruneToKeep(got, keep)
			refPruneToKeep(want, keep)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("keep %v, vector %d (%d values): weight %d = %v (%#x), reference %v (%#x)",
						keep, i, len(w), j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
				}
			}
		}
	}
}
