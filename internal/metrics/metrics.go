// Package metrics provides the classical evaluation metrics the paper
// contrasts instability against: per-class precision/recall curves, the
// histogram/density estimates behind the score-distribution figures, and
// one-pass value summaries.
package metrics

import (
	"math"
	"sort"
)

// PRPoint is one precision/recall operating point.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// PrecisionRecallCurve sweeps a confidence threshold over per-example class
// probabilities and returns macro-averaged precision/recall points, the
// curve family of Figure 7. probs[i][c] is the model's probability of class
// c for example i.
func PrecisionRecallCurve(probs [][]float64, labels []int, classes int, thresholds []float64) []PRPoint {
	if len(probs) != len(labels) {
		panic("metrics: PrecisionRecallCurve length mismatch")
	}
	if thresholds == nil { // 0, 0.05, ..., 0.95, each the nearest float64 to i/20
		for i := range 20 {
			thresholds = append(thresholds, float64(i)/20)
		}
	}
	points := make([]PRPoint, 0, len(thresholds))
	for _, th := range thresholds {
		var sumP, sumR float64
		validP := 0
		for c := 0; c < classes; c++ {
			tp, fp, fn := 0, 0, 0
			for i, pr := range probs {
				pred := argmax(pr)
				positive := pred == c && pr[pred] >= th
				actual := labels[i] == c
				switch {
				case positive && actual:
					tp++
				case positive && !actual:
					fp++
				case !positive && actual:
					fn++
				}
			}
			if tp+fp > 0 {
				sumP += float64(tp) / float64(tp+fp)
				validP++
			}
			if tp+fn > 0 {
				sumR += float64(tp) / float64(tp+fn)
			}
		}
		p := 0.0
		if validP > 0 {
			p = sumP / float64(validP)
		}
		points = append(points, PRPoint{Threshold: th, Precision: p, Recall: sumR / float64(classes)})
	}
	return points
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Histogram is a fixed-range equal-width histogram.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
}

// NewHistogram bins values into n equal-width buckets over [min,max].
// Values outside the range clamp into the boundary buckets.
func NewHistogram(values []float64, min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic("metrics: invalid histogram parameters")
	}
	h := &Histogram{Min: min, Max: max, Counts: make([]int, n)}
	for _, v := range values {
		i := int((v - min) / (max - min) * float64(n))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// Density returns the normalized bucket densities (integrating to 1 over
// the range), the y-axis of Figure 4.
func (h *Histogram) Density() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	width := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		out[i] = float64(c) / (float64(h.Total) * width)
	}
	return out
}

// Mean returns the arithmetic mean of values (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Median returns the median of values (0 for empty input).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	cp := append([]float64(nil), values...)
	sort.Float64s(cp)
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}

// Stddev returns the population standard deviation of values.
func Stddev(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := Mean(values)
	var s float64
	for _, v := range values {
		d := v - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(values)))
}
