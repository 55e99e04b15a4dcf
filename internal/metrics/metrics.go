// Package metrics provides the classical evaluation metrics the paper
// contrasts instability against: the histogram/density estimates behind the
// score-distribution figures, and one-pass value summaries.
package metrics

import (
	"math"
	"sort"
)

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
