// Package metrics provides the classical evaluation metrics the paper
// contrasts instability against: the means and medians behind the
// score-distribution figures, and one-pass value summaries.
package metrics

import (
	"math"
	"sort"
)

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
