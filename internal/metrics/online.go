package metrics

import "math"

// Online accumulates mean, variance, min and max of a value stream in one
// pass (Welford's algorithm), for consumers that cannot retain the stream —
// the fleet aggregator updates one per tracked quantity as records arrive.
// The zero value is ready to use.
type Online struct {
	N       int     `json:"n"`
	MeanVal float64 `json:"mean"`
	m2      float64
	MinVal  float64 `json:"min"`
	MaxVal  float64 `json:"max"`
}

// Observe folds one value into the stream summary.
func (o *Online) Observe(v float64) {
	if o.N == 0 {
		o.MinVal, o.MaxVal = v, v
	} else {
		if v < o.MinVal {
			o.MinVal = v
		}
		if v > o.MaxVal {
			o.MaxVal = v
		}
	}
	o.N++
	delta := v - o.MeanVal
	o.MeanVal += delta / float64(o.N)
	o.m2 += float64(delta * (v - o.MeanVal))
}

// Merge folds another summary into this one (parallel shards combine with
// Chan et al.'s pairwise update). The result is identical to observing both
// streams into one accumulator, up to floating-point association.
func (o *Online) Merge(other Online) {
	if other.N == 0 {
		return
	}
	if o.N == 0 {
		*o = other
		return
	}
	if other.MinVal < o.MinVal {
		o.MinVal = other.MinVal
	}
	if other.MaxVal > o.MaxVal {
		o.MaxVal = other.MaxVal
	}
	n := float64(o.N + other.N)
	delta := other.MeanVal - o.MeanVal
	o.m2 += other.m2 + delta*delta*float64(o.N)*float64(other.N)/n
	o.MeanVal += delta * float64(other.N) / n
	o.N += other.N
}

// OnlineState is the complete serializable form of an Online accumulator,
// including the unexported second-moment term. Restoring it reproduces the
// accumulator bit-for-bit, so a distributed shard can ship its per-device
// aggregates and the coordinator can resume the exact float operation
// sequence a single process would have run — the property fleet-stats
// byte-determinism rests on. (encoding/json emits the shortest float64
// representation that round-trips exactly, so JSON transport is lossless.)
type OnlineState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State exports the accumulator's exact internal state.
func (o *Online) State() OnlineState {
	return OnlineState{N: o.N, Mean: o.MeanVal, M2: o.m2, Min: o.MinVal, Max: o.MaxVal}
}

// FromState rebuilds an accumulator from an exported state.
func FromState(s OnlineState) Online {
	return Online{N: s.N, MeanVal: s.Mean, m2: s.M2, MinVal: s.Min, MaxVal: s.Max}
}

// Mean returns the running mean (0 when empty).
func (o *Online) Mean() float64 { return o.MeanVal }

// Variance returns the running population variance (0 with <2 samples).
func (o *Online) Variance() float64 {
	if o.N < 2 {
		return 0
	}
	return o.m2 / float64(o.N)
}

// Stddev returns the running population standard deviation.
func (o *Online) Stddev() float64 { return math.Sqrt(o.Variance()) }
