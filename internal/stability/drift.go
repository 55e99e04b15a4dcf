package stability

import "math"

// Drift detection over per-window rate series. A continuous fleet emits one
// flip rate per window (ComparePair of consecutive windows); a lifecycle
// event that perturbs predictions — an OS decoder update, a quantization
// rollout — shows up as a step in that series. DetectDrift flags steps with
// a windowed z-score against a trailing baseline, plus a one-sided CUSUM
// reported as a secondary statistic. Both are pure arithmetic over the
// series, so drift reports inherit the byte-determinism of the windowed
// accumulators they are computed from.

// DriftConfig tunes the detector. The zero value means defaults.
type DriftConfig struct {
	// Baseline is how many trailing windows form the reference
	// mean/stddev (default 4, minimum 2). The first flaggable window is
	// the one after the first full baseline.
	Baseline int `json:"baseline,omitempty"`
	// MinZ is the z-score magnitude at which a window is flagged
	// (default 3).
	MinZ float64 `json:"min_z,omitempty"`
	// MinDelta is the smallest absolute rate shift worth flagging
	// (default 0.02). It also floors the baseline stddev at
	// MinDelta/MinZ, so a perfectly flat baseline flags exactly when the
	// shift reaches MinDelta instead of dividing by zero.
	MinDelta float64 `json:"min_delta,omitempty"`
}

// WithDefaults fills zero fields with defaults and clamps Baseline to >= 2.
func (c DriftConfig) WithDefaults() DriftConfig {
	if c.Baseline == 0 {
		c.Baseline = 4
	}
	if c.Baseline < 2 {
		c.Baseline = 2
	}
	if c.MinZ == 0 {
		c.MinZ = 3
	}
	if c.MinDelta == 0 {
		c.MinDelta = 0.02
	}
	return c
}

// DriftPoint is the detector's verdict on one window of the series.
type DriftPoint struct {
	// Window is the index into the series handed to DetectDrift.
	Window int `json:"window"`
	// Value is the series value at this window.
	Value float64 `json:"value"`
	// Mean and Stddev describe the trailing baseline (zero until a full
	// baseline exists).
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	// Z is the window's z-score against the floored baseline stddev.
	Z float64 `json:"z"`
	// CUSUM is the running one-sided cumulative sum of deviations beyond
	// MinDelta/2 — a slow-drift indicator reported alongside the z-score;
	// the flag itself is decided by Z alone.
	CUSUM float64 `json:"cusum"`
	// Flagged reports |Z| >= MinZ with a full baseline behind it.
	Flagged bool `json:"flagged"`
}

// DetectDrift scans a rate series and returns one DriftPoint per window.
// Windows before the first full baseline are never flagged. The scan is a
// pure function of (values, cfg).
func DetectDrift(values []float64, cfg DriftConfig) []DriftPoint {
	cfg = cfg.WithDefaults()
	sigmaFloor := cfg.MinDelta / cfg.MinZ
	points := make([]DriftPoint, len(values))
	cusum := 0.0
	for w, v := range values {
		p := DriftPoint{Window: w, Value: v}
		if w >= cfg.Baseline {
			mean, std := meanStddev(values[w-cfg.Baseline : w])
			p.Mean, p.Stddev = mean, std
			p.Z = (v - mean) / math.Max(std, sigmaFloor)
			p.Flagged = math.Abs(p.Z) >= cfg.MinZ
			// One-sided CUSUM with slack MinDelta/2, reset while it stays
			// non-positive.
			cusum = math.Max(0, cusum+math.Abs(v-mean)-float64(cfg.MinDelta/2))
		}
		p.CUSUM = cusum
		points[w] = p
	}
	return points
}

func meanStddev(vals []float64) (mean, stddev float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var m2 float64
	for _, v := range vals {
		d := v - mean
		m2 += float64(d * d)
	}
	return mean, math.Sqrt(m2 / float64(len(vals)))
}
