package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/fleetapi"
)

// Arrival is one scheduled request: when it fires (nanoseconds from workload
// start) and the full serve-request cell it carries. A schedule is the
// workload's deterministic expansion — the same spec yields the same
// arrivals everywhere.
type Arrival struct {
	Cohort      string `json:"cohort"`
	Class       string `json:"class"`
	Seq         int    `json:"seq"` // per-cohort sequence number
	OffsetNanos int64  `json:"offset_ns"`
	Device      int    `json:"device"`
	Item        int    `json:"item"`
	Angle       int    `json:"angle"`
	Items       int    `json:"items"`
	Scale       int    `json:"scale,omitempty"`
	Runtime     string `json:"runtime,omitempty"`
}

// ServeRequest renders the arrival as the wire request it fires.
func (a Arrival) ServeRequest(seed int64) fleetapi.ServeRequest {
	return fleetapi.ServeRequest{
		Device:  a.Device,
		Item:    a.Item,
		Angle:   a.Angle,
		Seed:    seed,
		Items:   a.Items,
		Scale:   a.Scale,
		Runtime: a.Runtime,
		Class:   a.Class,
	}
}

// Schedule expands the spec into its arrival sequence, merged across cohorts
// and sorted by fire time (ties broken by cohort order, then sequence — a
// total order, so the schedule is reproducible byte for byte).
func Schedule(spec WorkloadSpec) ([]Arrival, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var all []Arrival
	for i := range spec.Cohorts {
		c := spec.Cohorts[i].withDefaults()
		gaps, cells := cohortRNGs(spec.Seed, i)
		limit := c.duration().Nanoseconds()
		var t int64
		for seq := 0; c.Requests == 0 || seq < c.Requests; seq++ {
			t += gapNanos(gaps, c)
			if limit > 0 && t > limit {
				break
			}
			device, item, angle := sampleCell(cells, c)
			all = append(all, Arrival{
				Cohort:      c.Name,
				Class:       c.Class,
				Seq:         seq,
				OffsetNanos: t,
				Device:      device,
				Item:        item,
				Angle:       angle,
				Items:       c.Items,
				Scale:       c.Scale,
				Runtime:     c.Runtime,
			})
			if len(all) > MaxScheduledRequests {
				return nil, fmt.Errorf("workload expands past %d requests; tighten a budget", MaxScheduledRequests)
			}
		}
	}
	cohortOrder := map[string]int{}
	for i, c := range spec.Cohorts {
		cohortOrder[c.Name] = i
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].OffsetNanos != all[j].OffsetNanos {
			return all[i].OffsetNanos < all[j].OffsetNanos
		}
		if ci, cj := cohortOrder[all[i].Cohort], cohortOrder[all[j].Cohort]; ci != cj {
			return ci < cj
		}
		return all[i].Seq < all[j].Seq
	})
	return all, nil
}

// gapNanos draws one inter-arrival gap. Every distribution is parameterized
// so the mean gap is 1/rate — Dist and Shape control the gap's variance and
// tail, never the cohort's volume.
func gapNanos(rng *rand.Rand, c Cohort) int64 {
	var gap float64 // seconds
	switch c.Dist {
	case DistGamma:
		// Gamma(k, θ) with θ = 1/(k·rate): mean kθ = 1/rate.
		gap = sampleGamma(rng, c.Shape) / (c.Shape * c.RatePerSec)
	case DistWeibull:
		// Weibull(k, λ) with λ = 1/(rate·Γ(1+1/k)): mean λΓ(1+1/k) = 1/rate.
		lambda := 1 / (c.RatePerSec * math.Gamma(1+1/c.Shape))
		gap = lambda * math.Pow(rng.ExpFloat64(), 1/c.Shape)
	default: // Poisson arrivals: exponential gaps
		gap = rng.ExpFloat64() / c.RatePerSec
	}
	n := int64(gap * 1e9)
	if n < 1 {
		n = 1 // keep offsets strictly increasing within a cohort
	}
	return n
}

// sampleGamma draws Gamma(k, 1) by Marsaglia–Tsang squeeze for k ≥ 1, with
// the standard boost through Gamma(k+1)·U^(1/k) for k < 1. Every product,
// the inlined uniform draw's too, is rounded before it is added, so no
// target fuses them and a seed schedules the same arrivals everywhere.
func sampleGamma(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		u := 1 - float64(rng.Float64()) // (0, 1]
		return sampleGamma(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := 1 - float64(rng.Float64())
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}
