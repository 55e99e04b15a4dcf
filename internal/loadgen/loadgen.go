// Package loadgen is an open-loop workload generator for fleetd's serving
// path. A WorkloadSpec names cohorts of traffic — each with a deterministic
// seeded arrival process (Poisson, Gamma or Weibull inter-arrivals), a cell
// sampling universe and an SLO class — and expands into a request schedule
// fired at POST /v1/serve at the scheduled instants, never gated on
// responses (the defining property of open-loop load: an overloaded server
// faces the arrival rate the spec declares, not the rate its own latency
// induces).
//
// Everything stochastic is derived from the workload seed through splitmix
// sub-streams, so a spec expands to the same schedule on every machine; the
// outcomes are recorded as an NDJSON trace whose canonical order makes the
// SLO report a pure function of the trace bytes — replaying a recorded
// trace reproduces the report byte for byte regardless of worker count or
// wall clock.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleetapi"
	"repro/internal/fmath"
	"repro/internal/nn"
)

// Arrival distributions a cohort may draw inter-arrival gaps from.
const (
	DistPoisson = "poisson" // exponential gaps: memoryless, the open-loop default
	DistGamma   = "gamma"   // shape k gaps: k<1 bursty, k>1 smoothed
	DistWeibull = "weibull" // heavy (k<1) or light (k>1) tailed gaps
)

// Cohort is one named traffic stream of a workload: an arrival process, the
// cell universe it samples requests from, and the SLO class admission judges
// them under. Mean arrival rate is RatePerSec for every distribution — Dist
// and Shape change burstiness, not volume.
type Cohort struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	// Dist selects the inter-arrival distribution (default poisson); Shape
	// is its k parameter (default 1, which makes gamma and weibull collapse
	// to the exponential).
	Dist       string  `json:"dist,omitempty"`
	Shape      float64 `json:"shape,omitempty"`
	RatePerSec float64 `json:"rate_per_sec"`
	// Requests and DurationSec bound the cohort: at least one must be
	// positive, and whichever runs out first ends the stream.
	Requests    int     `json:"requests,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Devices and Items size the sampled cell universe (defaults 16 and 8);
	// device, item and angle are drawn uniformly per request.
	Devices int `json:"devices,omitempty"`
	Items   int `json:"items,omitempty"`
	// Scale and Runtime pass through to the serve request.
	Scale   int    `json:"scale,omitempty"`
	Runtime string `json:"runtime,omitempty"`
}

// WorkloadSpec is a complete workload: a seed and the cohorts it drives.
// Expansion (Schedule) is deterministic in the spec alone.
type WorkloadSpec struct {
	Name    string   `json:"name,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	Cohorts []Cohort `json:"cohorts"`
}

// MaxScheduledRequests caps one workload expansion — a duration×rate pair
// that explodes combinatorially should fail loudly, not OOM building a
// schedule.
const MaxScheduledRequests = 5_000_000

// Validate checks the spec is expandable.
func (s WorkloadSpec) Validate() error {
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload has no cohorts")
	}
	seen := map[string]bool{}
	for i, c := range s.Cohorts {
		if c.Name == "" {
			return fmt.Errorf("cohort %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(); err != nil {
			return fmt.Errorf("cohort %q: %v", c.Name, err)
		}
	}
	return nil
}

func (c Cohort) validate() error {
	switch c.Dist {
	case "", DistPoisson, DistGamma, DistWeibull:
	default:
		return fmt.Errorf("unknown distribution %q (want %s, %s or %s)", c.Dist, DistPoisson, DistGamma, DistWeibull)
	}
	if c.Shape < 0 {
		return fmt.Errorf("shape=%g is negative", c.Shape)
	}
	if c.RatePerSec <= 0 {
		return fmt.Errorf("rate_per_sec=%g must be positive", c.RatePerSec)
	}
	if c.Requests < 0 || c.DurationSec < 0 {
		return fmt.Errorf("negative budget (requests=%d duration_sec=%g)", c.Requests, c.DurationSec)
	}
	if c.Requests == 0 && c.DurationSec == 0 {
		return fmt.Errorf("no budget: set requests or duration_sec")
	}
	if c.Devices < 0 || c.Devices > fleetapi.MaxDevices {
		return fmt.Errorf("devices=%d out of range", c.Devices)
	}
	if c.Items < 0 || c.Items > fleetapi.MaxServeItems {
		return fmt.Errorf("items=%d exceeds the serve cap of %d", c.Items, fleetapi.MaxServeItems)
	}
	if c.Scale < 0 || c.Scale > fleetapi.MaxScale {
		return fmt.Errorf("scale=%d out of range", c.Scale)
	}
	if c.Runtime != "" && !nn.ValidRuntime(c.Runtime) {
		return fmt.Errorf("bad runtime %q (want one of %v)", c.Runtime, nn.Runtimes())
	}
	return nil
}

// withDefaults resolves the zero-valued knobs.
func (c Cohort) withDefaults() Cohort {
	if c.Dist == "" {
		c.Dist = DistPoisson
	}
	if c.Shape == 0 {
		c.Shape = 1
	}
	if c.Devices == 0 {
		c.Devices = 16
	}
	if c.Items == 0 {
		c.Items = 8
	}
	return c
}

// duration returns the cohort's time budget (0 = unbounded).
func (c Cohort) duration() time.Duration {
	return time.Duration(c.DurationSec * float64(time.Second))
}

// cohortRNGs returns the cohort's two deterministic streams: gaps (arrival
// process) and cells (device/item/angle sampling). They are separate so the
// arrival timing of cohort i is a function of (seed, i, distribution) alone
// — changing how cells are sampled can never perturb when requests fire.
func cohortRNGs(seed int64, cohortIdx int) (gaps, cells *rand.Rand) {
	return rand.New(rand.NewSource(fmath.Mix(seed, int64(cohortIdx), 1))),
		rand.New(rand.NewSource(fmath.Mix(seed, int64(cohortIdx), 2)))
}

// sampleCell draws one (device, item, angle) uniformly from the cohort's
// universe.
func sampleCell(rng *rand.Rand, c Cohort) (device, item, angle int) {
	return rng.Intn(c.Devices), rng.Intn(c.Items), rng.Intn(dataset.NumAngles)
}
