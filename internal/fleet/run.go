package fleet

import (
	"math"

	"repro/internal/lifecycle"
	"repro/internal/stability"
)

// Config parameterizes one fleet run. The zero value of any field selects a
// sensible default; Seed and Devices are what callers usually set.
type Config struct {
	// Devices is the fleet size (default 100).
	Devices int `json:"devices"`
	// Items is the number of evaluation objects each device photographs
	// (default 8), drawn from the hard distribution like the paper's test
	// captures.
	Items int `json:"items"`
	// Angles are the camera angles photographed per item (default 0,2,4).
	Angles []int `json:"angles"`
	// Seed drives all synthesis and capture randomness; a fixed seed
	// reproduces the run bit-for-bit at any worker count.
	Seed int64 `json:"seed"`
	// TopK is the recorded top-k list length (default 3).
	TopK int `json:"topk"`
	// Scale divides the capture resolution (default 2: half-resolution
	// captures, matching the model input).
	Scale int `json:"scale"`
	// Runtime, when non-empty, forces every device onto one inference
	// runtime (one of nn.Runtimes()), overriding the per-device assignment
	// synthesized into the profiles. Empty runs the mixed fleet.
	Runtime string `json:"runtime,omitempty"`
	// Format swaps one stage of every capture (see CanonicalFormat): a codec
	// value re-encodes the device's ISP output with that codec and decodes
	// it with the reference decoder (§5); raw:<converter> develops the
	// device's raw file with that software ISP and stores it as PNG (§6,
	// §9.2). Empty, or "native", is each device's own pipeline. Every format
	// draws the same sensor noise per cell, so arms differing only in format
	// pair cell for cell.
	Format string `json:"format,omitempty"`
	// DeviceLo and DeviceHi bound the device-id range [DeviceLo, DeviceHi)
	// this runner executes (defaults 0..Devices). Device i's profile and
	// runtime depend only on (Seed, i), so a range shard computes exactly
	// the rows the full run would — the substrate distributed fleetd shards
	// stand on. Like Workers, the range describes placement, not the
	// experiment: it is excluded from Stats JSON so a shard's stats carry
	// the full run's config and merged shards stay byte-identical to a
	// single-instance run.
	DeviceLo int `json:"-"`
	DeviceHi int `json:"-"`
	// Workers is the pool concurrency (default GOMAXPROCS). It never
	// affects results, only wall time; it is excluded from Stats for that
	// reason.
	Workers int `json:"-"`
	// BatchSize is the inference batch (default 64).
	BatchSize int `json:"-"`
}

// Captures returns the total capture-cell count of the run this (possibly
// zero-valued) config describes, after defaulting: range devices × items ×
// angles. Admission control sizes requests with this instead of
// re-deriving the defaults by hand; for a range shard it counts only the
// shard's own devices.
//
// The product saturates at math.MaxInt instead of wrapping: on a 32-bit
// build a million devices × a thousand items × three angles does not fit an
// int, and a wrapped (negative) budget would pass every cap.
func (c Config) Captures() int {
	c = c.WithDefaults()
	return mulSat(mulSat(c.rangeSize(), c.Items), len(c.Angles))
}

// mulSat is a·b for non-negative counts, math.MaxInt when that overflows.
func mulSat(a, b int) int {
	if a > 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// rangeSize is the device count of the (defaulted) range.
func (c Config) rangeSize() int {
	if n := c.DeviceHi - c.DeviceLo; n > 0 {
		return n
	}
	return 0
}

// WithDefaults returns the config with every zero-valued field replaced by
// its default — the exact config a Runner built from c would report. The
// device range is clamped into [0, Devices], and a valid format takes its
// canonical spelling (native is omitted).
func (c Config) WithDefaults() Config {
	if c.Devices <= 0 {
		c.Devices = 100
	}
	if c.Items <= 0 {
		c.Items = 8
	}
	if len(c.Angles) == 0 {
		c.Angles = []int{0, 2, 4}
	} else {
		// Dedup preserving first-occurrence order: a duplicated angle would
		// silently double-count cells in the Captures() admission math and
		// double-feed every (item, angle) group. The API layer rejects
		// duplicates outright; direct fleet callers get them collapsed.
		angles := make([]int, 0, len(c.Angles))
		for _, a := range c.Angles {
			dup := false
			for _, b := range angles {
				dup = dup || a == b
			}
			if !dup {
				angles = append(angles, a)
			}
		}
		c.Angles = angles
	}
	c.Format, _ = CanonicalFormat(c.Format)
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.Scale <= 0 {
		c.Scale = 2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.DeviceLo < 0 {
		c.DeviceLo = 0
	}
	if c.DeviceHi <= 0 || c.DeviceHi > c.Devices {
		c.DeviceHi = c.Devices
	}
	if c.DeviceLo > c.DeviceHi {
		c.DeviceLo = c.DeviceHi
	}
	return c
}

// Runner executes a one-shot fleet run — the paper's snapshot of a phone
// population. It is a view over the package's one sweep, built with a single
// window and an empty lifecycle schedule: Start, Cancel, Cancelled, Progress,
// SetTelemetry, State and MarshalState are the sweep's, and Stats reads its
// window 0.
type Runner struct{ *sweep }

// NewRunner prepares a run; no work happens until Start or Run.
func NewRunner(cfg Config, factory BackendFactory) *Runner {
	one := ContinuousConfig{Fleet: cfg.WithDefaults(), Windows: 1}
	return &Runner{newSweep(one, &lifecycle.Schedule{}, false, factory)}
}

// Run executes the fleet synchronously and returns the final stats.
func (r *Runner) Run() Stats {
	<-r.Start()
	return r.Stats()
}

// Stats snapshots the run's aggregates. Safe to call while the run is in
// flight; after completion the result is final and deterministic.
func (r *Runner) Stats() Stats {
	return renderStats(r.cfg.Fleet, int(r.capturesDone.Load()), r.Accumulator(), r.views())
}

// Accumulator is the run's stability accumulator, the one Stats reads.
func (r *Runner) Accumulator() *stability.Accumulator { return r.windowed.Window(0) }

// Config returns the (defaulted) run configuration.
func (r *Runner) Config() Config { return r.cfg.Fleet }
