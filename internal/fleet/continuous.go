package fleet

import (
	"repro/internal/lifecycle"
	"repro/internal/stability"
)

// ContinuousConfig parameterizes a continuous fleet run: the base fleet
// (devices, items, angles, seed — identical meaning to a one-shot Config)
// observed over Windows windows of virtual time, with lifecycle churn and
// injected events transforming devices between windows, and a drift detector
// over the resulting per-window flip-rate series.
type ContinuousConfig struct {
	// Fleet is the base fleet configuration. Its seed drives device
	// synthesis, captures AND the lifecycle schedule.
	Fleet Config `json:"fleet"`
	// Windows is the number of virtual-time windows (default 6). Each
	// window re-photographs the full scene matrix on every present device.
	Windows int `json:"windows"`
	// Churn generates seeded random lifecycle events across the population.
	Churn lifecycle.Churn `json:"churn"`
	// Events are injected on top of the churn (e.g. "upgrade this cohort's
	// OS at window 4").
	Events []lifecycle.Event `json:"events,omitempty"`
	// Drift tunes the flip-rate drift detector.
	Drift stability.DriftConfig `json:"drift"`
}

// WithDefaults returns the config with defaults applied throughout.
func (c ContinuousConfig) WithDefaults() ContinuousConfig {
	c.Fleet = c.Fleet.WithDefaults()
	if c.Windows <= 0 {
		c.Windows = 6
	}
	c.Drift = c.Drift.WithDefaults()
	return c
}

// LifecycleSpec is the lifecycle schedule spec this config implies.
func (c ContinuousConfig) LifecycleSpec() lifecycle.Spec {
	c = c.WithDefaults()
	return lifecycle.Spec{
		Devices: c.Fleet.Devices,
		Windows: c.Windows,
		Seed:    c.Fleet.Seed,
		Churn:   c.Churn,
		Events:  c.Events,
	}
}

// Captures returns the run's capture-cell budget: every window re-captures
// the range's full cell matrix. Churn only reduces the realized count
// (absent devices skip their windows), so this is the admission-control
// upper bound.
func (c ContinuousConfig) Captures() int {
	c = c.WithDefaults()
	return mulSat(c.Fleet.Captures(), c.Windows)
}

// ContinuousRunner executes a continuous fleet run: the package's one sweep
// over Windows windows under the expanded lifecycle schedule, with captures
// re-drawn per window from the epoch-qualified seed stream. Start, Cancel,
// Cancelled, Progress, SetTelemetry, State and MarshalState are the sweep's;
// Report reads every window.
type ContinuousRunner struct{ *sweep }

// NewContinuousRunner prepares a continuous run; no work happens until
// Start or Run. It fails only if the lifecycle spec is invalid.
func NewContinuousRunner(cfg ContinuousConfig, factory BackendFactory) (*ContinuousRunner, error) {
	cfg = cfg.WithDefaults()
	sched, err := cfg.LifecycleSpec().Expand()
	if err != nil {
		return nil, err
	}
	return &ContinuousRunner{newSweep(cfg, sched, true, factory)}, nil
}

// Run executes the continuous fleet synchronously and returns the report.
func (r *ContinuousRunner) Run() FleetReport {
	<-r.Start()
	return r.Report()
}

// Report snapshots the run's report. Safe while in flight; after completion
// it is final and deterministic.
func (r *ContinuousRunner) Report() FleetReport {
	return renderFleetReport(r.cfg, r.sched, int(r.capturesDone.Load()), r.windowed, r.views())
}

// Config returns the (defaulted) configuration.
func (r *ContinuousRunner) Config() ContinuousConfig { return r.cfg }
