package fleetapi

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/stability"
)

// MaxWindows bounds a continuous fleet's virtual-time length. Composed with
// MaxCaptures (which applies to the windows×devices×items×angles budget) it
// keeps one continuous run from holding unbounded per-window accumulator
// state.
const MaxWindows = 64

// FleetSpec is the client-provided description of a continuous fleet run —
// the body of POST /v1/fleets. The embedded RunSpec describes the base
// fleet exactly as for /v1/runs; the continuous fields add the virtual-time
// window count, lifecycle churn/events, and drift detector tuning.
type FleetSpec struct {
	RunSpec
	Windows int                   `json:"windows,omitempty"`
	Churn   lifecycle.Churn       `json:"churn,omitempty"`
	Events  []lifecycle.Event     `json:"events,omitempty"`
	Drift   stability.DriftConfig `json:"drift,omitempty"`
}

// ContinuousConfig converts the spec into a continuous fleet configuration.
func (s FleetSpec) ContinuousConfig() fleet.ContinuousConfig {
	return fleet.ContinuousConfig{
		Fleet:   s.RunSpec.FleetConfig(),
		Windows: s.Windows,
		Churn:   s.Churn,
		Events:  append([]lifecycle.Event(nil), s.Events...),
		Drift:   s.Drift,
	}
}

// Validate checks the base run fields, the window cap, the whole-run capture
// budget (windows × cells — a coordinator materializes every window's
// accumulator), the churn rates, the injected events, and the drift tuning.
func (s FleetSpec) Validate() error {
	if err := s.RunSpec.validateFields(); err != nil {
		return err
	}
	return s.validateFleet(s.ContinuousConfig(), "")
}

// validateFleet checks the continuous fields against cfg — the whole
// fleet's config, or a shard's range-scoped one, whose capture budget is
// then the shard's own (budget names it in the message).
func (s FleetSpec) validateFleet(cfg fleet.ContinuousConfig, budget string) error {
	if s.Windows < 0 {
		return fmt.Errorf("windows=%d is negative", s.Windows)
	}
	if s.Windows > MaxWindows {
		return fmt.Errorf("windows=%d exceeds the cap of %d", s.Windows, MaxWindows)
	}
	if err := capturesCap(budget+"windows×devices×items×angles", cfg.Captures()); err != nil {
		return err
	}
	if err := cfg.LifecycleSpec().Validate(); err != nil {
		return err
	}
	if s.Drift.Baseline < 0 || s.Drift.MinZ < 0 || s.Drift.MinDelta < 0 {
		return fmt.Errorf("drift config fields must be non-negative: %+v", s.Drift)
	}
	return nil
}

// FleetShardSpec asks an instance to execute one device-range shard of a
// continuous fleet — the body of POST /v1/fleetshards. The embedded
// FleetSpec must be the full run's spec, identical across every shard; only
// the range differs. Devices recompute their lifecycle schedules locally
// from the spec's seed, so the schedule never rides the wire.
type FleetShardSpec struct {
	FleetSpec
	DeviceLo int `json:"device_lo"`
	DeviceHi int `json:"device_hi"`
	// ModelSHA and CellDigest are the coordinator's, checked as in
	// ShardSpec.
	ModelSHA   string `json:"model_sha,omitempty"`
	CellDigest string `json:"cell_digest,omitempty"`
	// Trace and Parent carry the coordinator's trace context, as in
	// ShardSpec.
	Trace  string `json:"trace,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// ContinuousConfig converts the shard spec into a range-scoped config.
func (s FleetShardSpec) ContinuousConfig() fleet.ContinuousConfig {
	cfg := s.FleetSpec.ContinuousConfig()
	cfg.Fleet.DeviceLo, cfg.Fleet.DeviceHi = s.DeviceLo, s.DeviceHi
	return cfg
}

// Validate checks the fleet spec fields and requires a non-empty in-bounds
// device range; the capture cap applies to the shard's own range across all
// its windows.
func (s FleetShardSpec) Validate() error {
	if err := s.validateShard(s.DeviceLo, s.DeviceHi); err != nil {
		return err
	}
	return s.validateFleet(s.ContinuousConfig(), "shard ")
}

// FleetStatus is the /v1 representation of a continuous fleet resource.
type FleetStatus struct {
	ID    int       `json:"id"`
	State string    `json:"state"`
	Spec  FleetSpec `json:"spec"`
	// Devices and Windows are the run's totals after defaulting;
	// DevicesDone counts completed device timelines and Captures the
	// realized capture cells.
	Devices     int `json:"devices"`
	Windows     int `json:"windows"`
	DevicesDone int `json:"devices_done"`
	Captures    int `json:"captures"`
	// Shards is the peer fan-out of a coordinator-executed fleet (0 for
	// local).
	Shards int `json:"shards,omitempty"`
	// Trace is the fleet's deterministic trace ID.
	Trace string `json:"trace,omitempty"`
	// Error carries the failure message of a failed fleet.
	Error string `json:"error,omitempty"`
}
