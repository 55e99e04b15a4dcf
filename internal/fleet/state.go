package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stability"
)

// RunState is the portable final state of one Runner — the payload a
// device-range shard ships its coordinator. It carries everything needed to
// reconstruct the exact Stats a single-instance run would have produced:
// the stability accumulator (integer counters, order-independent; the
// per-cohort split is derived from it at render time, not shipped) and
// per-device value summaries with their exact Welford state, so the
// coordinator can replay the same device-ID-ordered float merges a single
// process would run. Shards of one fleet, merged with MergedStats, are
// byte-identical to the unsharded run.
type RunState struct {
	Version int `json:"version"`
	// DeviceLo and DeviceHi are the device-id range this state covers.
	DeviceLo int `json:"device_lo"`
	DeviceHi int `json:"device_hi"`
	// Captures is the shard's capture count (its contribution to the full
	// run's Captures total).
	Captures int `json:"captures"`
	// Accumulator is the stability wire state
	// (stability.(*Accumulator).MarshalState).
	Accumulator json.RawMessage `json:"accumulator"`
	// Devices lists the shard's finished devices in ascending ID order.
	Devices []DeviceState `json:"devices"`
}

// DeviceState is one finished device's aggregates.
type DeviceState struct {
	ID      int                 `json:"id"`
	Cohort  string              `json:"cohort"`
	Runtime string              `json:"runtime"`
	Score   metrics.OnlineState `json:"score"`
	Bytes   metrics.OnlineState `json:"bytes"`
}

// runStateVersion 2 dropped the per-cohort accumulator states of version 1.
// Shards and coordinator are one build, so other versions are rejected, not
// translated.
const runStateVersion = 2

// RunState exports the runner's state for coordinator-side merging. Call it
// after the run completes (or after cancellation — only finished devices
// are included).
func (r *Runner) RunState() (*RunState, error) {
	accState, err := r.AccumulatorState()
	if err != nil {
		return nil, err
	}
	st := &RunState{
		Version:     runStateVersion,
		DeviceLo:    r.cfg.Fleet.DeviceLo,
		DeviceHi:    r.cfg.Fleet.DeviceHi,
		Captures:    int(r.capturesDone.Load()),
		Accumulator: accState,
	}
	for _, v := range r.views() {
		w := &v.windows[0]
		st.Devices = append(st.Devices, DeviceState{
			ID:      v.id,
			Cohort:  v.cohort,
			Runtime: w.runtime,
			Score:   w.score.State(),
			Bytes:   w.bytes.State(),
		})
	}
	return st, nil
}

// MarshalRunState is RunState serialized to JSON.
func (r *Runner) MarshalRunState() ([]byte, error) {
	st, err := r.RunState()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// UnmarshalRunState parses bytes produced by MarshalRunState.
func UnmarshalRunState(data []byte) (*RunState, error) {
	var st RunState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("fleet: run state: %w", err)
	}
	if st.Version != runStateVersion {
		return nil, fmt.Errorf("fleet: run state version %d, want %d", st.Version, runStateVersion)
	}
	return &st, nil
}

// MergedStats reconstructs the full run's Stats from shard states. For a
// complete, non-overlapping set of shards of cfg's device range, the result
// is byte-identical (as JSON) to the Stats of a single Runner executing the
// whole run; with a partial set it is the same kind of valid snapshot an
// in-flight runner serves. Shards whose device sets overlap are rejected.
func MergedStats(cfg Config, states ...*RunState) (Stats, error) {
	cfg = cfg.WithDefaults()
	acc := stability.NewAccumulator()
	var views []deviceView
	captures := 0
	for _, st := range states {
		if st == nil {
			continue
		}
		if err := acc.UnmarshalState(st.Accumulator); err != nil {
			return Stats{}, err
		}
		captures += st.Captures
		for _, d := range st.Devices {
			window := []windowSlot{shardSlot(d.Runtime, d.Score, d.Bytes)}
			v, err := shardView(d.ID, st.DeviceLo, st.DeviceHi, d.Cohort, window)
			if err != nil {
				return Stats{}, err
			}
			views = append(views, v)
		}
	}
	if err := orderViews(views); err != nil {
		return Stats{}, err
	}
	return renderStats(cfg, captures, acc, views), nil
}
