package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
)

// ContinuousState is the portable final state of one ContinuousRunner — the
// payload a device-range shard of a continuous fleet ships its coordinator.
// It mirrors RunState one level deeper: the windowed stability wire state
// plus per-(device, window) Welford aggregates, so MergedFleetReport can
// replay the exact device-ID-ordered float merges a single process runs.
type ContinuousState struct {
	Version  int `json:"version"`
	DeviceLo int `json:"device_lo"`
	DeviceHi int `json:"device_hi"`
	// Captures is the shard's realized capture count (absent windows skip).
	Captures int `json:"captures"`
	// Windowed is the stability windowed wire state
	// (stability.(*Windowed).MarshalState).
	Windowed json.RawMessage `json:"windowed"`
	// Devices lists finished device timelines in ascending ID order, each
	// with its observed windows in ascending window order.
	Devices []ContDeviceState `json:"devices"`
}

// ContDeviceState is one finished device timeline's aggregates.
type ContDeviceState struct {
	ID      int               `json:"id"`
	Cohort  string            `json:"cohort"`
	Windows []ContWindowState `json:"windows"`
}

// ContWindowState is one observed (device, window) cell.
type ContWindowState struct {
	Window  int                 `json:"window"`
	Runtime string              `json:"runtime"`
	Score   metrics.OnlineState `json:"score"`
	Bytes   metrics.OnlineState `json:"bytes"`
}

const continuousStateVersion = 1

// State exports the runner's continuous state for coordinator-side merging.
// Call after the run completes (or after cancellation — only finished
// timelines are included).
func (r *ContinuousRunner) State() (*ContinuousState, error) {
	winState, err := r.windowed.MarshalState()
	if err != nil {
		return nil, err
	}
	st := &ContinuousState{
		Version:  continuousStateVersion,
		DeviceLo: r.cfg.Fleet.DeviceLo,
		DeviceHi: r.cfg.Fleet.DeviceHi,
		Captures: int(r.capturesDone.Load()),
		Windowed: winState,
	}
	for _, v := range r.views() {
		ds := ContDeviceState{ID: v.id, Cohort: v.cohort}
		for w := range v.windows {
			ws := &v.windows[w]
			if !ws.ran {
				continue
			}
			ds.Windows = append(ds.Windows, ContWindowState{
				Window:  w,
				Runtime: ws.runtime,
				Score:   ws.score.State(),
				Bytes:   ws.bytes.State(),
			})
		}
		st.Devices = append(st.Devices, ds)
	}
	return st, nil
}

// MarshalState is State serialized to JSON.
func (r *ContinuousRunner) MarshalState() ([]byte, error) {
	st, err := r.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// UnmarshalContinuousState parses bytes produced by MarshalState.
func UnmarshalContinuousState(data []byte) (*ContinuousState, error) {
	var st ContinuousState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("fleet: continuous state: %w", err)
	}
	if st.Version != continuousStateVersion {
		return nil, fmt.Errorf("fleet: continuous state version %d, want %d", st.Version, continuousStateVersion)
	}
	return &st, nil
}
