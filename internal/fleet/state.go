package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stability"
)

// ContinuousState is the portable final state of one sweep — the payload a
// device-range shard ships its coordinator, for a continuous fleet and (with
// a single window) for a one-shot run alike. It carries everything needed to
// reconstruct the exact snapshot a single-instance execution would have
// produced: the windowed stability wire state (integer counters,
// order-independent; per-cohort splits are derived from it at render time,
// not shipped) plus per-(device, window) value summaries with their exact
// Welford state, so MergedRun and MergedFleetReport can replay the same
// device-ID-ordered float merges a single process runs. It is one typed
// document, decoded whole where each shard's reply lands.
type ContinuousState struct {
	Version int `json:"version"`
	// ModelSHA is the sha256 of the weights the shard ran (fleet.ModelSHA),
	// stamped by the instance that ships the state; states of one merge must
	// agree on it.
	ModelSHA string `json:"model_sha"`
	// DeviceLo and DeviceHi are the device-id range this state covers.
	DeviceLo int `json:"device_lo"`
	DeviceHi int `json:"device_hi"`
	// Captures is the shard's realized capture count: items × angles for
	// each window a listed device was present for.
	Captures int `json:"captures"`
	// Windowed is the sweep's stability state, window by window.
	Windowed stability.WindowedState `json:"windowed"`
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

// continuousStateVersion: shards and coordinator are one build, so other
// versions are rejected, not translated. Version 2 added model_sha.
const continuousStateVersion = 2

// State exports the sweep's state for coordinator-side merging. Call after
// the run completes (or after cancellation — only finished timelines are
// included).
func (s *sweep) State() *ContinuousState {
	st := &ContinuousState{
		Version:  continuousStateVersion,
		DeviceLo: s.cfg.Fleet.DeviceLo,
		DeviceHi: s.cfg.Fleet.DeviceHi,
		Captures: int(s.capturesDone.Load()),
		Windowed: s.windowed.State(),
	}
	for _, v := range s.views() {
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
	return st
}

// MarshalState is State serialized to JSON.
func (s *sweep) MarshalState() ([]byte, error) { return json.Marshal(s.State()) }

// UnmarshalContinuousState decodes bytes produced by MarshalState — the
// whole shard, stability state included.
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

// What an honest (device, window) summary can hold: a score is a softmax
// probability, a size a capture's compressed bytes, and a cell observes
// items × angles of each.
const (
	maxSummarySamples = 1 << 30
	maxScore          = 1
	maxCaptureBytes   = 1 << 32
)

// checkSummary refuses a Welford summary of values in [0, hi] that no honest
// runner ships: a sample count that is not positive or could overflow a sum
// of counts, or a moment that is not finite (a NaN fails every comparison),
// not ordered or outside what values in that range can produce. Merging
// summaries that pass stays finite whatever a peer spelled — a mean of 1e308
// used to drive the merged mean to ±Inf, which Stats.JSON cannot render. The
// mean is held to the range, not to [min, max]: a running mean may round an
// ulp past either.
func checkSummary(s metrics.OnlineState, hi float64) error {
	if s.N >= 1 && s.N <= maxSummarySamples &&
		s.Min >= 0 && s.Min <= s.Max && s.Max <= hi &&
		s.Mean >= 0 && s.Mean <= hi &&
		s.M2 >= 0 && s.M2 <= float64(s.N)*hi*hi {
		return nil
	}
	return fmt.Errorf("summary %+v is not one of 1 to %d values in [0, %g]", s, maxSummarySamples, hi)
}

// mergeStates folds the shard states of one sweep of cfg's fleet over the
// given window count back into the parts a live sweep renders from: the
// windowed accumulator, the device views in ascending ID order and the
// capture total. The states were decoded whole where each shard landed; this
// is where peer bytes are judged, so it refuses what no honest runner ships —
// states of different weights (model_sha), a device outside the range its own state declares, out of ascending order
// within it (so none twice, and none costs a slot array before it is
// refused) or listed by two shards, a window outside [0, windows) or listed
// twice, a summary checkSummary refuses, a capture count its device windows
// do not account for — instead of rendering a snapshot whose counts and
// records disagree or cannot be rendered at all.
func mergeStates(cfg Config, windows int, states []*ContinuousState) (*stability.Windowed, []deviceView, int, error) {
	cells := mulSat(cfg.Items, len(cfg.Angles))
	windowed := stability.NewWindowed()
	var views []deviceView
	captures := 0
	var first *ContinuousState
	for _, st := range states {
		if st == nil {
			continue
		}
		if first == nil {
			first = st
		} else if st.ModelSHA != first.ModelSHA {
			return nil, nil, 0, fmt.Errorf("fleet: shard state for devices [%d, %d) ran model_sha %q, the one for devices [%d, %d) %q",
				st.DeviceLo, st.DeviceHi, st.ModelSHA, first.DeviceLo, first.DeviceHi, first.ModelSHA)
		}
		for _, e := range st.Windowed.Windows {
			if e.Window >= windows {
				return nil, nil, 0, fmt.Errorf("fleet: shard state for devices [%d, %d) carries records of window %d outside [0, %d)",
					st.DeviceLo, st.DeviceHi, e.Window, windows)
			}
		}
		if err := windowed.MergeState(&st.Windowed); err != nil {
			return nil, nil, 0, err
		}
		ran := 0
		for i, ds := range st.Devices {
			if i > 0 && ds.ID <= st.Devices[i-1].ID {
				return nil, nil, 0, fmt.Errorf("fleet: shard state for devices [%d, %d) lists device %d out of ascending order", st.DeviceLo, st.DeviceHi, ds.ID)
			}
			v, err := shardView(ds.ID, st.DeviceLo, st.DeviceHi, ds.Cohort, make([]windowSlot, windows))
			if err != nil {
				return nil, nil, 0, err
			}
			for _, ws := range ds.Windows {
				if ws.Window < 0 || ws.Window >= windows {
					return nil, nil, 0, fmt.Errorf("fleet: device %d reports window %d outside [0, %d)", ds.ID, ws.Window, windows)
				}
				if v.windows[ws.Window].ran {
					return nil, nil, 0, fmt.Errorf("fleet: device %d reports window %d twice", ds.ID, ws.Window)
				}
				if err := checkSummary(ws.Score, maxScore); err != nil {
					return nil, nil, 0, fmt.Errorf("fleet: device %d window %d: score %w", ds.ID, ws.Window, err)
				}
				if err := checkSummary(ws.Bytes, maxCaptureBytes); err != nil {
					return nil, nil, 0, fmt.Errorf("fleet: device %d window %d: capture size %w", ds.ID, ws.Window, err)
				}
				v.windows[ws.Window] = shardSlot(ws.Runtime, ws.Score, ws.Bytes)
			}
			ran += len(ds.Windows)
			views = append(views, v)
		}
		if want := mulSat(ran, cells); st.Captures != want {
			return nil, nil, 0, fmt.Errorf("fleet: shard state for devices [%d, %d) counts %d captures, but its %d device windows of %d cells take %d",
				st.DeviceLo, st.DeviceHi, st.Captures, ran, cells, want)
		}
		captures += st.Captures
	}
	if err := orderViews(views); err != nil {
		return nil, nil, 0, err
	}
	return windowed, views, captures, nil
}

// MergedRun reconstructs the full run's Stats from shard states, and hands
// back the merged accumulator they are rendered from, as Runner.Accumulator
// does for a local run. For a complete, non-overlapping set of shards of
// cfg's device range, the Stats are byte-identical (as JSON) to those of a
// single Runner executing the whole run; with a partial set they are the
// same kind of valid snapshot an in-flight runner serves. Shards whose
// device sets overlap are rejected.
func MergedRun(cfg Config, states ...*ContinuousState) (Stats, *stability.Accumulator, error) {
	cfg = cfg.WithDefaults()
	windowed, views, captures, err := mergeStates(cfg, 1, states)
	if err != nil {
		return Stats{}, nil, err
	}
	acc := windowed.Window(0)
	return renderStats(cfg, captures, acc, views), acc, nil
}

// MergedFleetReport reconstructs the full continuous run's report from
// shard states. For a complete, non-overlapping set of shards of cfg's
// device range, the result is byte-identical (as JSON) to the report of one
// ContinuousRunner executing the whole run. Overlapping shards are
// rejected.
func MergedFleetReport(cfg ContinuousConfig, states ...*ContinuousState) (FleetReport, error) {
	cfg = cfg.WithDefaults()
	sched, err := cfg.LifecycleSpec().Expand()
	if err != nil {
		return FleetReport{}, err
	}
	windowed, views, captures, err := mergeStates(cfg.Fleet, cfg.Windows, states)
	if err != nil {
		return FleetReport{}, err
	}
	return renderFleetReport(cfg, sched, captures, windowed, views), nil
}
