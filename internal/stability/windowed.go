package stability

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Windowed accumulates stability records into per-window Accumulators — the
// time axis of a continuous fleet run. A window is an index in virtual time
// (capture epoch), not a wall-clock span; records land in whichever window
// their capture belongs to, and each window independently yields the usual
// accuracy/instability/flip-rate statistics. Because every window is an
// ordinary Accumulator, the existing merge machinery carries over: merging
// per-window shard states window-by-window reproduces single-process
// windowed accumulation exactly, so windowed reports stay byte-identical
// under any worker count and shard topology.
type Windowed struct {
	mu   sync.Mutex
	wins map[int]*Accumulator
}

// NewWindowed returns an empty windowed accumulator.
func NewWindowed() *Windowed {
	return &Windowed{wins: map[int]*Accumulator{}}
}

// Window returns window w's accumulator, creating it on first use. The
// returned Accumulator is safe for concurrent Add like any other.
func (w *Windowed) Window(i int) *Accumulator {
	w.mu.Lock()
	defer w.mu.Unlock()
	acc := w.wins[i]
	if acc == nil {
		acc = NewAccumulator()
		w.wins[i] = acc
	}
	return acc
}

// Add folds one record into window i.
func (w *Windowed) Add(i int, r *Record) { w.Window(i).Add(r) }

// AddAll folds records into window i.
func (w *Windowed) AddAll(i int, rs []*Record) { w.Window(i).AddAll(rs) }

// Windows returns the indices of all non-absent windows in ascending order.
// A window that received no records but was touched via Window(i) counts —
// empty windows are meaningful (a fully churned-out population).
func (w *Windowed) Windows() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int, 0, len(w.wins))
	for i := range w.wins {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Snapshot returns window i's snapshot (the zero snapshot for an absent
// window).
func (w *Windowed) Snapshot(i int) AccumulatorSnapshot {
	w.mu.Lock()
	acc := w.wins[i]
	w.mu.Unlock()
	if acc == nil {
		return NewAccumulator().Snapshot()
	}
	return acc.Snapshot()
}

// Outcomes returns window i's per-cell outcomes (nil-safe: an absent window
// yields an empty map), ready for ComparePair against a neighboring window.
func (w *Windowed) Outcomes(i int) map[Cell]Outcome {
	w.mu.Lock()
	acc := w.wins[i]
	w.mu.Unlock()
	if acc == nil {
		return map[Cell]Outcome{}
	}
	return acc.Outcomes()
}

// Merge folds other into w window-by-window. Like Accumulator.Merge, other
// must not be written concurrently and must not share windows with w.
func (w *Windowed) Merge(other *Windowed) {
	for _, i := range other.Windows() {
		w.Window(i).Merge(other.Window(i))
	}
}

// windowedWireVersion is bumped on any incompatible change to the windowed
// wire shape. The per-window accumulator payload carries its own version
// (the Accumulator wire format).
const windowedWireVersion = 1

// WindowedState is a Windowed's wire state, the stability part of the state
// a shard ships its coordinator: the windows in ascending order, each with
// its accumulator's wire state. It is one typed document, decoded in one
// pass with the rest of a shard's state; equal contents give equal values
// and so equal JSON.
type WindowedState struct {
	Version int           `json:"version"`
	Windows []WindowEntry `json:"windows"`
}

// WindowEntry is one window of a WindowedState.
type WindowEntry struct {
	Window int       `json:"window"`
	State  wireState `json:"state"`
}

// State returns w's wire state.
func (w *Windowed) State() WindowedState {
	st := WindowedState{Version: windowedWireVersion}
	for _, i := range w.Windows() {
		st.Windows = append(st.Windows, WindowEntry{Window: i, State: w.Window(i).state()})
	}
	return st
}

// MergeState validates a windowed wire state and merges it into w, window
// by window — the shard-merge entry point. Like Accumulator.UnmarshalState
// it merges rather than replaces, so folding N shard states into one fresh
// Windowed reproduces single-process windowed accumulation.
func (w *Windowed) MergeState(st *WindowedState) error {
	if st.Version != windowedWireVersion {
		return fmt.Errorf("stability: windowed state version %d, want %d", st.Version, windowedWireVersion)
	}
	seen := map[int]bool{}
	for _, e := range st.Windows {
		if e.Window < 0 {
			return fmt.Errorf("stability: windowed state has negative window %d", e.Window)
		}
		if seen[e.Window] {
			return fmt.Errorf("stability: windowed state repeats window %d", e.Window)
		}
		seen[e.Window] = true
	}
	for _, e := range st.Windows {
		if err := w.Window(e.Window).mergeState(&e.State); err != nil {
			return fmt.Errorf("stability: window %d: %w", e.Window, err)
		}
	}
	return nil
}

// MarshalState is State as JSON, windows ascending: byte-identical states
// for equal contents.
func (w *Windowed) MarshalState() ([]byte, error) { return json.Marshal(w.State()) }

// UnmarshalState decodes a windowed wire state and merges it into w through
// MergeState.
func (w *Windowed) UnmarshalState(data []byte) error {
	var st WindowedState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("stability: bad windowed state: %w", err)
	}
	return w.MergeState(&st)
}
