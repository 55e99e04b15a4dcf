// Package lifecycle models what happens to an edge fleet between the
// paper's one-shot measurements: devices join and leave, OS updates swap the
// decoder path (the §7 axis), runtime upgrades move a device from the
// float32 build to the quantized one, and thermal throttling degrades the
// sensor. TinyMLOps catalogs exactly these operational axes as the dominant
// edge-MLOps failure modes; here they become *events* on a deterministic
// schedule in virtual time.
//
// Virtual time is the capture-window index, not the wall clock: a continuous
// fleet run observes the same scene matrix once per window, and every
// lifecycle event is pinned to the window at whose start it applies. The
// whole schedule — generated churn plus explicitly injected events — is a
// pure function of the Spec, so any worker, shard or replica can recompute
// which profile variant a device runs in a given window from (spec, device,
// window) alone. That is what keeps windowed drift reports byte-identical
// across worker counts and shard topologies.
package lifecycle

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fmath"
	"repro/internal/nn"
)

// Event kinds, in the order ties at one (window, device) resolve.
const (
	// KindJoin: the device enters the population at the start of Window
	// (absent in every earlier window). Devices with no join event are
	// present from window 0.
	KindJoin = "join"
	// KindLeave: the device leaves at the start of Window (absent from that
	// window on).
	KindLeave = "leave"
	// KindOSUpgrade: the device's OS decoder update flips its chroma
	// upsampling path — the paper's §7 axis as a mid-run event.
	KindOSUpgrade = "os_upgrade"
	// KindRuntimeUpgrade: the device's inference stack is swapped (default
	// float32 → int8, the fleet-wide quantization rollout).
	KindRuntimeUpgrade = "runtime_upgrade"
	// KindThermalDrift: sustained load degrades the device — sensor noise
	// rises by Severity (thermal shot/read noise, slight underexposure).
	KindThermalDrift = "thermal_drift"
)

// kindRank orders event kinds deterministically within one (window, device).
func kindRank(kind string) int {
	switch kind {
	case KindJoin:
		return 0
	case KindLeave:
		return 1
	case KindOSUpgrade:
		return 2
	case KindRuntimeUpgrade:
		return 3
	case KindThermalDrift:
		return 4
	default:
		return 5
	}
}

// Event is one lifecycle change applied to one device at the START of window
// Window: the window's captures already see the post-event profile.
type Event struct {
	Window int    `json:"window"`
	Device int    `json:"device"`
	Kind   string `json:"kind"`
	// Runtime is a runtime_upgrade's target stack (one of nn.Runtimes();
	// empty defaults to int8). Ignored by other kinds.
	Runtime string `json:"runtime,omitempty"`
	// Severity in (0, 1] scales a thermal_drift's degradation (empty
	// defaults to 0.5). Ignored by other kinds.
	Severity float64 `json:"severity,omitempty"`
}

// Churn is the per-device probability of each generated event kind over the
// run. All rates are in [0, 1]; the zero value generates no churn, leaving
// only explicitly injected events.
type Churn struct {
	// JoinRate is the fraction of device slots that join late (at a uniform
	// window in [1, Windows)) instead of being present from window 0.
	JoinRate float64 `json:"join_rate,omitempty"`
	// LeaveRate is the fraction of devices that leave before the run ends.
	LeaveRate float64 `json:"leave_rate,omitempty"`
	// OSUpgradeRate, RuntimeUpgradeRate and ThermalRate are the fractions of
	// devices hit by one os_upgrade / runtime_upgrade / thermal_drift event
	// at a uniform window in [1, Windows).
	OSUpgradeRate      float64 `json:"os_upgrade_rate,omitempty"`
	RuntimeUpgradeRate float64 `json:"runtime_upgrade_rate,omitempty"`
	ThermalRate        float64 `json:"thermal_rate,omitempty"`
}

func (c Churn) validate() error {
	for _, r := range []struct {
		name string
		val  float64
	}{
		{"join_rate", c.JoinRate},
		{"leave_rate", c.LeaveRate},
		{"os_upgrade_rate", c.OSUpgradeRate},
		{"runtime_upgrade_rate", c.RuntimeUpgradeRate},
		{"thermal_rate", c.ThermalRate},
	} {
		if r.val < 0 || r.val > 1 {
			return fmt.Errorf("lifecycle: %s=%v outside [0, 1]", r.name, r.val)
		}
	}
	return nil
}

// Spec describes one continuous fleet's lifecycle: Devices device slots
// observed for Windows windows, with seeded random churn plus explicitly
// injected events. Expand turns it into the full deterministic schedule.
type Spec struct {
	Devices int   `json:"devices"`
	Windows int   `json:"windows"`
	Seed    int64 `json:"seed"`
	Churn   Churn `json:"churn"`
	// Events are injected on top of the generated churn — e.g. the drift
	// fixture of examples/specs/churn.fleet.json ("upgrade cohort 0's OS at
	// window k").
	Events []Event `json:"events,omitempty"`
}

// Schedule is the expanded, validated schedule: every event of the run in
// deterministic (window, device, kind) order, with per-device indexes.
type Schedule struct {
	Spec   Spec
	Events []Event

	byDevice map[int][]Event
	byWindow map[int][]Event
}

// lifecycleStream is the leading namespace value of every lifecycle RNG
// stream. The fleet package reserves 0..3 (device synthesis, display,
// capture, items) under the same seed; lifecycle draws live far away.
const lifecycleStream = 0x11FEC1C1E

// Validate reports whether Expand would accept the spec, without paying for
// the per-device churn draws — request validation runs it on specs of up to
// a million devices.
func (s Spec) Validate() error {
	_, err := s.explicitEvents()
	return err
}

// explicitEvents validates the spec and returns its injected events with
// their defaults filled in.
func (s Spec) explicitEvents() ([]Event, error) {
	if s.Devices <= 0 {
		return nil, fmt.Errorf("lifecycle: devices=%d, want > 0", s.Devices)
	}
	if s.Windows <= 0 {
		return nil, fmt.Errorf("lifecycle: windows=%d, want > 0", s.Windows)
	}
	if err := s.Churn.validate(); err != nil {
		return nil, err
	}
	var events []Event
	for _, ev := range s.Events {
		ev, err := normalizeEvent(ev, s)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
}

// Expand generates the deterministic schedule: per-device churn draws from a
// per-device RNG (device i's events depend on (Seed, i) alone, so any shard
// recomputes them), plus the validated explicit events, all sorted by
// (window, device, kind).
func (s Spec) Expand() (*Schedule, error) {
	events, err := s.explicitEvents()
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.Devices; i++ {
		events = append(events, churnEvents(s, i)...)
	}
	sortEvents(events)
	sched := &Schedule{
		Spec:     s,
		Events:   events,
		byDevice: map[int][]Event{},
		byWindow: map[int][]Event{},
	}
	for _, ev := range events {
		sched.byDevice[ev.Device] = append(sched.byDevice[ev.Device], ev)
		sched.byWindow[ev.Window] = append(sched.byWindow[ev.Window], ev)
	}
	return sched, nil
}

// churnEvents draws device i's generated events. The draw order is fixed
// (join, leave, os, runtime, thermal) and every draw comes from the device's
// private RNG, so the result is a pure function of (spec, i).
func churnEvents(s Spec, i int) []Event {
	c := s.Churn
	if c == (Churn{}) || s.Windows < 2 {
		// No churn configured, or a single window (no window > 0 exists for
		// an event to land in).
		return nil
	}
	rng := rand.New(rand.NewSource(fmath.Mix(s.Seed, lifecycleStream, int64(i))))
	lateWindow := func() int { return 1 + rng.Intn(s.Windows-1) }
	var out []Event
	joinW := 0
	if rng.Float64() < c.JoinRate {
		joinW = lateWindow()
		out = append(out, Event{Window: joinW, Device: i, Kind: KindJoin})
	}
	if rng.Float64() < c.LeaveRate && joinW < s.Windows-1 {
		// Leave strictly after the join so the device exists at least one
		// window.
		leaveW := joinW + 1 + rng.Intn(s.Windows-1-joinW)
		out = append(out, Event{Window: leaveW, Device: i, Kind: KindLeave})
	}
	if rng.Float64() < c.OSUpgradeRate {
		out = append(out, Event{Window: lateWindow(), Device: i, Kind: KindOSUpgrade})
	}
	if rng.Float64() < c.RuntimeUpgradeRate {
		out = append(out, Event{Window: lateWindow(), Device: i, Kind: KindRuntimeUpgrade, Runtime: nn.RuntimeInt8})
	}
	if rng.Float64() < c.ThermalRate {
		// Severity in [0.25, 0.75): a meaningful but never total degradation.
		// The halving is a product, rounded so that arm64 cannot fuse it.
		sev := 0.25 + float64(rng.Float64()/2)
		out = append(out, Event{Window: lateWindow(), Device: i, Kind: KindThermalDrift, Severity: sev})
	}
	return out
}

// normalizeEvent validates one explicit event and fills its defaults.
func normalizeEvent(ev Event, s Spec) (Event, error) {
	if ev.Window < 0 || ev.Window >= s.Windows {
		return ev, fmt.Errorf("lifecycle: event window %d outside [0, %d)", ev.Window, s.Windows)
	}
	if ev.Device < 0 || ev.Device >= s.Devices {
		return ev, fmt.Errorf("lifecycle: event device %d outside [0, %d)", ev.Device, s.Devices)
	}
	switch ev.Kind {
	case KindJoin, KindLeave, KindOSUpgrade:
	case KindRuntimeUpgrade:
		if ev.Runtime == "" {
			ev.Runtime = nn.RuntimeInt8
		}
		if !nn.ValidRuntime(ev.Runtime) {
			return ev, fmt.Errorf("lifecycle: bad runtime %q (want one of %v)", ev.Runtime, nn.Runtimes())
		}
	case KindThermalDrift:
		if ev.Severity == 0 {
			ev.Severity = 0.5
		}
		if ev.Severity < 0 || ev.Severity > 1 {
			return ev, fmt.Errorf("lifecycle: thermal severity %v outside (0, 1]", ev.Severity)
		}
	default:
		return ev, fmt.Errorf("lifecycle: unknown event kind %q", ev.Kind)
	}
	return ev, nil
}

// sortEvents orders events by (window, device, kind rank, runtime,
// severity) — a total order over every field, so schedules built from the
// same spec are deeply equal however the inputs were listed.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if ra, rb := kindRank(a.Kind), kindRank(b.Kind); ra != rb {
			return ra < rb
		}
		if a.Runtime != b.Runtime {
			return a.Runtime < b.Runtime
		}
		return a.Severity < b.Severity
	})
}

// DeviceEvents returns device i's events in window order. The returned slice
// is shared; callers must not mutate it.
func (s *Schedule) DeviceEvents(i int) []Event { return s.byDevice[i] }

// WindowEvents returns the events applied at the start of window w, in
// (device, kind) order. The returned slice is shared; callers must not
// mutate it.
func (s *Schedule) WindowEvents(w int) []Event { return s.byWindow[w] }
