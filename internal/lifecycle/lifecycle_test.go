package lifecycle

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/nn"
)

func TestExpandDeterministic(t *testing.T) {
	spec := Spec{
		Devices: 40,
		Windows: 8,
		Seed:    11,
		Churn: Churn{
			JoinRate:           0.3,
			LeaveRate:          0.2,
			OSUpgradeRate:      0.4,
			RuntimeUpgradeRate: 0.3,
			ThermalRate:        0.3,
		},
		Events: []Event{
			{Window: 3, Device: 5, Kind: KindOSUpgrade},
			{Window: 2, Device: 1, Kind: KindThermalDrift, Severity: 0.4},
		},
	}
	a, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	b, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("same spec expanded to different schedules")
	}
	if len(a.Events) == 0 {
		t.Fatalf("churny spec expanded to zero events")
	}
	// Reordering the explicit events must not change the schedule.
	spec.Events = []Event{spec.Events[1], spec.Events[0]}
	c, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("explicit-event order changed the expanded schedule")
	}
}

func TestExpandEventOrderAndBounds(t *testing.T) {
	spec := Spec{Devices: 10, Windows: 6, Seed: 3, Churn: Churn{
		JoinRate: 0.5, LeaveRate: 0.5, OSUpgradeRate: 0.5,
		RuntimeUpgradeRate: 0.5, ThermalRate: 0.5,
	}}
	sched, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !sort.SliceIsSorted(sched.Events, func(i, j int) bool {
		a, b := sched.Events[i], sched.Events[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return kindRank(a.Kind) < kindRank(b.Kind)
	}) {
		t.Fatalf("events not sorted by (window, device, kind)")
	}
	for _, ev := range sched.Events {
		if ev.Window < 1 || ev.Window >= spec.Windows {
			t.Fatalf("generated event in window %d, want [1, %d)", ev.Window, spec.Windows)
		}
		if ev.Device < 0 || ev.Device >= spec.Devices {
			t.Fatalf("generated event for device %d, want [0, %d)", ev.Device, spec.Devices)
		}
		if ev.Kind == KindThermalDrift && (ev.Severity < 0.25 || ev.Severity >= 0.75) {
			t.Fatalf("generated thermal severity %v outside [0.25, 0.75)", ev.Severity)
		}
		if ev.Kind == KindRuntimeUpgrade && ev.Runtime != nn.RuntimeInt8 {
			t.Fatalf("generated runtime upgrade to %q, want int8", ev.Runtime)
		}
	}
}

func TestExpandDeviceIndependence(t *testing.T) {
	// A device's events depend on (Seed, device) alone, not on the
	// population size — the property that lets any shard recompute them.
	small := Spec{Devices: 8, Windows: 6, Seed: 9, Churn: Churn{JoinRate: 0.5, OSUpgradeRate: 0.5, ThermalRate: 0.5}}
	large := small
	large.Devices = 64
	a, err := small.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	b, err := large.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for i := 0; i < small.Devices; i++ {
		if !reflect.DeepEqual(a.DeviceEvents(i), b.DeviceEvents(i)) {
			t.Fatalf("device %d events changed with population size:\n%v\nvs\n%v", i, a.DeviceEvents(i), b.DeviceEvents(i))
		}
	}
}

func TestExpandValidation(t *testing.T) {
	base := Spec{Devices: 4, Windows: 4, Seed: 1}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero devices", func(s *Spec) { s.Devices = 0 }},
		{"zero windows", func(s *Spec) { s.Windows = 0 }},
		{"negative rate", func(s *Spec) { s.Churn.JoinRate = -0.1 }},
		{"rate above one", func(s *Spec) { s.Churn.ThermalRate = 1.5 }},
		{"event window high", func(s *Spec) { s.Events = []Event{{Window: 4, Device: 0, Kind: KindLeave}} }},
		{"event window negative", func(s *Spec) { s.Events = []Event{{Window: -1, Device: 0, Kind: KindLeave}} }},
		{"event device high", func(s *Spec) { s.Events = []Event{{Window: 1, Device: 4, Kind: KindLeave}} }},
		{"unknown kind", func(s *Spec) { s.Events = []Event{{Window: 1, Device: 0, Kind: "reboot"}} }},
		{"bad runtime", func(s *Spec) { s.Events = []Event{{Window: 1, Device: 0, Kind: KindRuntimeUpgrade, Runtime: "fp64"}} }},
		{"severity above one", func(s *Spec) { s.Events = []Event{{Window: 1, Device: 0, Kind: KindThermalDrift, Severity: 1.5}} }},
		{"severity negative", func(s *Spec) { s.Events = []Event{{Window: 1, Device: 0, Kind: KindThermalDrift, Severity: -0.5}} }},
	}
	for _, tc := range cases {
		spec := base
		tc.mut(&spec)
		if _, err := spec.Expand(); err == nil {
			t.Errorf("%s: Expand accepted invalid spec", tc.name)
		}
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
	if _, err := base.Expand(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected by Validate: %v", err)
	}
}

func TestEventDefaults(t *testing.T) {
	spec := Spec{Devices: 2, Windows: 4, Seed: 1, Events: []Event{
		{Window: 1, Device: 0, Kind: KindRuntimeUpgrade},
		{Window: 2, Device: 1, Kind: KindThermalDrift},
	}}
	sched, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if got := sched.Events[0].Runtime; got != nn.RuntimeInt8 {
		t.Errorf("runtime upgrade default = %q, want int8", got)
	}
	if got := sched.Events[1].Severity; got != 0.5 {
		t.Errorf("thermal severity default = %v, want 0.5", got)
	}
}

func TestLeaveAfterJoin(t *testing.T) {
	// Generated leave events always land strictly after the device's join.
	spec := Spec{Devices: 200, Windows: 6, Seed: 17, Churn: Churn{JoinRate: 0.8, LeaveRate: 0.8}}
	sched, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for i := 0; i < spec.Devices; i++ {
		joinW, leaveW := -1, -1
		for _, ev := range sched.DeviceEvents(i) {
			switch ev.Kind {
			case KindJoin:
				joinW = ev.Window
			case KindLeave:
				leaveW = ev.Window
			}
		}
		if joinW >= 0 && leaveW >= 0 && leaveW <= joinW {
			t.Fatalf("device %d leaves at %d, joined at %d", i, leaveW, joinW)
		}
	}
}

func TestWindowEvents(t *testing.T) {
	spec := Spec{Devices: 4, Windows: 5, Seed: 1, Events: []Event{
		{Window: 2, Device: 3, Kind: KindOSUpgrade},
		{Window: 2, Device: 1, Kind: KindOSUpgrade},
		{Window: 4, Device: 0, Kind: KindLeave},
	}}
	sched, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	evs := sched.WindowEvents(2)
	if len(evs) != 2 || evs[0].Device != 1 || evs[1].Device != 3 {
		t.Fatalf("WindowEvents(2) = %v, want devices 1, 3", evs)
	}
	if evs := sched.WindowEvents(0); len(evs) != 0 {
		t.Fatalf("WindowEvents(0) = %v, want none", evs)
	}
}
