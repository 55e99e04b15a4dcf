package fleetapi

import (
	"strings"
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/stability"
)

func TestFleetSpecValidate(t *testing.T) {
	valid := FleetSpec{
		RunSpec: RunSpec{Devices: 10, Items: 2, Seed: 3},
		Windows: 4,
		Churn:   lifecycle.Churn{JoinRate: 0.2},
		Events:  []lifecycle.Event{{Window: 2, Device: 0, Kind: lifecycle.KindOSUpgrade}},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := (FleetSpec{}).Validate(); err != nil {
		t.Fatalf("zero spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*FleetSpec)
		want string
	}{
		{"negative windows", func(s *FleetSpec) { s.Windows = -1 }, "negative"},
		{"windows cap", func(s *FleetSpec) { s.Windows = MaxWindows + 1 }, "cap"},
		{"capture budget", func(s *FleetSpec) { s.Devices, s.Items, s.Windows = 100_000, 100, 64 }, "captures"},
		{"capture budget of 2³²", func(s *FleetSpec) { s.Devices, s.Items, s.Angles, s.Windows = 1<<19, 1<<7, []int{0}, 64 }, "captures"},
		{"bad runtime", func(s *FleetSpec) { s.Runtime = "fp64" }, "runtime"},
		{"churn rate", func(s *FleetSpec) { s.Churn.LeaveRate = 1.5 }, "[0, 1]"},
		{"event window", func(s *FleetSpec) { s.Events = []lifecycle.Event{{Window: 99, Device: 0, Kind: lifecycle.KindLeave}} }, "window"},
		{"event kind", func(s *FleetSpec) { s.Events = []lifecycle.Event{{Window: 1, Device: 0, Kind: "reboot"}} }, "kind"},
		{"drift negative", func(s *FleetSpec) { s.Drift = stability.DriftConfig{MinZ: -1} }, "non-negative"},
	}
	for _, tc := range cases {
		spec := valid
		tc.mut(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFleetShardSpecValidate(t *testing.T) {
	base := FleetShardSpec{
		FleetSpec: FleetSpec{RunSpec: RunSpec{Devices: 10, Items: 2, Seed: 3}, Windows: 4},
		DeviceLo:  0,
		DeviceHi:  5,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid shard spec rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*FleetShardSpec)
	}{
		{"empty range", func(s *FleetShardSpec) { s.DeviceHi = s.DeviceLo }},
		{"inverted range", func(s *FleetShardSpec) { s.DeviceLo, s.DeviceHi = 5, 2 }},
		{"range past devices", func(s *FleetShardSpec) { s.DeviceHi = 11 }},
		{"negative lo", func(s *FleetShardSpec) { s.DeviceLo = -1 }},
		{"bad event", func(s *FleetShardSpec) {
			s.Events = []lifecycle.Event{{Window: 1, Device: 99, Kind: lifecycle.KindLeave}}
		}},
	} {
		spec := base
		tc.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestFleetSpecConfigRoundTrip(t *testing.T) {
	spec := FleetSpec{
		RunSpec: RunSpec{Devices: 8, Items: 2, Angles: []int{0, 4}, Seed: 9, Runtime: "int8"},
		Windows: 5,
		Churn:   lifecycle.Churn{ThermalRate: 0.3},
		Events:  []lifecycle.Event{{Window: 1, Device: 2, Kind: lifecycle.KindOSUpgrade}},
		Drift:   stability.DriftConfig{Baseline: 2},
	}
	cfg := spec.ContinuousConfig()
	if cfg.Fleet.Devices != 8 || cfg.Windows != 5 || cfg.Churn.ThermalRate != 0.3 {
		t.Fatalf("config round trip lost fields: %+v", cfg)
	}
	if len(cfg.Events) != 1 || cfg.Events[0].Kind != lifecycle.KindOSUpgrade {
		t.Fatalf("events lost: %+v", cfg.Events)
	}
	if cfg.Drift.Baseline != 2 {
		t.Fatalf("drift config lost: %+v", cfg.Drift)
	}
	ls := cfg.LifecycleSpec()
	if ls.Devices != 8 || ls.Windows != 5 || ls.Seed != 9 {
		t.Fatalf("lifecycle spec %+v", ls)
	}
}

// TestFleetSpecValidateDoesNotExpandChurn: validation runs in the request
// path on fleets of up to MaxDevices, so it must check the lifecycle spec
// without drawing every device's churn (a 90-byte million-device body cost
// 12 s of CPU when it did). Expansion allocates per device; validation must
// not.
func TestFleetSpecValidateDoesNotExpandChurn(t *testing.T) {
	spec := FleetShardSpec{
		FleetSpec: FleetSpec{
			RunSpec: RunSpec{Devices: 100_000, Items: 1, Angles: []int{0}},
			Windows: 2,
			Churn:   lifecycle.Churn{JoinRate: 0.2},
		},
		DeviceLo: 0, DeviceHi: 100_000,
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := spec.FleetSpec.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("validating a 100k-device fleet allocated %.0f objects; it expands the schedule", allocs)
	}
}
