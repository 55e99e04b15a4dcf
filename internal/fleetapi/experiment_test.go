package fleetapi

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/nn"
)

func TestExperimentArmsExpansion(t *testing.T) {
	spec := ExperimentSpec{
		Base: RunSpec{Devices: 50, Items: 2, Angles: []int{0, 2}, Seed: 9},
		Axes: SweepAxes{Runtime: []string{nn.RuntimeFloat32, nn.RuntimeInt8}, Scale: []int{1, 2}},
	}
	arms := spec.Arms()
	wantNames := []string{
		"runtime=float32,scale=1",
		"runtime=float32,scale=2",
		"runtime=int8,scale=1",
		"runtime=int8,scale=2",
	}
	if len(arms) != len(wantNames) {
		t.Fatalf("%d arms, want %d", len(arms), len(wantNames))
	}
	for i, want := range wantNames {
		if arms[i].Name != want {
			t.Fatalf("arm %d named %q, want %q", i, arms[i].Name, want)
		}
	}
	// Axis values are stamped in; untouched base fields carry through.
	if arms[2].Spec.Runtime != nn.RuntimeInt8 || arms[2].Spec.Scale != 1 {
		t.Fatalf("arm 2 spec %+v", arms[2].Spec)
	}
	if arms[2].Spec.Devices != 50 || arms[2].Spec.Seed != 9 || len(arms[2].Spec.Angles) != 2 {
		t.Fatalf("arm 2 base fields %+v", arms[2].Spec)
	}
	// Expansion is deterministic.
	if !reflect.DeepEqual(arms, spec.Arms()) {
		t.Fatal("expansion not deterministic")
	}
	// Arms must not share the Angles backing array.
	arms[0].Spec.Angles[0] = 99
	if arms[1].Spec.Angles[0] == 99 || spec.Base.Angles[0] == 99 {
		t.Fatal("arms share the Angles slice")
	}

	// No axes: the base spec is the single arm.
	solo := ExperimentSpec{Base: RunSpec{Devices: 5}}
	arms = solo.Arms()
	if len(arms) != 1 || arms[0].Name != "base" || arms[0].Spec.Devices != 5 {
		t.Fatalf("axis-free arms %+v", arms)
	}
}

func TestExperimentBaselineArm(t *testing.T) {
	spec := ExperimentSpec{Axes: SweepAxes{Runtime: []string{nn.RuntimeFloat32, nn.RuntimeInt8}}}
	if got := spec.BaselineArm(); got != "runtime=float32" {
		t.Fatalf("default baseline %q", got)
	}
	spec.Baseline = "runtime=int8"
	if got := spec.BaselineArm(); got != "runtime=int8" {
		t.Fatalf("designated baseline %q", got)
	}
}

func TestExperimentSpecValidate(t *testing.T) {
	good := []ExperimentSpec{
		{},
		{Axes: SweepAxes{Runtime: []string{nn.RuntimeFloat32, nn.RuntimeInt8}}},
		{
			Base:     RunSpec{Devices: 20, Items: 1, Angles: []int{0}},
			Axes:     SweepAxes{Scale: []int{1, 2, 4}, Seed: []int64{1, 2}},
			Baseline: "scale=2,seed=1",
		},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("valid spec %+v rejected: %v", s, err)
		}
	}
	bad := []struct {
		name string
		spec ExperimentSpec
	}{
		{"dup axis value", ExperimentSpec{Axes: SweepAxes{Scale: []int{2, 2}}}},
		{"bad arm field", ExperimentSpec{Axes: SweepAxes{Scale: []int{1, MaxScale + 1}}}},
		{"bad arm runtime", ExperimentSpec{Axes: SweepAxes{Runtime: []string{"tpu"}}}},
		{"unknown baseline", ExperimentSpec{Axes: SweepAxes{Scale: []int{1, 2}}, Baseline: "scale=3"}},
		{"arm count cap", ExperimentSpec{Axes: SweepAxes{
			Scale: []int{1, 2, 3, 4, 5, 6},
			Seed:  []int64{1, 2, 3, 4, 5, 6},
		}}},
		{"captures sum cap", ExperimentSpec{
			Base: RunSpec{Items: 1, Angles: []int{0}},
			Axes: SweepAxes{Devices: []int{900_000, 900_000, 900_000}},
		}},
		{"captures sum of 2³²", ExperimentSpec{
			Base: RunSpec{Devices: 1 << 19, Items: 1 << 12, Angles: []int{0}},
			Axes: SweepAxes{Seed: []int64{1, 2}},
		}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Fatalf("%s: spec %+v accepted", tc.name, tc.spec)
		}
	}

	// Arm-level errors name the offending arm.
	err := ExperimentSpec{Axes: SweepAxes{Scale: []int{1, MaxScale + 1}}}.Validate()
	if err == nil || !strings.Contains(err.Error(), "arm scale=") {
		t.Fatalf("arm error not attributed: %v", err)
	}
}
