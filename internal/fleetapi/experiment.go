package fleetapi

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fleet"
	"repro/internal/stability"
)

// The experiments API makes the paper's comparative method a first-class
// resource. The paper never measures one condition in isolation: it replays
// the same capture matrix across conditions (devices, runtimes, resolutions)
// and reports the *paired* divergence. An ExperimentSpec declares exactly
// that — one base RunSpec plus a sweep matrix — and fleetd expands it into
// named arms, executes each through the ordinary run/shard machinery, and
// serves a report of per-arm stats plus paired cross-arm comparisons against
// a designated baseline arm.

// MaxArms bounds an experiment's sweep expansion. The captures cap already
// bounds total work; this bounds the report's O(arms²) agreement matrix and
// keeps a fat-fingered axis from queueing hundreds of fleet runs.
const MaxArms = 32

// SweepAxes is the sweep matrix of an experiment: every non-empty field
// sweeps one RunSpec field over its listed values. Arms expand as the cross
// product of the axes in canonical order (runtime, format, model, scale,
// devices, items, angle, seed), so the arm list — and every report derived
// from it — is deterministic in the spec alone. A format or model value is
// stamped into its arm, and names it, in its canonical spelling; arm
// angle=a photographs angle a alone. A cell's capture does not depend on
// the other angles of its run, so the angle arms partition the base run's
// cells exactly.
type SweepAxes struct {
	Runtime []string `json:"runtime,omitempty"`
	Format  []string `json:"format,omitempty"`
	Model   []string `json:"model,omitempty"`
	Scale   []int    `json:"scale,omitempty"`
	Devices []int    `json:"devices,omitempty"`
	Items   []int    `json:"items,omitempty"`
	Angle   []int    `json:"angle,omitempty"`
	Seed    []int64  `json:"seed,omitempty"`
}

// axis is one swept RunSpec field: its name, its value count, and an apply
// function that stamps value i into a spec and renders it for the arm name.
type axis struct {
	name  string
	count int
	apply func(s *RunSpec, i int) string
}

// axes returns the swept axes in canonical order, skipping empty ones.
func (a SweepAxes) axes() []axis {
	var out []axis
	if v := a.Runtime; len(v) > 0 {
		out = append(out, axis{"runtime", len(v), func(s *RunSpec, i int) string { s.Runtime = v[i]; return v[i] }})
	}
	if v := a.Format; len(v) > 0 {
		out = append(out, axis{"format", len(v), func(s *RunSpec, i int) string {
			s.Format, _ = fleet.CanonicalFormat(v[i]) // a bad value stays, for Validate to name
			if s.Format == "" {
				return "native"
			}
			return s.Format
		}})
	}
	if v := a.Model; len(v) > 0 {
		out = append(out, axis{"model", len(v), func(s *RunSpec, i int) string {
			s.Model, _ = fleet.CanonicalModel(v[i]) // a bad value stays, for Validate to name
			if s.Model == "" {
				return "base"
			}
			return s.Model
		}})
	}
	if v := a.Scale; len(v) > 0 {
		out = append(out, axis{"scale", len(v), func(s *RunSpec, i int) string { s.Scale = v[i]; return strconv.Itoa(v[i]) }})
	}
	if v := a.Devices; len(v) > 0 {
		out = append(out, axis{"devices", len(v), func(s *RunSpec, i int) string { s.Devices = v[i]; return strconv.Itoa(v[i]) }})
	}
	if v := a.Items; len(v) > 0 {
		out = append(out, axis{"items", len(v), func(s *RunSpec, i int) string { s.Items = v[i]; return strconv.Itoa(v[i]) }})
	}
	if v := a.Angle; len(v) > 0 {
		out = append(out, axis{"angle", len(v), func(s *RunSpec, i int) string { s.Angles = []int{v[i]}; return strconv.Itoa(v[i]) }})
	}
	if v := a.Seed; len(v) > 0 {
		out = append(out, axis{"seed", len(v), func(s *RunSpec, i int) string { s.Seed = v[i]; return strconv.FormatInt(v[i], 10) }})
	}
	return out
}

// dupErr reports the first duplicated value of one axis; duplicate values
// would expand into identically-named arms running identical specs.
func dupErr[T comparable](name string, vals []T) error {
	seen := map[T]bool{}
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("duplicate %s axis value %v", name, v)
		}
		seen[v] = true
	}
	return nil
}

// canonical spells every value of an axis canonically, so two spellings of
// one value are a duplicate; a bad value stays, for Validate to name.
func canonical(vals []string, canon func(string) (string, error)) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i], _ = canon(v)
	}
	return out
}

// ExperimentSpec is the client-provided description of a multi-arm sweep —
// the body of POST /v1/experiments: one base RunSpec, the sweep matrix, and
// the baseline arm paired statistics compare against.
type ExperimentSpec struct {
	Base RunSpec   `json:"base"`
	Axes SweepAxes `json:"axes"`
	// Baseline names the arm every other arm is paired against in the
	// report (regressions, improvements, instability deltas). Empty selects
	// the first arm of the expansion.
	Baseline string `json:"baseline,omitempty"`
}

// Arm is one expanded condition of an experiment: the base spec with one
// combination of axis values stamped in, named after that combination.
type Arm struct {
	Name string  `json:"name"`
	Spec RunSpec `json:"spec"`
}

// Arms expands the sweep matrix into the deterministic arm list: the cross
// product of the axes in canonical order, later axes varying fastest, each
// arm named "axis=value,axis=value". With no axes the base spec itself is
// the single arm, named "base".
func (s ExperimentSpec) Arms() []Arm {
	axes := s.Axes.axes()
	if len(axes) == 0 {
		return []Arm{{Name: "base", Spec: s.Base.clone()}}
	}
	total := 1
	for _, ax := range axes {
		total *= ax.count
	}
	arms := make([]Arm, 0, total)
	parts := make([]string, len(axes))
	for n := 0; n < total; n++ {
		spec := s.Base.clone()
		rem := n
		for i := len(axes) - 1; i >= 0; i-- {
			ax := axes[i]
			parts[i] = ax.name + "=" + ax.apply(&spec, rem%ax.count)
			rem /= ax.count
		}
		arms = append(arms, Arm{Name: strings.Join(parts, ","), Spec: spec})
	}
	return arms
}

// clone deep-copies the spec so arms never share the Angles backing array.
func (s RunSpec) clone() RunSpec {
	s.Angles = append([]int(nil), s.Angles...)
	return s
}

// BaselineArm resolves the baseline arm name: the designated one, or the
// first arm of the expansion.
func (s ExperimentSpec) BaselineArm() string {
	if s.Baseline != "" {
		return s.Baseline
	}
	return s.Arms()[0].Name
}

// Validate checks the expansion and every arm. The captures cap applies to
// the *sum* over arms: the executing instance materializes every arm's
// accumulator to build the paired report, so the bound is on what one
// process eventually holds — the same reasoning as RunSpec.Validate, across
// the whole sweep.
func (s ExperimentSpec) Validate() error {
	if err := dupErr("runtime", s.Axes.Runtime); err != nil {
		return err
	}
	if err := dupErr("format", canonical(s.Axes.Format, fleet.CanonicalFormat)); err != nil {
		return err
	}
	if err := dupErr("model", canonical(s.Axes.Model, fleet.CanonicalModel)); err != nil {
		return err
	}
	if err := dupErr("scale", s.Axes.Scale); err != nil {
		return err
	}
	if err := dupErr("devices", s.Axes.Devices); err != nil {
		return err
	}
	if err := dupErr("items", s.Axes.Items); err != nil {
		return err
	}
	if err := dupErr("angle", s.Axes.Angle); err != nil {
		return err
	}
	if err := dupErr("seed", s.Axes.Seed); err != nil {
		return err
	}
	// Bound the expansion BEFORE materializing it: the product is checked
	// incrementally, so a request whose axes multiply to billions of arms
	// is rejected from the counts alone instead of allocating the arm
	// slice (or overflowing the product).
	total := 1
	for _, ax := range s.Axes.axes() {
		total *= ax.count
		if total > MaxArms {
			return fmt.Errorf("sweep expands to at least %d arms, exceeding the cap of %d", total, MaxArms)
		}
	}
	arms := s.Arms()
	captures := 0
	baselineFound := false
	for _, arm := range arms {
		if err := arm.Spec.validateFields(); err != nil {
			return fmt.Errorf("arm %s: %v", arm.Name, err)
		}
		// The sum saturates like each term (fleet.Config.Captures): a
		// wrapped total would pass the cap on a 32-bit build.
		if c := arm.Spec.FleetConfig().Captures(); c > math.MaxInt-captures {
			captures = math.MaxInt
		} else {
			captures += c
		}
		baselineFound = baselineFound || arm.Name == s.Baseline
	}
	if captures > MaxCaptures {
		return fmt.Errorf("arms total %d captures, exceeding the cap of %d", captures, MaxCaptures)
	}
	if s.Baseline != "" && !baselineFound {
		return fmt.Errorf("baseline %q names no arm of the sweep", s.Baseline)
	}
	return nil
}

// ArmStatus is one arm's slice of an experiment resource's status.
type ArmStatus struct {
	Name  string  `json:"name"`
	State string  `json:"state"` // pending → running → done/cancelled/failed
	Spec  RunSpec `json:"spec"`
	// Devices is the arm's total device count (after defaulting);
	// DevicesDone and Captures are progress so far.
	Devices     int    `json:"devices"`
	DevicesDone int    `json:"devices_done"`
	Captures    int    `json:"captures"`
	Error       string `json:"error,omitempty"`
}

// ExperimentStatus is the /v1 representation of an experiment resource.
// Arms execute sequentially in expansion order; the experiment is done only
// when every arm ran to completion.
type ExperimentStatus struct {
	ID       int            `json:"id"`
	State    string         `json:"state"`
	Spec     ExperimentSpec `json:"spec"`
	Baseline string         `json:"baseline"`
	Arms     []ArmStatus    `json:"arms"`
	// Shards is the peer fan-out each arm is split across (0 for local
	// execution).
	Shards int `json:"shards,omitempty"`
	// Error carries the failure message of a failed experiment.
	Error string `json:"error,omitempty"`
}

// ArmReport is one arm's slice of the experiment report: its own accuracy
// and instability, the deltas against the baseline arm, and — for
// non-baseline arms — the paired per-cell comparison.
type ArmReport struct {
	Name     string  `json:"name"`
	Baseline bool    `json:"baseline,omitempty"`
	Spec     RunSpec `json:"spec"`
	Devices  int     `json:"devices"`
	Captures int     `json:"captures"`
	Records  int     `json:"records"`

	Accuracy     float64                `json:"accuracy"`
	TopKAccuracy float64                `json:"topk_accuracy"`
	Top1         fleet.InstabilityStats `json:"top1"`

	// DeltaAccuracy and DeltaInstability are this arm minus the baseline
	// (accuracy fraction and top-1 instability percentage points) — the
	// paired deltas the sweep exists to measure. Zero for the baseline arm.
	DeltaAccuracy    float64 `json:"delta_accuracy"`
	DeltaInstability float64 `json:"delta_instability"`

	// Paired is the per-cell comparison against the baseline arm: shared
	// cells, flips (with each arm internally consistent), their direction,
	// and agreement. Nil for the baseline arm itself.
	Paired *stability.PairedStats `json:"paired,omitempty"`
}

// AgreementMatrix is the pairwise per-cell agreement between every pair of
// arms, in arm order: Rates[i][j] is the fraction of cells observed by both
// arms i and j whose collapsed outcomes match.
type AgreementMatrix struct {
	Arms  []string    `json:"arms"`
	Rates [][]float64 `json:"rates"`
}

// ExperimentReport is the final artifact of an experiment — GET
// /v1/experiments/{id}/report. Like a finished run's stats, the bytes are
// deterministic: the same spec produces a byte-identical report no matter
// how arms were sharded across peers or how many workers executed them.
type ExperimentReport struct {
	ID        int             `json:"id"`
	Baseline  string          `json:"baseline"`
	Arms      []ArmReport     `json:"arms"`
	Agreement AgreementMatrix `json:"agreement"`
}
