// Package stability implements the paper's primary contribution: the
// instability metric. A prediction group — the same underlying input
// observed through several environments (phones, codecs, ISPs, decoders) —
// is unstable when at least one environment classifies it correctly and at
// least one other classifies it incorrectly. Groups where every environment
// is wrong are not counted as unstable, because the paper argues one wrong
// answer cannot be ranked as "more wrong" than another.
package stability

import (
	"fmt"
	"sort"

	"repro/internal/nn"
)

// Record is a single model prediction in one environment.
type Record struct {
	ItemID    int     // identity of the underlying input
	Angle     int     // camera angle (0..4) or 0 when not applicable
	TrueClass int     // ground-truth label
	Env       string  // environment: phone model, codec name, ISP name, ...
	Runtime   string  // inference runtime variant ("" means float32 reference)
	Pred      int     // top-1 predicted class
	Score     float64 // confidence of the top-1 prediction, in [0,1]
	TopK      []int   // top-k predicted classes in descending confidence
}

// RuntimeName returns the record's runtime variant, treating the empty
// string as the float32 reference (records predating the runtime axis).
func (r *Record) RuntimeName() string { return nn.RuntimeOrDefault(r.Runtime) }

// Correct reports whether the top-1 prediction matches the label.
func (r *Record) Correct() bool { return r.Pred == r.TrueClass }

// CorrectTopK reports whether the label appears anywhere in TopK (top-n
// classification, the paper's §9.3 relaxation). An empty TopK falls back to
// top-1.
func (r *Record) CorrectTopK() bool {
	if len(r.TopK) == 0 {
		return r.Correct()
	}
	for _, c := range r.TopK {
		if c == r.TrueClass {
			return true
		}
	}
	return false
}

// GroupKey identifies one shared input: one item photographed at one angle.
type GroupKey struct {
	ItemID int
	Angle  int
}

// Group is the set of per-environment predictions for one shared input.
type Group struct {
	Key     GroupKey
	Class   int
	Records []*Record
}

// Unstable reports the paper's instability predicate: at least one correct
// and at least one incorrect prediction. topK selects top-k correctness.
func (g *Group) Unstable(topK bool) bool {
	anyCorrect, anyIncorrect := false, false
	for _, r := range g.Records {
		ok := r.Correct()
		if topK {
			ok = r.CorrectTopK()
		}
		if ok {
			anyCorrect = true
		} else {
			anyIncorrect = true
		}
	}
	return anyCorrect && anyIncorrect
}

// GroupRecords buckets records by (item, angle) and returns groups in
// deterministic key order.
func GroupRecords(records []*Record) []*Group {
	m := map[GroupKey]*Group{}
	for _, r := range records {
		k := GroupKey{r.ItemID, r.Angle}
		g, ok := m[k]
		if !ok {
			g = &Group{Key: k, Class: r.TrueClass}
			m[k] = g
		}
		if r.TrueClass != g.Class {
			panic(fmt.Sprintf("stability: item %d has conflicting labels %d and %d", r.ItemID, g.Class, r.TrueClass))
		}
		g.Records = append(g.Records, r)
	}
	keys := make([]GroupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ItemID != keys[j].ItemID {
			return keys[i].ItemID < keys[j].ItemID
		}
		return keys[i].Angle < keys[j].Angle
	})
	out := make([]*Group, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// Summary is an instability measurement over a set of groups.
type Summary struct {
	Groups   int `json:"groups"`
	Unstable int `json:"unstable"`
}

// Rate returns the instability fraction (0 when there are no groups).
func (s Summary) Rate() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.Unstable) / float64(s.Groups)
}

// Percent returns the instability as a percentage.
func (s Summary) Percent() float64 { return s.Rate() * 100 }

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("%d/%d unstable (%.2f%%)", s.Unstable, s.Groups, s.Percent())
}

// Compute measures top-1 instability over the records.
func Compute(records []*Record) Summary { return computeGroups(GroupRecords(records), false) }

// ComputeTopK measures top-k instability (correct = label in TopK).
func ComputeTopK(records []*Record) Summary { return computeGroups(GroupRecords(records), true) }

func computeGroups(groups []*Group, topK bool) Summary {
	s := Summary{Groups: len(groups)}
	for _, g := range groups {
		if g.Unstable(topK) {
			s.Unstable++
		}
	}
	return s
}

// ByClass computes instability separately per true class; keys are class
// indices.
func ByClass(records []*Record) map[int]Summary {
	out := map[int]Summary{}
	for _, g := range GroupRecords(records) {
		s := out[g.Class]
		s.Groups++
		if g.Unstable(false) {
			s.Unstable++
		}
		out[g.Class] = s
	}
	return out
}

// ByRuntime computes within-runtime instability separately for each
// inference runtime: the divergence that remains when every prediction in a
// group ran on the same stack (optics, noise, ISP and codec effects only).
func ByRuntime(records []*Record) map[string]Summary {
	byRuntime := map[string][]*Record{}
	for _, r := range records {
		rt := r.RuntimeName()
		byRuntime[rt] = append(byRuntime[rt], r)
	}
	out := map[string]Summary{}
	for rt, recs := range byRuntime {
		out[rt] = Compute(recs)
	}
	return out
}

// CrossRuntime measures instability attributable to the runtime stack
// itself, at the granularity the paper's §7 comparison uses: the same
// device looking at the same scene through two stacks. Records are bucketed
// into (item, angle, env) cells; over cells observed by at least two
// runtimes, it counts those where correctness flips across runtimes while
// every runtime is internally consistent within the cell. Device optics,
// noise, ISP and codec are all held fixed inside a cell, so such a flip can
// only be explained by the runtime axis — "same weights, different
// compilation, different label" as a single number.
//
// In a mixed fleet each device runs one runtime, so no cell sees two stacks
// and the summary is 0/0; the number becomes meaningful when the same
// devices are swept under forced runtimes and the record sets (or
// accumulator states) are merged — as the runtime axis of an experiment does
// (examples/scalesweep).
func CrossRuntime(records []*Record) Summary {
	type cellKey struct {
		item, angle int
		env         string
	}
	cells := map[cellKey]map[string][2]int{} // runtime → (correct, incorrect)
	for _, r := range records {
		k := cellKey{r.ItemID, r.Angle, r.Env}
		c, ok := cells[k]
		if !ok {
			c = map[string][2]int{}
			cells[k] = c
		}
		t := c[r.RuntimeName()]
		if r.Correct() {
			t[0]++
		} else {
			t[1]++
		}
		c[r.RuntimeName()] = t
	}
	var s Summary
	for _, c := range cells {
		if len(c) < 2 {
			continue
		}
		s.Groups++
		anyCorrect, anyIncorrect, consistent := false, false, true
		for _, t := range c {
			if t[0] > 0 {
				anyCorrect = true
			}
			if t[1] > 0 {
				anyIncorrect = true
			}
			if t[0] > 0 && t[1] > 0 {
				consistent = false
			}
		}
		if anyCorrect && anyIncorrect && consistent {
			s.Unstable++
		}
	}
	return s
}

// ByAngle computes instability separately per camera angle.
func ByAngle(records []*Record) map[int]Summary {
	byAngle := map[int][]*Record{}
	for _, r := range records {
		byAngle[r.Angle] = append(byAngle[r.Angle], r)
	}
	out := map[int]Summary{}
	for a, recs := range byAngle {
		out[a] = Compute(recs)
	}
	return out
}

// ByEnvPair computes pairwise instability between every pair of
// environments, useful for attributing instability to particular devices.
// Keys are "envA|envB" with envA < envB lexically.
func ByEnvPair(records []*Record) map[string]Summary {
	envs := map[string]bool{}
	for _, r := range records {
		envs[r.Env] = true
	}
	names := make([]string, 0, len(envs))
	for e := range envs {
		names = append(names, e)
	}
	sort.Strings(names)
	out := map[string]Summary{}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			var subset []*Record
			for _, r := range records {
				if r.Env == names[i] || r.Env == names[j] {
					subset = append(subset, r)
				}
			}
			out[names[i]+"|"+names[j]] = Compute(subset)
		}
	}
	return out
}

// Accuracy returns top-1 accuracy over all records of one environment, or
// over all records when env is empty.
func Accuracy(records []*Record, env string) float64 {
	total, correct := 0, 0
	for _, r := range records {
		if env != "" && r.Env != env {
			continue
		}
		total++
		if r.Correct() {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// TopKAccuracy returns top-k accuracy for one environment ("" = all).
func TopKAccuracy(records []*Record, env string) float64 {
	total, correct := 0, 0
	for _, r := range records {
		if env != "" && r.Env != env {
			continue
		}
		total++
		if r.CorrectTopK() {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Envs returns the distinct environment names in the records, sorted.
func Envs(records []*Record) []string {
	set := map[string]bool{}
	for _, r := range records {
		set[r.Env] = true
	}
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// ScoreSplit partitions prediction scores into the four populations of
// Figure 4: (stable, correct), (stable, incorrect), (unstable, correct),
// (unstable, incorrect).
type ScoreSplit struct {
	StableCorrect     []float64
	StableIncorrect   []float64
	UnstableCorrect   []float64
	UnstableIncorrect []float64
}

// SplitScores computes the Figure 4 score populations.
func SplitScores(records []*Record) ScoreSplit {
	var out ScoreSplit
	for _, g := range GroupRecords(records) {
		unstable := g.Unstable(false)
		for _, r := range g.Records {
			switch {
			case !unstable && r.Correct():
				out.StableCorrect = append(out.StableCorrect, r.Score)
			case !unstable && !r.Correct():
				out.StableIncorrect = append(out.StableIncorrect, r.Score)
			case unstable && r.Correct():
				out.UnstableCorrect = append(out.UnstableCorrect, r.Score)
			default:
				out.UnstableIncorrect = append(out.UnstableIncorrect, r.Score)
			}
		}
	}
	return out
}
