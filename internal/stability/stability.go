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

// ScoreSplit partitions prediction scores into the four populations of
// Figure 4: (stable, correct), (stable, incorrect), (unstable, correct),
// (unstable, incorrect).
type ScoreSplit struct {
	StableCorrect     []float64
	StableIncorrect   []float64
	UnstableCorrect   []float64
	UnstableIncorrect []float64
}

// SplitScores computes the Figure 4 score populations, each in the input
// order of its records.
func SplitScores(records []*Record) ScoreSplit {
	acc := NewAccumulator(records...)
	var out ScoreSplit
	for _, r := range records {
		unstable := acc.Unstable(GroupKey{r.ItemID, r.Angle})
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
	return out
}
