package stability

import (
	"fmt"
	"sort"
)

// This file is the test-side reference for Accumulator: the paper's
// definition written out directly. Records are grouped by (item, angle) and
// every count is taken over the groups, so Snapshot, Unstable, Merge and
// the wire state are each diffed against code that shares nothing with
// them.

// refGroups buckets records by (item, angle), keeping input order inside a
// group, and panics on a group with two labels.
func refGroups(records []*Record) map[GroupKey][]*Record {
	groups := map[GroupKey][]*Record{}
	for _, r := range records {
		k := GroupKey{r.ItemID, r.Angle}
		if g := groups[k]; len(g) > 0 && g[0].TrueClass != r.TrueClass {
			panic(fmt.Sprintf("stability: item %d has conflicting labels %d and %d", r.ItemID, g[0].TrueClass, r.TrueClass))
		}
		groups[k] = append(groups[k], r)
	}
	return groups
}

// refUnstable is the paper's predicate: at least one correct and at least
// one incorrect prediction; topK selects top-k correctness.
func refUnstable(group []*Record, topK bool) bool {
	anyCorrect, anyIncorrect := false, false
	for _, r := range group {
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

// refCompute counts the unstable groups.
func refCompute(records []*Record, topK bool) Summary {
	groups := refGroups(records)
	s := Summary{Groups: len(groups)}
	for _, g := range groups {
		if refUnstable(g, topK) {
			s.Unstable++
		}
	}
	return s
}

// refByClass counts top-1 instability separately per true class.
func refByClass(records []*Record) map[int]Summary {
	out := map[int]Summary{}
	for _, g := range refGroups(records) {
		s := out[g[0].TrueClass]
		s.Groups++
		if refUnstable(g, false) {
			s.Unstable++
		}
		out[g[0].TrueClass] = s
	}
	return out
}

// refByRuntime counts top-1 instability over each runtime's records alone.
func refByRuntime(records []*Record) map[string]Summary {
	byRuntime := map[string][]*Record{}
	for _, r := range records {
		byRuntime[r.RuntimeName()] = append(byRuntime[r.RuntimeName()], r)
	}
	out := map[string]Summary{}
	for rt, recs := range byRuntime {
		out[rt] = refCompute(recs, false)
	}
	return out
}

// refCrossRuntime counts, over (item, angle, env) cells seen by at least two
// runtimes, those whose correctness flips across runtimes while every
// runtime is internally consistent within the cell.
func refCrossRuntime(records []*Record) Summary {
	type cell struct {
		item, angle int
		env         string
	}
	cells := map[cell]map[string][2]int{} // runtime → (correct, incorrect)
	for _, r := range records {
		k := cell{r.ItemID, r.Angle, r.Env}
		if cells[k] == nil {
			cells[k] = map[string][2]int{}
		}
		t := cells[k][r.RuntimeName()]
		if r.Correct() {
			t[0]++
		} else {
			t[1]++
		}
		cells[k][r.RuntimeName()] = t
	}
	var s Summary
	for _, c := range cells {
		if len(c) < 2 {
			continue
		}
		s.Groups++
		anyCorrect, anyIncorrect, consistent := false, false, true
		for _, t := range c {
			anyCorrect = anyCorrect || t[0] > 0
			anyIncorrect = anyIncorrect || t[1] > 0
			consistent = consistent && (t[0] == 0 || t[1] == 0)
		}
		if anyCorrect && anyIncorrect && consistent {
			s.Unstable++
		}
	}
	return s
}

// refAccuracy is the accuracy over the records of one environment, or over
// all records when env is empty; topK selects top-k correctness.
func refAccuracy(records []*Record, env string, topK bool) float64 {
	total, correct := 0, 0
	for _, r := range records {
		if env != "" && r.Env != env {
			continue
		}
		total++
		ok := r.Correct()
		if topK {
			ok = r.CorrectTopK()
		}
		if ok {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// refEnvs returns the distinct environment names, sorted.
func refEnvs(records []*Record) []string {
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
