package stability

// PartitionSummary is one partition's share of an accumulator: the record
// count, accuracies and within-partition top-1 instability that a separate
// accumulator fed only the partition's records would snapshot.
type PartitionSummary struct {
	Records      int
	Accuracy     float64
	TopKAccuracy float64
	Top1         Summary
}

// ByPartition splits the accumulator's summary by a partition of its
// environments — part names the partition an Env belongs to, e.g. the
// base-phone cohort of a fleet device — without keeping one accumulator per
// partition. Counts are sums of the per-env counters; a group was ever
// correct (or incorrect) inside a partition exactly when one of the
// partition's (item, angle, env) cells was, in any runtime, so the
// within-partition outcome is the OR of those cells' bits. Both are exact,
// not estimates: every field equals the Snapshot of an accumulator fed the
// partition's records alone, after any Merge order or wire round trip.
func (a *Accumulator) ByPartition(part func(env string) string) map[string]PartitionSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	type tally struct {
		total, correct, correctK int
		groups                   map[GroupKey]uint64 // cellCorrect|cellIncorrect, ORed over the partition's cells
	}
	tallies := map[string]*tally{}
	of := func(env string) *tally {
		name := part(env)
		t := tallies[name]
		if t == nil {
			t = &tally{groups: map[GroupKey]uint64{}}
			tallies[name] = t
		}
		return t
	}
	for env, e := range a.envs {
		t := of(env)
		t.total += e.total
		t.correct += e.correct
		t.correctK += e.correctK
	}
	for ck, w := range a.cells {
		var seen uint64
		if w&laneMask != 0 {
			seen |= cellCorrect
		}
		if w&(laneMask<<1) != 0 {
			seen |= cellIncorrect
		}
		of(ck.env).groups[GroupKey{ck.item, ck.angle}] |= seen
	}
	out := make(map[string]PartitionSummary, len(tallies))
	for name, t := range tallies {
		s := PartitionSummary{
			Records:      t.total,
			Accuracy:     ratio(t.correct, t.total),
			TopKAccuracy: ratio(t.correctK, t.total),
			Top1:         Summary{Groups: len(t.groups)},
		}
		for _, seen := range t.groups {
			if seen == cellCorrect|cellIncorrect {
				s.Top1.Unstable++
			}
		}
		out[name] = s
	}
	return out
}
