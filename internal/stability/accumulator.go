package stability

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// Accumulator is the one implementation of the instability metric and of
// accuracy. It folds each Record into per-group, per-environment and
// per-runtime counters as it arrives, so a live fleet run can publish
// up-to-date summaries without retaining or re-scanning its record stream,
// and a table over a finished record slice is NewAccumulator(records...)
// read once through Snapshot.
//
// The accumulator is safe for concurrent Add and Snapshot, and its state is
// order-independent: any interleaving of the same multiset of records yields
// the same Snapshot, which is what makes sharded fleet runs reproducible
// regardless of worker count. Merge folds another accumulator's state in
// (merged shards equal one accumulator fed every record), and MarshalState /
// UnmarshalState move that state across processes for distributed shards.
type Accumulator struct {
	mu       sync.Mutex
	groups   map[GroupKey]*groupCounts
	envs     map[string]*envCounts
	runtimes map[string]*envCounts
	// cells backs the CrossRuntime attribution: per (item, angle, env),
	// which runtimes have been observed and whether each was ever correct /
	// incorrect there (two bits per runtime — ORed, so merging stays
	// order-independent). Distinct cells are bounded by the record stream's
	// own (scene × device) extent — the accumulator's dominant allocation at
	// multi-million-capture scale — so the per-runtime bits are packed:
	// runtime names are interned once per accumulator into lane indices
	// (laneOf/laneNames) and each cell is a single uint64 word holding two
	// bits per lane, instead of one small heap map per cell.
	cells map[cellKey]uint64
	// laneOf interns runtime names into cell-word lane indices; laneNames is
	// the inverse. Lanes are assigned in first-observation order, which is
	// why the wire format carries names, not indices: two shards of one
	// fleet may intern the same runtimes in different orders.
	laneOf    map[string]int
	laneNames []string
}

// cellKey identifies one device looking at one scene — the granularity at
// which a runtime flip is attributable to the runtime alone.
type cellKey struct {
	item, angle int
	env         string
}

// Cell observation bits, per lane of the packed cell word: lane i occupies
// word bits [2i, 2i+2).
const (
	cellCorrect   = 1
	cellIncorrect = 2
)

// maxCellLanes is how many distinct runtimes one accumulator's packed cell
// words can track (two bits per lane in a uint64). Three runtimes exist
// today; the limit is a wire-validation bound, not a sizing concern.
const maxCellLanes = 32

// laneMask selects every lane's cellCorrect bit; shifted left once it
// selects every cellIncorrect bit.
const laneMask = 0x5555555555555555

// lane interns a runtime name, reporting false once the lane space is
// exhausted. Callers on the Add path panic on false (runtime names come
// from nn.Runtimes(), so exhaustion is a programming error); the wire
// decoder returns an error instead. Callers must hold a.mu.
func (a *Accumulator) lane(rt string) (int, bool) {
	if i, ok := a.laneOf[rt]; ok {
		return i, true
	}
	i := len(a.laneNames)
	if i >= maxCellLanes {
		return 0, false
	}
	a.laneOf[rt] = i
	a.laneNames = append(a.laneNames, rt)
	return i, true
}

// mustLane is lane for the Add path.
func (a *Accumulator) mustLane(rt string) int {
	i, ok := a.lane(rt)
	if !ok {
		panic(fmt.Sprintf("stability: more than %d distinct runtimes", maxCellLanes))
	}
	return i
}

// groupCounts is the running correctness tally for one (item, angle) group,
// overall and split by inference runtime.
type groupCounts struct {
	class                int
	correct, incorrect   int // top-1
	correctK, incorrectK int // top-k
	byRuntime            map[string]*runtimeTally
}

// runtimeTally is one runtime's top-1 correctness inside one group.
type runtimeTally struct {
	correct, incorrect int
}

// envCounts is the running accuracy tally for one environment or runtime.
type envCounts struct {
	total, correct, correctK int
}

// NewAccumulator returns an accumulator holding the given records.
func NewAccumulator(records ...*Record) *Accumulator {
	a := &Accumulator{
		groups:   map[GroupKey]*groupCounts{},
		envs:     map[string]*envCounts{},
		runtimes: map[string]*envCounts{},
		cells:    map[cellKey]uint64{},
		laneOf:   map[string]int{},
	}
	a.AddAll(records)
	return a
}

// Add folds one record into the running summaries.
func (a *Accumulator) Add(r *Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := GroupKey{r.ItemID, r.Angle}
	g, ok := a.groups[k]
	if !ok {
		g = &groupCounts{class: r.TrueClass, byRuntime: map[string]*runtimeTally{}}
		a.groups[k] = g
	}
	if r.TrueClass != g.class {
		panic(fmt.Sprintf("stability: item %d has conflicting labels %d and %d", r.ItemID, g.class, r.TrueClass))
	}
	rt := r.RuntimeName()
	t, ok := g.byRuntime[rt]
	if !ok {
		t = &runtimeTally{}
		g.byRuntime[rt] = t
	}
	if r.Correct() {
		g.correct++
		t.correct++
	} else {
		g.incorrect++
		t.incorrect++
	}
	if r.CorrectTopK() {
		g.correctK++
	} else {
		g.incorrectK++
	}
	bump := func(m map[string]*envCounts, key string) {
		e, ok := m[key]
		if !ok {
			e = &envCounts{}
			m[key] = e
		}
		e.total++
		if r.Correct() {
			e.correct++
		}
		if r.CorrectTopK() {
			e.correctK++
		}
	}
	bump(a.envs, r.Env)
	bump(a.runtimes, rt)
	ck := cellKey{r.ItemID, r.Angle, r.Env}
	shift := 2 * a.mustLane(rt)
	if r.Correct() {
		a.cells[ck] |= cellCorrect << shift
	} else {
		a.cells[ck] |= cellIncorrect << shift
	}
}

// AddAll folds a batch of records.
func (a *Accumulator) AddAll(rs []*Record) {
	for _, r := range rs {
		a.Add(r)
	}
}

// Unstable reports the paper's top-1 predicate for one group: at least one
// of its records is correct and at least one is not. A group never added is
// not unstable.
func (a *Accumulator) Unstable(k GroupKey) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	g := a.groups[k]
	return g != nil && g.correct > 0 && g.incorrect > 0
}

// mergeMu serializes cross-accumulator lock acquisition in Merge: with only
// one goroutine ever holding two accumulator locks at a time, concurrent
// opposite-direction merges cannot deadlock. Merges are rare (shard
// boundaries, not record ingestion), so the global lock costs nothing.
var mergeMu sync.Mutex

// Merge folds another accumulator's state into this one: the result equals
// one accumulator fed both record streams, in any order. The other
// accumulator is only read. It panics, as Add does record by record, when
// the shards disagree on a group's true class or exhaust the lane space.
func (a *Accumulator) Merge(other *Accumulator) {
	if err := a.merge(other); err != nil {
		panic(err.Error())
	}
}

// merge is Merge with the Add-path contracts reported as an error instead of
// a panic — what mergeState needs, since its other side is built from
// peer bytes. Both contracts are checked under the locks before anything is
// written, so a rejected merge leaves a untouched.
func (a *Accumulator) merge(other *Accumulator) error {
	if a == other {
		panic("stability: Accumulator.Merge with itself")
	}
	mergeMu.Lock()
	defer mergeMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	for k, og := range other.groups {
		if g, ok := a.groups[k]; ok && g.class != og.class {
			return fmt.Errorf("stability: merge: item %d has conflicting labels %d and %d", k.ItemID, g.class, og.class)
		}
	}
	free := maxCellLanes - len(a.laneNames)
	for _, rt := range other.laneNames {
		if _, ok := a.laneOf[rt]; !ok {
			free--
		}
	}
	if free < 0 {
		return fmt.Errorf("stability: merge: more than %d distinct runtimes", maxCellLanes)
	}
	for k, og := range other.groups {
		g, ok := a.groups[k]
		if !ok {
			g = &groupCounts{class: og.class, byRuntime: map[string]*runtimeTally{}}
			a.groups[k] = g
		}
		g.correct += og.correct
		g.incorrect += og.incorrect
		g.correctK += og.correctK
		g.incorrectK += og.incorrectK
		for rt, ot := range og.byRuntime {
			t, ok := g.byRuntime[rt]
			if !ok {
				t = &runtimeTally{}
				g.byRuntime[rt] = t
			}
			t.correct += ot.correct
			t.incorrect += ot.incorrect
		}
	}
	mergeEnvs := func(dst, src map[string]*envCounts) {
		for name, oe := range src {
			e, ok := dst[name]
			if !ok {
				e = &envCounts{}
				dst[name] = e
			}
			e.total += oe.total
			e.correct += oe.correct
			e.correctK += oe.correctK
		}
	}
	mergeEnvs(a.envs, other.envs)
	mergeEnvs(a.runtimes, other.runtimes)
	// The two accumulators interned runtimes in their own observation
	// orders, so other's cell words are remapped lane-by-lane through a
	// shift table before ORing in.
	shift := make([]int, len(other.laneNames))
	for j, rt := range other.laneNames {
		shift[j] = 2 * a.mustLane(rt)
	}
	for ck, ow := range other.cells {
		var w uint64
		for j := range shift {
			w |= (ow >> (2 * j) & 3) << shift[j]
		}
		a.cells[ck] |= w
	}
	return nil
}

// EnvAccuracy is the accuracy pair for one environment.
type EnvAccuracy struct {
	Env          string  `json:"env"`
	Records      int     `json:"records"`
	Accuracy     float64 `json:"accuracy"`
	TopKAccuracy float64 `json:"topk_accuracy"`
}

// RuntimeAccuracy summarizes one inference runtime: its accuracy over all
// records it produced and its within-runtime instability (groups where this
// runtime alone both succeeded and failed — divergence the runtime cannot be
// blamed for, since the stack was held fixed).
type RuntimeAccuracy struct {
	Runtime      string  `json:"runtime"`
	Records      int     `json:"records"`
	Accuracy     float64 `json:"accuracy"`
	TopKAccuracy float64 `json:"topk_accuracy"`
	Top1         Summary `json:"top1"`
}

// AccumulatorSnapshot is a point-in-time summary of everything added so far.
// All slices are in deterministic (sorted) order so that two runs over the
// same records marshal to identical JSON.
type AccumulatorSnapshot struct {
	Records      int               `json:"records"`
	Top1         Summary           `json:"top1"`
	TopK         Summary           `json:"topk"`
	Accuracy     float64           `json:"accuracy"`
	TopKAccuracy float64           `json:"topk_accuracy"`
	ByEnv        []EnvAccuracy     `json:"by_env,omitempty"`
	ByClass      map[int]Summary   `json:"by_class,omitempty"`
	ByRuntime    []RuntimeAccuracy `json:"by_runtime,omitempty"`
	// CrossRuntime counts, over (item, angle, env) cells seen by ≥2
	// runtimes — the same device, same scene, different stacks — those
	// where correctness flips across runtimes while each runtime is
	// internally consistent. Device optics, noise, ISP and codec are all
	// held fixed inside a cell, so such a flip can only be explained by the
	// runtime axis. It is 0/0 in mixed fleets, where every device runs a
	// single runtime; it becomes meaningful when the same devices are swept
	// under forced runtimes and the states merged, as the runtime axis of an
	// experiment does (examples/specs/runtime.experiment.json).
	CrossRuntime Summary `json:"cross_runtime"`
}

// Snapshot summarizes the records added so far: top-1 and top-k
// instability over the (item, angle) groups, accuracy overall and per
// environment, instability per class, per-runtime accuracy and
// within-runtime instability, and the cross-runtime attribution.
func (a *Accumulator) Snapshot() AccumulatorSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := AccumulatorSnapshot{ByClass: map[int]Summary{}}
	s.Top1.Groups = len(a.groups)
	s.TopK.Groups = len(a.groups)
	runtimeGroups := map[string]*Summary{}
	for _, g := range a.groups {
		unstable := g.correct > 0 && g.incorrect > 0
		if unstable {
			s.Top1.Unstable++
		}
		if g.correctK > 0 && g.incorrectK > 0 {
			s.TopK.Unstable++
		}
		c := s.ByClass[g.class]
		c.Groups++
		if unstable {
			c.Unstable++
		}
		s.ByClass[g.class] = c
		for rt, t := range g.byRuntime {
			rs, ok := runtimeGroups[rt]
			if !ok {
				rs = &Summary{}
				runtimeGroups[rt] = rs
			}
			rs.Groups++
			if t.correct > 0 && t.incorrect > 0 {
				rs.Unstable++
			}
		}
	}

	for _, w := range a.cells {
		// observed has one bit set per lane with any observation; a cell
		// enters the denominator only when ≥2 runtimes saw it.
		observed := (w | w>>1) & laneMask
		if bits.OnesCount64(observed) < 2 {
			continue
		}
		s.CrossRuntime.Groups++
		anyCorrect := w&laneMask != 0
		anyIncorrect := w&(laneMask<<1) != 0
		// A lane with both bits set is a runtime that flipped on its own;
		// the cross-runtime attribution requires every runtime internally
		// consistent.
		consistent := w&(w>>1)&laneMask == 0
		if anyCorrect && anyIncorrect && consistent {
			s.CrossRuntime.Unstable++
		}
	}

	total, correct, correctK := 0, 0, 0
	envNames := make([]string, 0, len(a.envs))
	for e := range a.envs {
		envNames = append(envNames, e)
	}
	sort.Strings(envNames)
	for _, name := range envNames {
		e := a.envs[name]
		total += e.total
		correct += e.correct
		correctK += e.correctK
		s.ByEnv = append(s.ByEnv, EnvAccuracy{
			Env:          name,
			Records:      e.total,
			Accuracy:     ratio(e.correct, e.total),
			TopKAccuracy: ratio(e.correctK, e.total),
		})
	}
	s.Records = total
	s.Accuracy = ratio(correct, total)
	s.TopKAccuracy = ratio(correctK, total)

	runtimeNames := make([]string, 0, len(a.runtimes))
	for rt := range a.runtimes {
		runtimeNames = append(runtimeNames, rt)
	}
	sort.Strings(runtimeNames)
	for _, rt := range runtimeNames {
		e := a.runtimes[rt]
		ra := RuntimeAccuracy{
			Runtime:      rt,
			Records:      e.total,
			Accuracy:     ratio(e.correct, e.total),
			TopKAccuracy: ratio(e.correctK, e.total),
		}
		if rs := runtimeGroups[rt]; rs != nil {
			ra.Top1 = *rs
		}
		s.ByRuntime = append(s.ByRuntime, ra)
	}
	return s
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
