package stability

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The wire format is the portable form of an Accumulator's internal state:
// one shard of a distributed fleet ships its counters, one wireState a
// window inside its WindowedState, and the coordinator merges them. It is
// deliberately plain JSON — small (counters, not records), deterministic
// (sorted keys), and diffable in flight recorders.

// wireState is the serialized accumulator.
type wireState struct {
	Version  int         `json:"version"`
	Groups   []wireGroup `json:"groups"`
	Envs     []wireCount `json:"envs"`
	Runtimes []wireCount `json:"runtimes"`
	Cells    []wireCell  `json:"cells,omitempty"`
}

// wireCell is one (item, angle, env) cell's per-runtime observation bits
// (bit 0: ever correct, bit 1: ever incorrect), the state behind the
// cross-runtime attribution. Bits is []int rather than []uint8 so the JSON
// stays a readable array instead of base64.
type wireCell struct {
	ItemID   int      `json:"item_id"`
	Angle    int      `json:"angle"`
	Env      string   `json:"env"`
	Runtimes []string `json:"runtimes"`
	Bits     []int    `json:"bits"`
}

// wireGroup is one (item, angle) group's counters.
type wireGroup struct {
	ItemID     int           `json:"item_id"`
	Angle      int           `json:"angle"`
	Class      int           `json:"class"`
	Correct    int           `json:"correct"`
	Incorrect  int           `json:"incorrect"`
	CorrectK   int           `json:"correct_topk"`
	IncorrectK int           `json:"incorrect_topk"`
	ByRuntime  []wireRuntime `json:"by_runtime,omitempty"`
}

// wireRuntime is one runtime's tally inside a group.
type wireRuntime struct {
	Runtime   string `json:"runtime"`
	Correct   int    `json:"correct"`
	Incorrect int    `json:"incorrect"`
}

// wireCount is one environment's (or runtime's) accuracy counters.
type wireCount struct {
	Name     string `json:"name"`
	Total    int    `json:"total"`
	Correct  int    `json:"correct"`
	CorrectK int    `json:"correct_topk"`
}

const wireVersion = 1

// MarshalState serializes the accumulator's counters. The bytes are
// deterministic: the same multiset of added records yields identical output
// regardless of insertion order or worker count.
func (a *Accumulator) MarshalState() ([]byte, error) { return json.Marshal(a.state()) }

// state is the accumulator's wire state, every list in its canonical order.
func (a *Accumulator) state() wireState {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := wireState{Version: wireVersion}

	keys := make([]GroupKey, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ItemID != keys[j].ItemID {
			return keys[i].ItemID < keys[j].ItemID
		}
		return keys[i].Angle < keys[j].Angle
	})
	for _, k := range keys {
		g := a.groups[k]
		wg := wireGroup{
			ItemID:     k.ItemID,
			Angle:      k.Angle,
			Class:      g.class,
			Correct:    g.correct,
			Incorrect:  g.incorrect,
			CorrectK:   g.correctK,
			IncorrectK: g.incorrectK,
		}
		rts := make([]string, 0, len(g.byRuntime))
		for rt := range g.byRuntime {
			rts = append(rts, rt)
		}
		sort.Strings(rts)
		for _, rt := range rts {
			t := g.byRuntime[rt]
			wg.ByRuntime = append(wg.ByRuntime, wireRuntime{Runtime: rt, Correct: t.correct, Incorrect: t.incorrect})
		}
		w.Groups = append(w.Groups, wg)
	}
	w.Envs = marshalCounts(a.envs)
	w.Runtimes = marshalCounts(a.runtimes)

	cellKeys := make([]cellKey, 0, len(a.cells))
	for ck := range a.cells {
		cellKeys = append(cellKeys, ck)
	}
	sort.Slice(cellKeys, func(i, j int) bool {
		a, b := cellKeys[i], cellKeys[j]
		if a.item != b.item {
			return a.item < b.item
		}
		if a.angle != b.angle {
			return a.angle < b.angle
		}
		return a.env < b.env
	})
	// Lanes were interned in observation order; the wire format lists each
	// cell's runtimes sorted by name, so walk lanes through one name-sorted
	// index built up front.
	laneOrder := make([]int, len(a.laneNames))
	for i := range laneOrder {
		laneOrder[i] = i
	}
	sort.Slice(laneOrder, func(i, j int) bool {
		return a.laneNames[laneOrder[i]] < a.laneNames[laneOrder[j]]
	})
	for _, ck := range cellKeys {
		word := a.cells[ck]
		wc := wireCell{ItemID: ck.item, Angle: ck.angle, Env: ck.env}
		for _, lane := range laneOrder {
			if bits := word >> (2 * lane) & 3; bits != 0 {
				wc.Runtimes = append(wc.Runtimes, a.laneNames[lane])
				wc.Bits = append(wc.Bits, int(bits))
			}
		}
		w.Cells = append(w.Cells, wc)
	}
	return w
}

func marshalCounts(m map[string]*envCounts) []wireCount {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]wireCount, 0, len(names))
	for _, n := range names {
		e := m[n]
		out = append(out, wireCount{Name: n, Total: e.total, Correct: e.correct, CorrectK: e.correctK})
	}
	return out
}

// UnmarshalState parses bytes produced by MarshalState and MERGES them into
// the accumulator (an empty accumulator ends up equal to the marshaled one;
// a non-empty one absorbs the shard, so a coordinator can fold shard states
// in directly without an intermediate).
func (a *Accumulator) UnmarshalState(data []byte) error {
	var w wireState
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("stability: accumulator state: %w", err)
	}
	return a.mergeState(&w)
}

// mergeState validates a decoded wire state and merges it into the
// accumulator, refusing what no honest accumulator marshals.
func (a *Accumulator) mergeState(w *wireState) error {
	if w.Version != wireVersion {
		return fmt.Errorf("stability: accumulator state version %d, want %d", w.Version, wireVersion)
	}
	shard := NewAccumulator()
	for _, wg := range w.Groups {
		if wg.Correct < 0 || wg.Incorrect < 0 || wg.CorrectK < 0 || wg.IncorrectK < 0 {
			return fmt.Errorf("stability: accumulator state: negative counts for item %d", wg.ItemID)
		}
		g := &groupCounts{
			class:      wg.Class,
			correct:    wg.Correct,
			incorrect:  wg.Incorrect,
			correctK:   wg.CorrectK,
			incorrectK: wg.IncorrectK,
			byRuntime:  map[string]*runtimeTally{},
		}
		for _, rt := range wg.ByRuntime {
			if _, dup := g.byRuntime[rt.Runtime]; dup {
				return fmt.Errorf("stability: accumulator state: duplicate runtime %q for item %d", rt.Runtime, wg.ItemID)
			}
			if rt.Correct < 0 || rt.Incorrect < 0 {
				return fmt.Errorf("stability: accumulator state: negative runtime counts for item %d", wg.ItemID)
			}
			g.byRuntime[rt.Runtime] = &runtimeTally{correct: rt.Correct, incorrect: rt.Incorrect}
		}
		k := GroupKey{wg.ItemID, wg.Angle}
		if _, dup := shard.groups[k]; dup {
			return fmt.Errorf("stability: accumulator state: duplicate group %+v", k)
		}
		shard.groups[k] = g
	}
	readCounts := func(what string, src []wireCount, dst map[string]*envCounts) error {
		for _, c := range src {
			if c.Total < 0 || c.Correct < 0 || c.CorrectK < 0 {
				return fmt.Errorf("stability: accumulator state: negative %s counts for %q", what, c.Name)
			}
			if _, dup := dst[c.Name]; dup {
				return fmt.Errorf("stability: accumulator state: duplicate %s %q", what, c.Name)
			}
			dst[c.Name] = &envCounts{total: c.Total, correct: c.Correct, correctK: c.CorrectK}
		}
		return nil
	}
	if err := readCounts("env", w.Envs, shard.envs); err != nil {
		return err
	}
	if err := readCounts("runtime", w.Runtimes, shard.runtimes); err != nil {
		return err
	}
	for _, wc := range w.Cells {
		if len(wc.Runtimes) != len(wc.Bits) {
			return fmt.Errorf("stability: accumulator state: cell %d/%d/%s runtimes and bits disagree", wc.ItemID, wc.Angle, wc.Env)
		}
		ck := cellKey{wc.ItemID, wc.Angle, wc.Env}
		if _, dup := shard.cells[ck]; dup {
			return fmt.Errorf("stability: accumulator state: duplicate cell %d/%d/%s", wc.ItemID, wc.Angle, wc.Env)
		}
		var word uint64
		for i, rt := range wc.Runtimes {
			lane, ok := shard.lane(rt)
			if !ok {
				return fmt.Errorf("stability: accumulator state: more than %d distinct cell runtimes", maxCellLanes)
			}
			if word>>(2*lane)&3 != 0 {
				return fmt.Errorf("stability: accumulator state: duplicate runtime %q in cell %d/%d/%s", rt, wc.ItemID, wc.Angle, wc.Env)
			}
			if wc.Bits[i] < 1 || wc.Bits[i] > cellCorrect|cellIncorrect {
				return fmt.Errorf("stability: accumulator state: bad cell bits %d", wc.Bits[i])
			}
			word |= uint64(wc.Bits[i]) << (2 * lane)
		}
		shard.cells[ck] = word
	}
	// Merge panics on a class conflict or an exhausted lane space (the
	// Add-path contracts); a decoder of peer bytes must return an error.
	if err := a.merge(shard); err != nil {
		return fmt.Errorf("stability: accumulator state: %w", err)
	}
	return nil
}
