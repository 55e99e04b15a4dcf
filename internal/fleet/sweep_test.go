package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stability"
)

// TestRenderStatsCohortsDisagree hands renderStats an accumulator whose
// cohorts genuinely differ. The runner tests use an untrained model that no
// group is ever unstable under, so they cannot tell a right by_cohort split
// from a wrong one; this one can.
func TestRenderStatsCohortsDisagree(t *testing.T) {
	cfg := Config{Devices: 6, Items: 2, Angles: []int{0}, Seed: 1}.WithDefaults()
	cohorts := NewGenerator(cfg.Seed, cfg.Scale, 1).Cohorts()
	acc := stability.NewAccumulator()
	var views []deviceView
	// observe files device id's two records (items 1 and 2, classes 1 and
	// 2) and its view; ok1/ok2 say whether each item was classified right.
	observe := func(id int, ok1, ok2 bool) {
		cohort := cohorts[id%len(cohorts)]
		for item, ok := range map[int]bool{1: ok1, 2: ok2} {
			pred := item
			if !ok {
				pred = 0
			}
			acc.Add(&stability.Record{
				ItemID: item, TrueClass: item, Pred: pred, TopK: []int{pred},
				Env: fmt.Sprintf("%s/fleet-%05d", cohort, id), Runtime: "float32",
			})
		}
		views = append(views, deviceView{id: id, cohort: cohort, windows: []windowSlot{{ran: true, runtime: "float32"}}})
	}
	observe(0, true, true)   // cohort 0: item 1 flips inside the cohort
	observe(5, false, true)  // cohort 0 again (5 bases, round-robin)
	observe(1, true, false)  // cohort 1: one device, consistent with itself
	observe(2, false, false) // cohort 2: wrong throughout — stable
	// cohorts 3 and 4: no finished device.

	s := renderStats(cfg, 8, acc, views)
	if s.Top1 != (InstabilityStats{Groups: 2, Unstable: 2, Percent: 100}) {
		t.Fatalf("overall top1 = %+v, want both groups unstable", s.Top1)
	}
	want := map[string]CohortStats{
		cohorts[0]: {Devices: 2, Records: 4, Accuracy: 0.75, TopKAccuracy: 0.75, Top1: InstabilityStats{Groups: 2, Unstable: 1, Percent: 50}},
		cohorts[1]: {Devices: 1, Records: 2, Accuracy: 0.5, TopKAccuracy: 0.5, Top1: InstabilityStats{Groups: 2}},
		cohorts[2]: {Devices: 1, Records: 2, Top1: InstabilityStats{Groups: 2}},
		cohorts[3]: {},
		cohorts[4]: {},
	}
	if len(s.ByCohort) != len(cohorts) {
		t.Fatalf("by_cohort lists %d cohorts, want all %d", len(s.ByCohort), len(cohorts))
	}
	for i, got := range s.ByCohort {
		if i > 0 && s.ByCohort[i-1].Cohort >= got.Cohort {
			t.Fatalf("by_cohort not sorted: %q before %q", s.ByCohort[i-1].Cohort, got.Cohort)
		}
		w := want[got.Cohort]
		w.Cohort = got.Cohort
		if got != w {
			t.Errorf("cohort %s = %+v, want %+v", got.Cohort, got, w)
		}
	}
}

// TestOneShotIsWindowZeroOfTheSweep pins what making the one-shot run a
// 1-window sweep must not move: its windowed state holds window 0 alone, its
// shard state is the continuous one, and the "continuous fleet"
// instruments stay untouched while the shared ones still record.
func TestOneShotIsWindowZeroOfTheSweep(t *testing.T) {
	tele := NewTelemetry(obs.NewRegistry())
	r := NewRunner(Config{Devices: 5, Items: 1, Angles: []int{0, 2}, Seed: 13, Workers: 2}, testFactory())
	r.SetTelemetry(tele)
	r.Run()

	if a, w := tele.Active.Value(), tele.Windows.Value(); a != 0 || w != 0 {
		t.Fatalf("one-shot run moved fleet_active_devices=%v fleet_windows_total=%d, want 0 and 0", a, w)
	}
	for name, h := range map[string]*obs.Histogram{
		"queue-wait": tele.QueueWait, "sensor": tele.Sensor, "isp": tele.ISP, "codec": tele.Codec, "inference": tele.Inference,
	} {
		if h.Count() == 0 {
			t.Errorf("one-shot run recorded no %s observations", name)
		}
	}

	if wire := r.windowed.State(); len(wire.Windows) != 1 || wire.Windows[0].Window != 0 {
		t.Fatalf("the one-shot run's windowed state is not window 0 alone: %+v", wire.Windows)
	}
	// The shard state a run ships is the one-window ContinuousState.
	if data, err := r.MarshalState(); err != nil || !bytes.HasPrefix(data, []byte(`{"version":2,`)) || bytes.Contains(data, []byte(`"accumulator"`)) {
		t.Fatalf("run shard state is not a version 1 ContinuousState (err %v): %.80s", err, data)
	}

	// A continuous run of the same fleet does count its device-windows.
	c, err := NewContinuousRunner(ContinuousConfig{Fleet: r.Config(), Windows: 2}, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTelemetry(tele)
	c.Run()
	if a, w := tele.Active.Value(), tele.Windows.Value(); a != 0 || w != 10 {
		t.Fatalf("continuous run left fleet_active_devices=%v fleet_windows_total=%d, want 0 and 10", a, w)
	}
}

// rewindow moves the last entry of a shard state's windowed wire state to
// window w — a state no honest runner ships but a peer can spell.
func rewindow(st *ContinuousState, w int) {
	st.Windowed.Windows[len(st.Windowed.Windows)-1].Window = w
}

// TestMergedRejectsHostileShardState covers, for both kinds of sweep, shard
// states no honest runner produces but a peer's bytes can spell: a device
// outside the range its own state declares, a device listing one window
// twice (the later entry used to overwrite the earlier silently) or a window
// the sweep does not have, stability records filed under such a window (they
// used to be dropped from the snapshot while captures and devices still
// counted them), a capture count the listed device windows do not account
// for (it used to be added unchecked and printed in the stats), and two
// shards listing the same device.
func TestMergedRejectsHostileShardState(t *testing.T) {
	cfg := contTestConfig(2)
	cfg.Churn.JoinRate, cfg.Churn.LeaveRate = 0, 0
	for _, k := range shardKinds(cfg.Fleet, cfg) {
		outside := fmt.Sprintf("outside [0, %d)", k.windows)
		for _, tc := range []struct {
			name string
			// hostile edits the honest state of shard [2, 5) and may return
			// more states to merge beside it.
			hostile func(t *testing.T, st *ContinuousState) []*ContinuousState
			want    string // "" accepts
		}{
			{"honest", func(*testing.T, *ContinuousState) []*ContinuousState { return nil }, ""},
			{"window twice", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows = append(st.Devices[1].Windows, st.Devices[1].Windows[0])
				return nil
			}, "device 3 reports window 0 twice"},
			{"window past the last", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[k.windows-1].Window = k.windows
				return nil
			}, fmt.Sprintf("device 3 reports window %d %s", k.windows, outside)},
			{"windowed entry past the last window", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				rewindow(st, k.windows+5)
				return nil
			}, fmt.Sprintf("[2, 5) carries records of window %d %s", k.windows+5, outside)},
			{"id below range", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[0].ID = -4
				return nil
			}, "[2, 5) lists device -4"},
			{"id at range end", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[2].ID = 5
				return nil
			}, "[2, 5) lists device 5"},
			{"id past range", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[2].ID = 9
				return nil
			}, "[2, 5) lists device 9"},
			{"device twice in one state", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1] = st.Devices[0]
				return nil
			}, "[2, 5) lists device 2 out of ascending order"},
			{"devices out of order", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[0], st.Devices[1] = st.Devices[1], st.Devices[0]
				return nil
			}, "[2, 5) lists device 2 out of ascending order"},
			{"score mean of 1e308", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Score.Mean = 1e308
				return nil
			}, "device 3 window 0: score summary"},
			{"score mean of -1e308", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Score.Mean = -1e308
				return nil
			}, "device 3 window 0: score summary"},
			{"score above 1", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Score.Max = 1.5
				return nil
			}, "device 3 window 0: score summary"},
			{"min above max", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				w := &st.Devices[1].Windows[0]
				w.Score.Min, w.Score.Max = w.Score.Max, w.Score.Min/2
				return nil
			}, "device 3 window 0: score summary"},
			{"no samples", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Score.N = 0
				return nil
			}, "device 3 window 0: score summary"},
			{"sample count that overflows a sum", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Bytes.N = math.MaxInt
				return nil
			}, "device 3 window 0: capture size summary"},
			{"negative second moment", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Bytes.M2 = -1
				return nil
			}, "device 3 window 0: capture size summary"},
			{"second moment of 1e300", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Bytes.M2 = 1e300
				return nil
			}, "device 3 window 0: capture size summary"},
			{"capture of 1e300 bytes", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Devices[1].Windows[0].Bytes.Max = 1e300
				return nil
			}, "device 3 window 0: capture size summary"},
			{"negative capture count", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Captures = -7
				return nil
			}, "[2, 5) counts -7 captures"},
			{"capture count past its device windows", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				st.Captures += 8000
				return nil
			}, "captures, but its"},
			{"overlapping shards", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				_, other := k.run(t, 4, 6)
				return []*ContinuousState{other}
			}, "overlap at device 4"},
			{"same shard twice", func(t *testing.T, st *ContinuousState) []*ContinuousState {
				return []*ContinuousState{st}
			}, "overlap at device 2"},
		} {
			t.Run(k.name+" "+tc.name, func(t *testing.T) {
				_, st := k.run(t, 2, 5)
				_, err := k.merged(append([]*ContinuousState{st}, tc.hostile(t, st)...)...)
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("honest state rejected: %v", err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
				}
			})
		}
	}
}
