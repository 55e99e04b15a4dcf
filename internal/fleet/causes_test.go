package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/imaging"
	"repro/internal/lab"
	"repro/internal/lifecycle"
	"repro/internal/nn"
	"repro/internal/stability"
	"repro/internal/train"
)

// causesConfig has three events in window 2 — an OS upgrade, a move to
// int8 and a runtime_upgrade to the runtime device 3 already runs — and a
// thermal event in window 3, each on a device of its own cohort.
func causesConfig(t *testing.T, workers int) ContinuousConfig {
	own := NewGenerator(47, 2, 0).Device(3).Profile.RuntimeName()
	if NewGenerator(47, 2, 0).Device(1).Profile.RuntimeName() == nn.RuntimeInt8 {
		t.Fatal("device 1 already runs int8; the test needs a move onto it")
	}
	return ContinuousConfig{
		Fleet:   Config{Devices: 5, Items: 20, Angles: []int{0, 2, 4}, Seed: 47, Workers: workers},
		Windows: 4,
		Events: []lifecycle.Event{
			{Window: 2, Device: 0, Kind: lifecycle.KindOSUpgrade},
			{Window: 2, Device: 1, Kind: lifecycle.KindRuntimeUpgrade, Runtime: nn.RuntimeInt8},
			{Window: 2, Device: 3, Kind: lifecycle.KindRuntimeUpgrade, Runtime: own},
			{Window: 3, Device: 2, Kind: lifecycle.KindThermalDrift, Severity: 0.9},
		},
	}
}

func baseModelFactory(t *testing.T) BackendFactory {
	t.Helper()
	m, err := lab.LoadBaseModel("../../bench/testdata/base.model")
	if err != nil {
		t.Fatal(err)
	}
	return BackendReplicator(lab.DefaultBaseModel().Arch, m)
}

// TestEventCausesByHand recomputes window 2's rows from two CaptureEpoch
// sweeps per event — the device before it and after it, built here from
// the device transitions — and stability.ComparePair.
func TestEventCausesByHand(t *testing.T) {
	factory := baseModelFactory(t)
	cfg := causesConfig(t, 2)
	rows, err := EventCauses(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}

	gen, eng := NewGenerator(cfg.Fleet.Seed, 2, 0), NewEngine(cfg.Fleet.Seed, 2, 0)
	items := Items(cfg.Fleet.Seed, cfg.Fleet.Items)
	outcomes := func(dev Device) map[stability.Cell]stability.Outcome {
		var images []*imaging.Image
		for _, it := range items {
			for _, a := range cfg.Fleet.Angles {
				img, _ := eng.CaptureEpoch(&dev, it, a, 2)
				images = append(images, img)
			}
		}
		preds, _, _ := train.EvaluateIn(new(nn.Scratch), factory(dev.Profile.RuntimeName()), images, 64)
		out := map[stability.Cell]stability.Outcome{}
		for i, it := range items {
			for j, a := range cfg.Fleet.Angles {
				o := stability.OutcomeIncorrect
				if preds[i*len(cfg.Fleet.Angles)+j] == int(it.Class) {
					o = stability.OutcomeCorrect
				}
				out[stability.Cell{ItemID: it.ID, Angle: a, Env: dev.Profile.Name}] = o
			}
		}
		return out
	}
	var want []EventCause
	for _, ev := range cfg.Events[:3] {
		pre := *gen.Device(ev.Device)
		post := pre
		if ev.Kind == lifecycle.KindOSUpgrade {
			post.Profile = device.UpgradeOS(pre.Profile)
		} else {
			post.Profile = device.UpgradeRuntime(pre.Profile, ev.Runtime)
		}
		p := stability.ComparePair(outcomes(pre), outcomes(post))
		want = append(want, EventCause{Window: 2, Cohort: pre.Cohort, Kind: ev.Kind,
			Replayed: p.Cells, Flips: p.Flips, Regressions: p.Regressions, Improvements: p.Improvements})
	}
	// Rows are ordered by cohort within a window.
	var got []EventCause
	flips := 0
	for _, r := range rows {
		if r.Window == 2 {
			got = append(got, r)
			flips += r.Flips
		}
	}
	byCohort := map[string]EventCause{}
	for _, w := range want {
		byCohort[w.Cohort] = w
	}
	if len(got) != len(want) {
		t.Fatalf("window 2 has %d rows, want %d:\n%+v\nwant %+v", len(got), len(want), got, want)
	}
	for _, g := range got {
		if w := byCohort[g.Cohort]; !reflect.DeepEqual(g, w) {
			t.Errorf("window 2, %s: got %+v, want %+v", g.Cohort, g, w)
		}
	}
	t.Logf("rows: %+v", rows)
	if flips == 0 {
		t.Error("no event in window 2 caused a flip; the comparison shows nothing")
	}
	if len(rows) != 4 || rows[3].Window != 3 || rows[3].Kind != lifecycle.KindThermalDrift || rows[3].Replayed != 60 {
		t.Errorf("want window 2's three rows, then window 3's thermal row of 60 cells; got %+v", rows)
	}
}

// TestEventCausesNoOpUpgrade: a runtime_upgrade to the runtime a device
// already runs replays its cells and flips none.
func TestEventCausesNoOpUpgrade(t *testing.T) {
	cfg := causesConfig(t, 2)
	cfg.Events = cfg.Events[2:3]
	rows, err := EventCauses(cfg, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Replayed != 60 || rows[0].Flips != 0 || rows[0].Regressions != 0 || rows[0].Improvements != 0 {
		t.Fatalf("a no-op runtime_upgrade: got %+v, want one row of 60 cells and no flip", rows)
	}
}

// TestEventCausesWorkerCountByteIdentical: the rows are the same bytes at 1
// and 4 workers, with churn absent devices and late joiners in the mix.
func TestEventCausesWorkerCountByteIdentical(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4} {
		cfg := causesConfig(t, workers)
		cfg.Churn = lifecycle.Churn{JoinRate: 0.3, LeaveRate: 0.3, OSUpgradeRate: 0.5, ThermalRate: 0.5}
		rows, err := EventCauses(cfg, testFactory())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 4 {
			t.Fatalf("workers=%d: %d rows; the churned run replays more events than that", workers, len(rows))
		}
		got, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: rows differ from one worker's:\n%s\nvs\n%s", workers, got, want)
		}
	}
}
