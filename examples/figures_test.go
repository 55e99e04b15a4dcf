package examples

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/imaging"
	"repro/internal/lifecycle"
	"repro/internal/stability"
	"repro/internal/train"
)

// readJSON decodes one file of the examples tree.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestAngleArmsPartitionEndToEnd: Figure 3(c) splits Figure 3(b) exactly.
// angles.experiment's arms are endtoend.run's cells one angle at a time, so
// their top-1 groups and unstable groups, overall and per class, sum to the
// run's in the goldens both were written from.
func TestAngleArmsPartitionEndToEnd(t *testing.T) {
	var run fleet.Stats
	var arms []fleet.Stats
	readJSON(t, filepath.Join("testdata", "endtoend.run.golden"), &run)
	readJSON(t, filepath.Join("testdata", "angles.experiment.arms.golden"), &arms)
	if len(arms) != len(run.Config.Angles) {
		t.Fatalf("%d angle arms for the run's %d angles", len(arms), len(run.Config.Angles))
	}
	var sum fleet.InstabilityStats
	byClass := make([]fleet.InstabilityStats, len(run.ByClass))
	for _, arm := range arms {
		sum.Groups += arm.Top1.Groups
		sum.Unstable += arm.Top1.Unstable
		for k, cl := range arm.ByClass {
			byClass[k].Groups += cl.Top1.Groups
			byClass[k].Unstable += cl.Top1.Unstable
		}
	}
	if sum.Groups != run.Top1.Groups || sum.Unstable != run.Top1.Unstable {
		t.Errorf("angle arms: %d/%d unstable, endtoend.run: %d/%d", sum.Unstable, sum.Groups, run.Top1.Unstable, run.Top1.Groups)
	}
	for k, cl := range run.ByClass {
		if byClass[k].Groups != cl.Top1.Groups || byClass[k].Unstable != cl.Top1.Unstable {
			t.Errorf("class %d: angle arms %d/%d unstable, endtoend.run %d/%d", cl.Class, byClass[k].Unstable, byClass[k].Groups, cl.Top1.Unstable, cl.Top1.Groups)
		}
	}
}

// TestRepeatsFlipRateIsWithinPhoneInstability: Figure 3(d) is
// repeats.fleet's per-cohort drift series. With one device a cohort, the
// cohort's rates[1] is the share of cells whose correctness flips between
// windows 0 and 1 — the top-1 instability of two shots of the same cells,
// replayed here by hand with Engine.CaptureEpoch at epochs 0 and 1 and
// classified on the committed model.
func TestRepeatsFlipRateIsWithinPhoneInstability(t *testing.T) {
	if testing.Short() {
		t.Skip("classifies on the committed model")
	}
	var spec fleetapi.FleetSpec
	readJSON(t, filepath.Join("specs", "repeats.fleet.json"), &spec)
	var drift fleet.DriftReport
	readJSON(t, filepath.Join("testdata", "repeats.fleet.drift.golden"), &drift)
	cfg := spec.ContinuousConfig().WithDefaults().Fleet
	if cfg.Devices != len(drift.Cohorts) || cfg.Runtime == "" {
		t.Fatalf("repeats.fleet runs %d devices on runtime %q, want one a cohort on one runtime", cfg.Devices, cfg.Runtime)
	}

	d := fleet.NewGenerator(cfg.Seed, cfg.Scale, 0).Device(0)
	engine := fleet.NewEngine(cfg.Seed, cfg.Scale, 0)
	backend := loadModel(t)(cfg.Runtime)
	items := fleet.Items(cfg.Seed, cfg.Items)
	var records []*stability.Record
	for epoch := 0; epoch < 2; epoch++ {
		var shots []*imaging.Image
		for _, it := range items {
			for _, a := range cfg.Angles {
				img, _ := engine.CaptureEpoch(d, it, a, epoch)
				shots = append(shots, img)
			}
		}
		preds, _, _ := train.Evaluate(backend, shots, cfg.BatchSize)
		for i, pred := range preds {
			it, a := items[i/len(cfg.Angles)], cfg.Angles[i%len(cfg.Angles)]
			records = append(records, &stability.Record{ItemID: it.ID, Angle: a, TrueClass: int(it.Class), Env: fmt.Sprintf("shot-%d", epoch), Pred: pred})
		}
	}
	within := stability.NewAccumulator(records...).Snapshot().Top1.Rate()
	for _, c := range drift.Cohorts {
		if c.Cohort == d.Cohort {
			if c.Rates[1] != within {
				t.Errorf("%s: drift rates[1] = %v, two replayed shots' instability = %v", c.Cohort, c.Rates[1], within)
			}
			return
		}
	}
	t.Fatalf("drift golden has no %s cohort", d.Cohort)
}

// TestChurnFlagsTheOSUpgrade: §7 as a mid-run event. churn.fleet upgrades
// the OS of every device of one cohort at one window, under background
// join/leave churn; the drift golden must flag that cohort at or after the
// upgrade window, attribute every one of the upgrade events to the flag, and
// flag the cohort at no earlier window.
func TestChurnFlagsTheOSUpgrade(t *testing.T) {
	var spec fleetapi.FleetSpec
	readJSON(t, filepath.Join("specs", "churn.fleet.json"), &spec)
	var drift fleet.DriftReport
	readJSON(t, filepath.Join("testdata", "churn.fleet.drift.golden"), &drift)
	cfg := spec.ContinuousConfig().WithDefaults()

	gen := fleet.NewGenerator(cfg.Fleet.Seed, cfg.Fleet.Scale, 0)
	var upgrades []lifecycle.Event
	cohort, window := "", 0
	for _, e := range cfg.Events {
		if e.Kind != lifecycle.KindOSUpgrade {
			continue
		}
		c := gen.Device(e.Device).Cohort
		if len(upgrades) > 0 && (c != cohort || e.Window != window) {
			t.Fatalf("churn.fleet's upgrades span cohorts %s and %s or windows %d and %d", cohort, c, window, e.Window)
		}
		cohort, window = c, e.Window
		upgrades = append(upgrades, e)
	}
	if len(upgrades) == 0 {
		t.Fatal("churn.fleet upgrades no OS")
	}

	flagged := false
	for _, f := range drift.Flags {
		if f.Cohort != cohort {
			continue
		}
		if f.Window < window {
			t.Errorf("%s flagged at window %d, before its upgrade at window %d", cohort, f.Window, window)
			continue
		}
		attributed := 0
		for _, e := range f.Events {
			if slices.Contains(upgrades, e) {
				attributed++
			}
		}
		flagged = flagged || attributed == len(upgrades)
	}
	if !flagged {
		t.Errorf("no flag of %s at or after window %d carries its %d OS upgrades: %+v", cohort, window, len(upgrades), drift.Flags)
	}
}
