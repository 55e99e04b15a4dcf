// Churnsweep: a fleet that lives in time. This demo runs one continuous
// fleet through virtual-time windows with background join/leave churn, then
// injects the paper's §7 environment-drift scenario — an OS upgrade rolled
// out to one whole cohort at a chosen window, silently flipping that
// cohort's chroma upsampling path — and shows the windowed drift detector
// flagging the upgrade window from the flip-rate series alone, attributing
// the shift back to the lifecycle events that caused it.
//
// It then proves the property that makes such a report auditable: the whole
// report is a pure function of the spec — re-executing with a different
// worker count, or as device-range shards merged coordinator-style, yields
// byte-identical JSON.
//
// Run with:
//
//	go run ./examples/churnsweep [-devices 30] [-windows 8] [-upgrade-window 5]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"

	"repro/internal/fleet"
	"repro/internal/lab"
	"repro/internal/lifecycle"
	"repro/internal/stability"
)

func main() {
	devices := flag.Int("devices", 30, "fleet size")
	items := flag.Int("items", 2, "objects photographed per device per window")
	windows := flag.Int("windows", 8, "virtual-time windows")
	upgradeWindow := flag.Int("upgrade-window", 5, "window the cohort-wide OS upgrade lands at")
	seed := flag.Int64("seed", 42, "fleet seed")
	flag.Parse()
	log.SetFlags(0)

	log.Println("training base model...")
	mcfg := lab.BaseModelConfig{Seed: 7, TrainItems: 120, Epochs: 3, Width: 1}
	model, err := lab.LoadOrTrainBaseModel(mcfg, "", nil)
	if err != nil {
		log.Fatal(err)
	}
	factory := fleet.BackendReplicator(mcfg.Arch, model)

	// The upgrade cohort: devices are assigned to base phones round-robin,
	// so cohort membership is id mod len(cohorts). Upgrading every device of
	// one cohort at the same window is the fleet-operations event the drift
	// detector exists to catch.
	cohorts := fleet.NewGenerator(*seed, 0, 1).Cohorts()
	target := cohorts[0]
	var events []lifecycle.Event
	for id := 0; id < *devices; id += len(cohorts) {
		events = append(events, lifecycle.Event{Window: *upgradeWindow, Device: id, Kind: lifecycle.KindOSUpgrade})
	}

	cfg := fleet.ContinuousConfig{
		Fleet:   fleet.Config{Devices: *devices, Items: *items, Angles: []int{0, 3}, Seed: *seed},
		Windows: *windows,
		Churn:   lifecycle.Churn{JoinRate: 0.1, LeaveRate: 0.1},
		Events:  events,
		Drift:   stability.DriftConfig{Baseline: 3},
	}

	log.Printf("continuous fleet: %d devices, %d windows, OS upgrade of cohort %q at window %d",
		*devices, *windows, target, *upgradeWindow)
	runner, err := fleet.NewContinuousRunner(cfg, factory)
	if err != nil {
		log.Fatal(err)
	}
	rep := runner.Run()

	fmt.Printf("\n%-7s %-8s %-8s %-9s %-10s %s\n", "window", "devices", "records", "accuracy", "flip-rate", "events")
	for _, w := range rep.Windows {
		fmt.Printf("%-7d %-8d %-8d %-9.3f %-10.4f %d\n",
			w.Window, w.Devices, w.Records, w.Accuracy, rep.Drift.Rates[w.Window], len(w.Events))
	}

	fmt.Println("\ndrift flags (fleet-wide and per-cohort):")
	if len(rep.Drift.Flags) == 0 {
		fmt.Println("  none")
	}
	for _, f := range rep.Drift.Flags {
		scope := "fleet"
		if f.Cohort != "" {
			scope = "cohort " + f.Cohort
		}
		fmt.Printf("  window %d [%s]: flip-rate %.4f vs baseline mean %.4f (z=%.1f), attributed to %d event(s)",
			f.Window, scope, f.Value, f.Mean, f.Z, len(f.Events))
		if len(f.Events) > 0 {
			fmt.Printf(" — first: device %d %s at window %d", f.Events[0].Device, f.Events[0].Kind, f.Events[0].Window)
		}
		fmt.Println()
	}

	flagged := false
	for _, f := range rep.Drift.Flags {
		flagged = flagged || (f.Window == *upgradeWindow && f.Cohort == target)
	}
	if !flagged {
		log.Fatalf("FAIL: the cohort %q upgrade at window %d was not flagged", target, *upgradeWindow)
	}
	fmt.Printf("\nPASS: detector flagged the cohort %q OS upgrade at window %d\n", target, *upgradeWindow)

	// Determinism: the report is a pure function of the spec. Re-run with a
	// different worker count, and as two merged device-range shards.
	want := rep.JSON()
	altCfg := cfg
	altCfg.Fleet.Workers = 3
	alt, err := fleet.NewContinuousRunner(altCfg, factory)
	if err != nil {
		log.Fatal(err)
	}
	if got := alt.Run().JSON(); !bytes.Equal(got, want) {
		log.Fatal("FAIL: report changed with worker count")
	}
	var states []*fleet.ContinuousState
	for _, rng := range [][2]int{{0, *devices / 2}, {*devices / 2, *devices}} {
		shardCfg := cfg
		shardCfg.Fleet.DeviceLo, shardCfg.Fleet.DeviceHi = rng[0], rng[1]
		shard, err := fleet.NewContinuousRunner(shardCfg, factory)
		if err != nil {
			log.Fatal(err)
		}
		shard.Run()
		states = append(states, shard.State())
	}
	merged, err := fleet.MergedFleetReport(cfg, states...)
	if err != nil {
		log.Fatal(err)
	}
	if got := merged.JSON(); !bytes.Equal(got, want) {
		log.Fatal("FAIL: merged shard report differs from the single-process run")
	}
	fmt.Println("PASS: report byte-identical across worker counts and a 2-shard merge")
}
