package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/lifecycle"
	"repro/internal/nn"
)

// testFleetSpec is a tiny continuous fleet with churn and one injected event
// of each upgrade kind — small enough to run in-process, rich enough to
// exercise every lifecycle axis through the HTTP surface.
var testFleetSpec = fleetapi.FleetSpec{
	RunSpec: fleetapi.RunSpec{Devices: 6, Items: 1, Angles: []int{0}, Seed: 3, Workers: 2},
	Windows: 3,
	Churn:   lifecycle.Churn{JoinRate: 0.3, LeaveRate: 0.2},
	Events: []lifecycle.Event{
		{Window: 1, Device: 0, Kind: lifecycle.KindOSUpgrade},
		{Window: 2, Device: 1, Kind: lifecycle.KindRuntimeUpgrade, Runtime: nn.RuntimeInt8},
	},
}

func TestV1FleetLifecycle(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()

	st, err := c.CreateFleet(ctx, testFleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || st.Devices != 6 || st.Windows != 3 || st.Trace == "" {
		t.Fatalf("created status %+v", st)
	}
	st, err = c.WaitFleet(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateDone || st.DevicesDone != 6 {
		t.Fatalf("final status %+v", st)
	}

	data, err := c.FleetReport(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep fleet.FleetReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 3 || rep.DevicesDone != 6 {
		t.Fatalf("report windows=%d devices=%d", len(rep.Windows), rep.DevicesDone)
	}
	if len(rep.Windows[1].Events) == 0 {
		t.Fatalf("window 1 lost its events: %+v", rep.Windows[1])
	}

	// The windows and drift documents are slices of the same report.
	wdata, err := c.FleetWindows(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var wdoc struct {
		Windows []fleet.WindowReport `json:"windows"`
	}
	if err := json.Unmarshal(wdata, &wdoc); err != nil {
		t.Fatal(err)
	}
	if len(wdoc.Windows) != 3 {
		t.Fatalf("windows doc has %d windows", len(wdoc.Windows))
	}
	ddata, err := c.FleetDrift(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var drift fleet.DriftReport
	if err := json.Unmarshal(ddata, &drift); err != nil {
		t.Fatal(err)
	}
	if len(drift.Rates) != 3 {
		t.Fatalf("drift rates %v", drift.Rates)
	}

	fleets, err := c.ListFleets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleets) != 1 || fleets[0].ID != 0 {
		t.Fatalf("list %+v", fleets)
	}

	// DELETE evicts the finished fleet.
	if err := c.DeleteFleet(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetFleet(ctx, st.ID); err == nil {
		t.Fatal("deleted fleet still served")
	} else if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusNotFound {
		t.Fatalf("deleted fleet error %v", err)
	}
}

// TestFleetCoordinatorByteIdentity is the acceptance property: a coordinator
// fanning the fleet across peers serves /report, /windows and /drift
// byte-identical to a single local instance running the same spec.
func TestFleetCoordinatorByteIdentity(t *testing.T) {
	ctx := context.Background()
	fetch := func(c *fleetapi.Client) (report, windows, drift []byte) {
		t.Helper()
		st, err := c.CreateFleet(ctx, testFleetSpec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.WaitFleet(ctx, st.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if st.State != fleetapi.StateDone {
			t.Fatalf("fleet state %+v", st)
		}
		if report, err = c.FleetReport(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if windows, err = c.FleetWindows(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if drift, err = c.FleetDrift(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		return report, windows, drift
	}

	_, local := v1Fixture(t, 4)
	wantRep, wantWin, wantDrift := fetch(local)

	coord := coordinatorFixture(t, 3)
	gotRep, gotWin, gotDrift := fetch(coord)
	if !bytes.Equal(gotRep, wantRep) {
		t.Errorf("coordinator report diverged:\n%s\nvs\n%s", gotRep, wantRep)
	}
	if !bytes.Equal(gotWin, wantWin) {
		t.Errorf("coordinator windows diverged:\n%s\nvs\n%s", gotWin, wantWin)
	}
	if !bytes.Equal(gotDrift, wantDrift) {
		t.Errorf("coordinator drift diverged:\n%s\nvs\n%s", gotDrift, wantDrift)
	}
}

func TestFleetErrors(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()

	// Invalid specs are 400s.
	bad := testFleetSpec
	bad.Runtime = "tpu"
	if _, err := c.CreateFleet(ctx, bad); err == nil {
		t.Fatal("bad runtime accepted")
	}
	bad = testFleetSpec
	bad.Churn.LeaveRate = 2
	if _, err := c.CreateFleet(ctx, bad); err == nil {
		t.Fatal("bad churn rate accepted")
	}
	bad = testFleetSpec
	bad.Events = []lifecycle.Event{{Window: 99, Device: 0, Kind: lifecycle.KindLeave}}
	if _, err := c.CreateFleet(ctx, bad); err == nil {
		t.Fatal("out-of-range event accepted")
	}

	// Artifacts of unknown fleets are 404s.
	if _, err := c.FleetDrift(ctx, 9); err == nil {
		t.Fatal("unknown fleet served drift")
	} else if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusNotFound {
		t.Fatalf("unknown fleet error %v", err)
	}

	// Fleets share the single admission slot with runs.
	big := testFleetSpec
	big.Devices, big.Windows, big.Workers = 100, 8, 1
	st, err := c.CreateFleet(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRun(ctx, testSpec); err == nil {
		t.Fatal("run accepted while fleet in flight")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusConflict {
		t.Fatalf("conflict error %+v", e)
	}
	// The artifact endpoints 409 while the fleet runs.
	if _, err := c.FleetReport(ctx, st.ID); err == nil {
		t.Fatal("in-flight fleet served a report")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusConflict {
		t.Fatalf("in-flight report error %+v", e)
	}
	// Cancel via DELETE; the fleet drains and reports cancelled, and its
	// partial artifacts are refused (they would not be deterministic).
	if err := c.DeleteFleet(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitFleet(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateCancelled || st.DevicesDone >= 100 {
		t.Fatalf("cancelled status %+v", st)
	}
	if _, err := c.FleetDrift(ctx, st.ID); err == nil {
		t.Fatal("cancelled fleet served drift")
	} else if e := err.(*fleetapi.Error); e.Code != fleetapi.CodeRunFailed {
		t.Fatalf("cancelled drift error %+v", e)
	}
}

func TestFleetShardEndpoint(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()
	spec := fleetapi.FleetSpec{
		RunSpec: fleetapi.RunSpec{Devices: 6, Items: 1, Angles: []int{1}, Seed: 11, Workers: 2},
		Windows: 2,
	}

	// Range edge cases are 4xx.
	for _, rng := range [][2]int{{0, 0}, {4, 4}, {5, 2}, {-1, 5}, {5, 7}} {
		_, err := c.RunFleetShard(ctx, fleetapi.FleetShardSpec{FleetSpec: spec, DeviceLo: rng[0], DeviceHi: rng[1]})
		if err == nil {
			t.Fatalf("fleet shard range %v accepted", rng)
		}
		if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusBadRequest {
			t.Fatalf("fleet shard range %v error %v", rng, err)
		}
	}

	// Two shards merged == the full run's report, byte for byte.
	cfg := spec.ContinuousConfig()
	fullRunner, err := fleet.NewContinuousRunner(cfg, testServer(1).factory)
	if err != nil {
		t.Fatal(err)
	}
	full := fullRunner.Run().JSON()
	var states []*fleet.ContinuousState
	for _, rng := range [][2]int{{0, 2}, {2, 6}} {
		st, err := c.RunFleetShard(ctx, fleetapi.FleetShardSpec{FleetSpec: spec, DeviceLo: rng[0], DeviceHi: rng[1]})
		if err != nil {
			t.Fatal(err)
		}
		if st.DeviceLo != rng[0] || st.DeviceHi != rng[1] {
			t.Fatalf("fleet shard state range %d..%d", st.DeviceLo, st.DeviceHi)
		}
		states = append(states, st)
	}
	merged, err := fleet.MergedFleetReport(cfg, states...)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.JSON(); !bytes.Equal(got, full) {
		t.Fatalf("merged fleet shard report diverged:\n%s\nvs\n%s", got, full)
	}
}

// TestFlipRateGaugeBlanksSurplusWindows: the flip-rate family describes the
// last completed fleet only — a 2-window fleet after a 4-window one must not
// leave windows 2 and 3 exporting the earlier fleet's rates.
func TestFlipRateGaugeBlanksSurplusWindows(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()
	for _, windows := range []int{4, 2} {
		spec := testFleetSpec
		spec.Windows, spec.Events = windows, nil
		st, err := c.CreateFleet(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.WaitFleet(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != fleetapi.StateDone {
			t.Fatalf("fleet of %d windows: %+v (%v)", windows, st, err)
		}
	}
	// The gauges are set after the outcome is recorded; poll the scrape.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		points := map[string]string{}
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, metricFleetFlipRate+`{window="`); ok {
				w, value, _ := strings.Cut(rest, `"} `)
				points[w] = value
			}
		}
		if len(points) == 4 && points["0"] != "NaN" && points["1"] != "NaN" && points["2"] == "NaN" && points["3"] == "NaN" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flip-rate points after a 4- then a 2-window fleet: %v", points)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
