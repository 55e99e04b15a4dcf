package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleetapi"
	"repro/internal/nn"
)

var testExpSpec = fleetapi.ExperimentSpec{
	Base: fleetapi.RunSpec{Devices: 6, Items: 1, Angles: []int{0}, Seed: 3, Workers: 2},
	Axes: fleetapi.SweepAxes{Runtime: []string{nn.RuntimeFloat32, nn.RuntimeInt8}},
}

func TestExperimentLifecycle(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()

	st, err := c.CreateExperiment(ctx, testExpSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || len(st.Arms) != 2 || st.Baseline != "runtime=float32" {
		t.Fatalf("created status %+v", st)
	}
	st, err = c.WaitExperiment(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateDone {
		t.Fatalf("final status %+v", st)
	}
	for i, arm := range st.Arms {
		if arm.State != fleetapi.StateDone || arm.DevicesDone != 6 || arm.Captures != 6 {
			t.Fatalf("arm %d %+v", i, arm)
		}
	}

	data, err := c.ExperimentReport(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep fleetapi.ExperimentReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 2 || rep.Baseline != "runtime=float32" {
		t.Fatalf("report %+v", rep)
	}
	if !rep.Arms[0].Baseline || rep.Arms[0].Paired != nil {
		t.Fatalf("baseline arm report %+v", rep.Arms[0])
	}
	arm := rep.Arms[1]
	if arm.Baseline || arm.Paired == nil {
		t.Fatalf("swept arm report %+v", arm)
	}
	// Every device saw every cell under both runtimes: the paired
	// denominator is the full capture matrix.
	if arm.Paired.Cells != 6 || arm.Paired.Flips != arm.Paired.Regressions+arm.Paired.Improvements {
		t.Fatalf("paired stats %+v", arm.Paired)
	}
	if len(rep.Agreement.Arms) != 2 || len(rep.Agreement.Rates) != 2 || len(rep.Agreement.Rates[0]) != 2 {
		t.Fatalf("agreement matrix %+v", rep.Agreement)
	}
	if rep.Agreement.Rates[0][0] != 1 || rep.Agreement.Rates[0][1] != rep.Agreement.Rates[1][0] {
		t.Fatalf("agreement values %+v", rep.Agreement.Rates)
	}

	// Listing and eviction.
	exps, err := c.ListExperiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || exps[0].ID != 0 {
		t.Fatalf("list %+v", exps)
	}
	if err := c.DeleteExperiment(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetExperiment(ctx, st.ID); err == nil {
		t.Fatal("deleted experiment still served")
	} else if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusNotFound {
		t.Fatalf("deleted experiment error %v", err)
	}
}

func TestExperimentErrors(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()

	// Validation failures are envelope 400s.
	bad := testExpSpec
	bad.Axes = fleetapi.SweepAxes{Runtime: []string{"tpu"}}
	if _, err := c.CreateExperiment(ctx, bad); err == nil {
		t.Fatal("bad axis accepted")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusBadRequest {
		t.Fatalf("bad axis error %+v", e)
	}
	if _, err := c.GetExperiment(ctx, 42); err == nil {
		t.Fatal("missing experiment served")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusNotFound {
		t.Fatalf("missing experiment error %+v", e)
	}
	if _, err := c.ExperimentReport(ctx, 42); err == nil {
		t.Fatal("missing experiment report served")
	}

	// A misspelled spec field must 400, not silently run a smaller sweep.
	resp, err := http.Post(c.BaseURL+"/v1/experiments", "application/json",
		strings.NewReader(`{"base":{"devices":4},"axis":{"runtime":["int8"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown spec field accepted: %d", resp.StatusCode)
	}
}

// TestExperimentAdmission: runs and experiments share one admission slot —
// neither may start while the other executes.
func TestExperimentAdmission(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()

	long := testExpSpec
	long.Base.Devices, long.Base.Workers = 300, 1
	est, err := c.CreateExperiment(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateExperiment(ctx, testExpSpec); err == nil {
		t.Fatal("concurrent experiment accepted")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusConflict {
		t.Fatalf("experiment conflict error %+v", e)
	}
	if _, err := c.CreateRun(ctx, testSpec); err == nil {
		t.Fatal("run accepted while experiment in flight")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusConflict {
		t.Fatalf("run conflict error %+v", e)
	}
	// Cancel and drain, then the slot frees up.
	if err := c.DeleteExperiment(ctx, est.ID); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	est, err = c.WaitExperiment(waitCtx, est.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if est.State != fleetapi.StateCancelled {
		t.Fatalf("cancelled experiment status %+v", est)
	}
	// A cancelled experiment has no report; the envelope says why.
	if _, err := c.ExperimentReport(ctx, est.ID); err == nil {
		t.Fatal("cancelled experiment served a report")
	} else if e := err.(*fleetapi.Error); e.Code != fleetapi.CodeRunFailed {
		t.Fatalf("cancelled report error %+v", e)
	}

	if _, err := c.CreateRun(ctx, testSpec); err != nil {
		t.Fatalf("run after experiment drained: %v", err)
	}
}

// TestExperimentCoordinatorByteIdentity is the acceptance property: a 2-arm
// runtime experiment run through a coordinator with 2 peer shards produces
// a report byte-identical to the same arms run unsharded in one process.
func TestExperimentCoordinatorByteIdentity(t *testing.T) {
	spec := fleetapi.ExperimentSpec{
		Base: fleetapi.RunSpec{Devices: 20, Items: 1, Angles: []int{0, 2}, Seed: 21, Workers: 2},
		Axes: fleetapi.SweepAxes{Runtime: []string{nn.RuntimeFloat32, nn.RuntimeInt8}},
	}
	ctx := context.Background()

	runReport := func(c *fleetapi.Client) []byte {
		t.Helper()
		st, err := c.CreateExperiment(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err = c.WaitExperiment(ctx, st.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != fleetapi.StateDone {
			t.Fatalf("experiment ended %s: %s", st.State, st.Error)
		}
		data, err := c.ExperimentReport(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	_, single := v1Fixture(t, 4)
	want := runReport(single)

	coord := coordinatorFixture(t, 2)
	cst, err := coord.CreateExperiment(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Shards != 2 {
		t.Fatalf("coordinator fan-out %d shards, want 2", cst.Shards)
	}
	if _, err := coord.WaitExperiment(ctx, cst.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, err := coord.ExperimentReport(ctx, cst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator report diverged from single process:\n%s\nvs\n%s", got, want)
	}
}

// TestExperimentArmsAreRunStats: each entry of /arms is byte for byte what
// /v1/runs/{id}/stats serves for that arm's spec, on a single instance and
// through a coordinator; and a format arm pairs with the native one on
// every cell, because the format swaps stages after the sensor draw.
func TestExperimentArmsAreRunStats(t *testing.T) {
	spec := fleetapi.ExperimentSpec{
		Base: fleetapi.RunSpec{Devices: 5, Items: 2, Angles: []int{0, 2}, Seed: 9, Workers: 2, Runtime: nn.RuntimeInt8},
		Axes: fleetapi.SweepAxes{Format: []string{"native", "JPEG:50", "raw:dng"}},
	}
	ctx := context.Background()
	_, single := v1Fixture(t, 8)
	arms := func(c *fleetapi.Client) (fleetapi.ExperimentStatus, []byte) {
		t.Helper()
		st, err := c.CreateExperiment(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.WaitExperiment(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != fleetapi.StateDone {
			t.Fatalf("experiment %+v: %v", st, err)
		}
		data, err := c.ExperimentArms(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st, data
	}
	st, data := arms(single)
	if _, sharded := arms(coordinatorFixture(t, 2)); !bytes.Equal(sharded, data) {
		t.Fatalf("coordinator arms diverged from single process:\n%s\nvs\n%s", sharded, data)
	}
	var entries []json.RawMessage
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(st.Arms) {
		t.Fatalf("%d arms entries for %d arms", len(entries), len(st.Arms))
	}
	for i, arm := range st.Arms {
		if want := []string{"format=native", "format=jpeg:50", "format=raw:dng"}[i]; arm.Name != want {
			t.Fatalf("arm %d named %q, want %q", i, arm.Name, want)
		}
		run, err := single.CreateRun(ctx, arm.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := single.WaitRun(ctx, run.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		stats, err := single.RunStats(ctx, run.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(entries[i], stats) {
			t.Errorf("arm %s: /arms entry\n%s\nis not its run's stats\n%s", arm.Name, entries[i], stats)
		}
	}

	data, err := single.ExperimentReport(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep fleetapi.ExperimentReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, arm := range rep.Arms[1:] {
		if arm.Paired.Cells != arm.Captures || arm.Captures != 5*2*2 {
			t.Errorf("arm %s pairs %d cells of %d captures, want all 20", arm.Name, arm.Paired.Cells, arm.Captures)
		}
	}
}

// TestCoordinatorProbeFailsFast: a dead peer fails the run during the
// pre-dispatch health probe — named, immediate, and with zero shards ever
// dispatched to the surviving peers.
func TestCoordinatorProbeFailsFast(t *testing.T) {
	var shardHits atomic.Int64
	good := testServer(4)
	goodTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			shardHits.Add(1)
		}
		good.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(goodTS.Close)

	// A listener that is already closed: connection refused, the way a
	// crashed peer looks.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	coord := testServer(4)
	coord.peers = []*fleetapi.Client{fleetapi.NewClient(goodTS.URL), fleetapi.NewClient(deadURL)}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	c := fleetapi.NewClient(ts.URL)

	ctx := context.Background()
	st, err := c.CreateRun(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitRun(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateFailed ||
		!strings.Contains(st.Error, deadURL) || !strings.Contains(st.Error, "health probe") {
		t.Fatalf("probe failure status %+v", st)
	}
	if n := shardHits.Load(); n != 0 {
		t.Fatalf("%d shards dispatched despite a failed probe", n)
	}

	// ProbePeers is the same check, exposed for startup.
	if err := coord.ProbePeers(ctx); err == nil || !strings.Contains(err.Error(), deadURL) {
		t.Fatalf("ProbePeers error %v", err)
	}
	healthy := testServer(4)
	healthy.peers = []*fleetapi.Client{fleetapi.NewClient(goodTS.URL)}
	if err := healthy.ProbePeers(ctx); err != nil {
		t.Fatalf("healthy probe failed: %v", err)
	}
}
