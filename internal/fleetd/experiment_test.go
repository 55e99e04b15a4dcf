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

	"repro/internal/fleet"
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

// TestModelArms: a model arm runs its fine-tune on every path. A base vs
// stable:two-images experiment serves the same report and /arms bytes on one
// instance and through a coordinator over two peers (each peer resolves the
// model for itself), and on /v1/runs, /v1/shards and /v1/fleets a spec
// naming stable:none measures something other than the same spec without
// it, so no path can run the base weights under a model's name.
func TestModelArms(t *testing.T) {
	ctx := context.Background()
	plain := fleetapi.RunSpec{Devices: 4, Items: 2, Angles: []int{1, 2}, Seed: 5, Workers: 2}
	spec := fleetapi.ExperimentSpec{Base: plain, Axes: fleetapi.SweepAxes{Model: []string{"base", "stable:two-images"}}}
	fetch := func(c *fleetapi.Client) (report, arms []byte) {
		t.Helper()
		st, err := c.CreateExperiment(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.WaitExperiment(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != fleetapi.StateDone {
			t.Fatalf("experiment %+v: %v", st, err)
		}
		if report, err = c.ExperimentReport(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if arms, err = c.ExperimentArms(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		return report, arms
	}
	_, single := v1Fixture(t, 8)
	report, arms := fetch(single)
	if r, a := fetch(coordinatorFixture(t, 2)); !bytes.Equal(r, report) || !bytes.Equal(a, arms) {
		t.Fatalf("coordinator diverged from single process:\n%s\n%s\nvs\n%s\n%s", r, a, report, arms)
	}
	if !bytes.Contains(report, []byte(`"model=stable:two-images@0.1"`)) {
		t.Errorf("report names no canonical model arm:\n%s", report)
	}

	// measured is an artifact without its config, which names the model.
	measured := func(data []byte) string {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "config")
		b, _ := json.Marshal(m)
		return string(b)
	}
	tuned := plain
	tuned.Model = "stable:none"
	for path, get := range map[string]func(fleetapi.RunSpec) []byte{
		"/v1/runs": func(s fleetapi.RunSpec) []byte {
			st, err := single.CreateRun(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := single.WaitRun(ctx, st.ID, 5*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			data, err := single.RunStats(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			return data
		},
		"/v1/shards": func(s fleetapi.RunSpec) []byte {
			st, err := single.RunShard(ctx, fleetapi.ShardSpec{RunSpec: s, DeviceLo: 0, DeviceHi: s.Devices})
			if err != nil {
				t.Fatal(err)
			}
			stats, _, err := fleet.MergedRun(s.FleetConfig(), st)
			if err != nil {
				t.Fatal(err)
			}
			return stats.JSON()
		},
		"/v1/fleets": func(s fleetapi.RunSpec) []byte {
			st, err := single.CreateFleet(ctx, fleetapi.FleetSpec{RunSpec: s, Windows: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := single.WaitFleet(ctx, st.ID, 5*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			data, err := single.FleetReport(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			return data
		},
	} {
		if base, stable := measured(get(plain)), measured(get(tuned)); base == stable {
			t.Errorf("%s: model stable:none measured the base weights:\n%s", path, stable)
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

// TestAngleArmsPartitionRun: a cell's capture does not depend on the other
// angles of its run, so the angle arms split the all-angle run's cells
// exactly — their top-1 groups, unstable groups and per-class counts sum to
// the run's — and, sharing no cell, pair on none.
func TestAngleArmsPartitionRun(t *testing.T) {
	base := fleetapi.RunSpec{Devices: 5, Items: 4, Angles: []int{0, 1, 2, 3, 4}, Seed: 9, Workers: 2}
	spec := fleetapi.ExperimentSpec{Base: base, Axes: fleetapi.SweepAxes{Angle: []int{0, 1, 2, 3, 4}}}
	ctx := context.Background()
	_, c := v1Fixture(t, 8)
	exp, err := c.CreateExperiment(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if exp, err = c.WaitExperiment(ctx, exp.ID, 5*time.Millisecond); err != nil || exp.State != fleetapi.StateDone {
		t.Fatalf("experiment %+v: %v", exp, err)
	}
	run, err := c.CreateRun(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitRun(ctx, run.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var whole fleet.Stats
	var arms []fleet.Stats
	var rep fleetapi.ExperimentReport
	for _, doc := range []struct {
		fetch func(context.Context, int) ([]byte, error)
		id    int
		into  any
	}{{c.RunStats, run.ID, &whole}, {c.ExperimentArms, exp.ID, &arms}, {c.ExperimentReport, exp.ID, &rep}} {
		data, err := doc.fetch(ctx, doc.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, doc.into); err != nil {
			t.Fatal(err)
		}
	}

	var sum fleet.InstabilityStats
	records := 0
	byClass := make([]fleet.InstabilityStats, len(whole.ByClass))
	for i, arm := range arms {
		if got := arm.Config.Angles; len(got) != 1 || got[0] != i {
			t.Fatalf("arm %d photographs angles %v", i, got)
		}
		sum.Groups += arm.Top1.Groups
		sum.Unstable += arm.Top1.Unstable
		records += arm.Records
		for k, cl := range arm.ByClass {
			byClass[k].Groups += cl.Top1.Groups
			byClass[k].Unstable += cl.Top1.Unstable
		}
	}
	if sum.Groups != whole.Top1.Groups || sum.Unstable != whole.Top1.Unstable || records != whole.Records {
		t.Errorf("angle arms sum to %d/%d unstable over %d records, the run has %d/%d over %d",
			sum.Unstable, sum.Groups, records, whole.Top1.Unstable, whole.Top1.Groups, whole.Records)
	}
	for k, cl := range whole.ByClass {
		if byClass[k].Groups != cl.Top1.Groups || byClass[k].Unstable != cl.Top1.Unstable {
			t.Errorf("class %d: angle arms sum to %d/%d, the run has %d/%d", cl.Class, byClass[k].Unstable, byClass[k].Groups, cl.Top1.Unstable, cl.Top1.Groups)
		}
	}
	for i, arm := range rep.Arms[1:] {
		if arm.Paired.Cells != 0 || arm.Paired.Agreement != 0 || rep.Agreement.Rates[0][i+1] != 0 {
			t.Errorf("arm %s shares cells with angle 0: %+v", arm.Name, arm.Paired)
		}
	}
}
