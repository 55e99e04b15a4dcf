package loadgen

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/fleetd"
	"repro/internal/nn"
)

// liveServer embeds a fleetd instance with pinched admission: the "tight"
// class sheds under any real pressure, the "easy" class never does.
func liveServer(t *testing.T) (*httptest.Server, []fleetapi.SLOClass) {
	t.Helper()
	arch := func() *nn.Model {
		cfg := nn.DefaultConfig(int(dataset.NumClasses))
		cfg.Width = 0.4
		return nn.NewMobileNetV2Micro(rand.New(rand.NewSource(5)), cfg)
	}
	m := arch()
	classes := []fleetapi.SLOClass{
		{Name: "tight", TargetNanos: 10_000_000_000, RatePerSec: 5, Burst: 2, QueueDepth: 2},
		{Name: "easy", TargetNanos: 10_000_000_000, RatePerSec: 10_000, Burst: 1000, QueueDepth: 256},
	}
	s := fleetd.New(fleetd.Options{
		Factory: fleet.BackendReplicator(arch, m),
		Serve:   fleetd.ServeOptions{Classes: classes},
	})
	t.Cleanup(s.CancelRuns)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, classes
}

// TestRecordReplayLive is the end-to-end acceptance path: a seeded workload
// recorded against a live instance sheds its over-rate cohort with 429s
// while the in-SLO cohort is fully served; the trace replays with identical
// request schedule; and the recorded trace's report is byte-identical
// however many times it is recomputed.
func TestRecordReplayLive(t *testing.T) {
	ts, classes := liveServer(t)
	client := fleetapi.NewClient(ts.URL)
	spec := WorkloadSpec{Name: "live", Seed: 42, Cohorts: []Cohort{
		// ~300 req/s against a 5 req/s bucket: must shed.
		{Name: "hot", Class: "tight", RatePerSec: 300, Requests: 30, Devices: 4, Items: 4},
		// 40 req/s against a 10k req/s bucket: must all be served.
		{Name: "calm", Class: "easy", Dist: DistGamma, Shape: 3, RatePerSec: 40, Requests: 6, Devices: 4, Items: 4},
	}}

	h, events, err := Record(context.Background(), client, spec, classes, FireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 36 {
		t.Fatalf("%d events, want 36", len(events))
	}
	rep := Report(classes, events)
	var tight, easy fleetapi.SLOClassReport
	for _, row := range rep.Classes {
		switch row.Class {
		case "tight":
			tight = row
		case "easy":
			easy = row
		}
	}
	if tight.ShedRate+tight.ShedQueue == 0 {
		t.Fatalf("over-rate cohort shed nothing: %+v", tight)
	}
	if tight.Errors > 0 {
		t.Fatalf("over-rate cohort saw non-shed errors: %+v", tight)
	}
	if easy.Served != 6 || easy.ShedRate+easy.ShedQueue+easy.Errors != 0 {
		t.Fatalf("in-SLO cohort not fully served: %+v", easy)
	}
	if easy.Attainment != 1 {
		t.Fatalf("in-SLO cohort attainment %g with a 10s target", easy.Attainment)
	}

	// Trace round trip, then live replay: same schedule, fresh outcomes.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h, events); err != nil {
		t.Fatal(err)
	}
	h2, recorded, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, replayed := Replay(context.Background(), client, h2, recorded, FireOptions{})
	if !reflect.DeepEqual(ArrivalsFromEvents(replayed), ArrivalsFromEvents(recorded)) {
		t.Fatal("replay fired a different schedule than the recording")
	}

	// The recorded trace's report is stable byte for byte.
	first := Report(h2.Classes, recorded).JSON()
	for i := 0; i < 3; i++ {
		_, again, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := Report(h2.Classes, again).JSON(); !bytes.Equal(got, first) {
			t.Fatalf("report recomputation %d differs", i)
		}
	}
}

// TestFireLatencyFromDue: latency runs from the arrival's due instant, not
// from the send, so a request handed over 50 ms late reports at least 50 ms
// however fast the server answers it.
func TestFireLatencyFromDue(t *testing.T) {
	ts, _ := liveServer(t)
	client := fleetapi.NewClient(ts.URL)
	a := Arrival{Cohort: "late", Class: "easy", Device: 1, Item: 1, Items: 4}
	const late = 50 * time.Millisecond
	e := fireOne(context.Background(), client, 42, a, time.Now().Add(-late), time.Second)
	if e.Status != 200 {
		t.Fatalf("status %d (%s), want 200", e.Status, e.Code)
	}
	if e.LatencyNanos < late.Nanoseconds() {
		t.Fatalf("latency %v for a request due %v ago", time.Duration(e.LatencyNanos), late)
	}
}
