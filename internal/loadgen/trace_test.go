package loadgen

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fleetapi"
)

// syntheticEvents pairs a schedule with deterministic fake outcomes — trace
// and report tests need outcomes but not a live server.
func syntheticEvents(t testing.TB, spec WorkloadSpec) []Event {
	t.Helper()
	arrivals, err := Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	events := make([]Event, len(arrivals))
	for i, a := range arrivals {
		e := scheduleHalf(a)
		switch rng.Intn(5) {
		case 0:
			e.Status, e.Code = 429, fleetapi.CodeRateLimited
		case 1:
			e.Status, e.Code = 429, fleetapi.CodeQueueFull
		default:
			e.Status = 200
			e.LatencyNanos = int64(rng.Intn(400_000_000)) + 1
			e.QueueNanos = e.LatencyNanos / 10
			e.Pred = rng.Intn(8)
		}
		events[i] = e
	}
	return events
}

func testTraceSpec() WorkloadSpec {
	return WorkloadSpec{Name: "tracetest", Seed: 21, Cohorts: []Cohort{
		{Name: "fg", Class: "interactive", RatePerSec: 400, Requests: 60},
		{Name: "bg", Class: "batch", Dist: DistWeibull, Shape: 0.8, RatePerSec: 150, Requests: 40},
	}}
}

// TestTraceRoundTrip: write → read recovers the header, every event, and
// the exact schedule — the property live replay depends on.
func TestTraceRoundTrip(t *testing.T) {
	spec := testTraceSpec()
	events := syntheticEvents(t, spec)
	h := Header{Workload: spec, Classes: fleetapi.DefaultSLOClasses(), StartUnixNanos: 12345}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, h, events); err != nil {
		t.Fatal(err)
	}
	h2, events2, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2.Workload, spec) || h2.Version != TraceVersion {
		t.Fatalf("header round-trip: %+v", h2)
	}
	if !reflect.DeepEqual(events2, events) {
		t.Fatal("events did not round-trip")
	}

	// The recovered schedule is exactly the spec's expansion: replaying a
	// trace re-fires the same requests at the same offsets.
	want, err := Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := ArrivalsFromEvents(events2); !reflect.DeepEqual(got, want) {
		t.Fatal("trace schedule differs from the spec's expansion")
	}
}

// TestTraceReportByteIdentical is the determinism acceptance property: the
// report of a recorded trace is a pure function of its bytes — re-reading
// and re-reporting any number of times, or writing and reading the trace
// again, yields byte-identical report JSON. (Worker counts and wall clocks
// never enter: the report reads only recorded events.)
func TestTraceReportByteIdentical(t *testing.T) {
	spec := testTraceSpec()
	events := syntheticEvents(t, spec)
	classes := fleetapi.DefaultSLOClasses()
	h := Header{Workload: spec, Classes: classes}

	var first []byte
	trace := &bytes.Buffer{}
	if err := WriteTrace(trace, h, events); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		h2, ev2, err := ReadTrace(bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rep := Report(h2.Classes, ev2).JSON()
		if first == nil {
			first = rep
		} else if !bytes.Equal(rep, first) {
			t.Fatalf("round %d report differs:\n%s\nvs\n%s", round, rep, first)
		}
		// Re-serialize from the parsed form: the trace itself is also
		// byte-stable through a round trip.
		rewritten := &bytes.Buffer{}
		if err := WriteTrace(rewritten, h2, ev2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten.Bytes(), trace.Bytes()) {
			t.Fatalf("round %d trace bytes differ after round trip", round)
		}
		trace = rewritten
	}

	// Shuffled event order must not change the report: canonical sorting
	// erases completion-order nondeterminism.
	shuffled := append([]Event(nil), events...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	out := &bytes.Buffer{}
	if err := WriteTrace(out, h, shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), trace.Bytes()) {
		t.Fatal("shuffled events produced different trace bytes")
	}
}

// TestReportAccounting: the report's counters split exactly by outcome and
// attainment counts only served requests within target.
func TestReportAccounting(t *testing.T) {
	classes := []fleetapi.SLOClass{
		{Name: "x", TargetNanos: 100, RatePerSec: 1, Burst: 1, QueueDepth: 1},
	}
	events := []Event{
		{Class: "x", Status: 200, LatencyNanos: 50, QueueNanos: 5},
		{Class: "x", Status: 200, LatencyNanos: 100, QueueNanos: 10}, // on target: attains
		{Class: "x", Status: 200, LatencyNanos: 101, QueueNanos: 20}, // misses
		{Class: "x", Status: 429, Code: fleetapi.CodeRateLimited},
		{Class: "x", Status: 429, Code: fleetapi.CodeQueueFull},
		{Class: "x", Status: 0, Code: CodeTransport},
		{Class: "other", Status: 200, LatencyNanos: 1}, // not in any class row
	}
	rep := Report(classes, events)
	row := rep.Classes[0]
	if row.Requests != 6 || row.Served != 3 || row.ShedRate != 1 || row.ShedQueue != 1 || row.Errors != 1 {
		t.Fatalf("accounting %+v", row)
	}
	if want := 2.0 / 3.0; row.Attainment != want {
		t.Fatalf("attainment %g, want %g", row.Attainment, want)
	}
	if row.LatencyNanos.P50 != 100 || row.LatencyNanos.P99 != 101 {
		t.Fatalf("latency quantiles %+v", row.LatencyNanos)
	}
	if row.QueueWaitNanos.P50 != 10 {
		t.Fatalf("queue-wait quantiles %+v", row.QueueWaitNanos)
	}
}

// TestReadTraceRejectsGarbage: version skew and malformed lines fail
// loudly, not as silently empty reports.
func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty trace accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader([]byte("not json\n"))); err == nil {
		t.Error("garbage header accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader([]byte(`{"version":99}` + "\n"))); err == nil {
		t.Error("future version accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader([]byte(`{"version":1}` + "\n{broken\n"))); err == nil {
		t.Error("malformed event accepted")
	}
}
