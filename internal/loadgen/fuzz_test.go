package loadgen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fleetapi"
)

// FuzzReadTrace drives the trace parser with mutants of an honest trace and
// of the garbage TestReadTraceRejectsGarbage feeds it. A refusal is an error
// and never a panic. An accepted trace, written back and read again, is the
// same header and the same events in the same order — what a replay and a
// recomputed report read — and reporting on it does not panic, whatever
// classes, statuses and latencies the bytes claimed.
func FuzzReadTrace(f *testing.F) {
	// TestTraceRoundTrip's trace, cut to a dozen events: a short seed mutates
	// faster and still holds served, rate-limited and queue-full outcomes.
	spec := testTraceSpec()
	events := syntheticEvents(f, spec)[:12]
	var trace bytes.Buffer
	if err := WriteTrace(&trace, Header{Workload: spec, Classes: fleetapi.DefaultSLOClasses(), StartUnixNanos: 12345}, events); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add(bytes.ReplaceAll(trace.Bytes(), []byte("\n"), []byte("\n\n")))
	f.Add([]byte{})
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"version":99}` + "\n"))
	f.Add([]byte(`{"version":1}` + "\n{broken\n"))
	f.Add([]byte(`{"version":1,"classes":[{"name":"x","target_ns":-1},{"name":"x"}],"workload":{"cohorts":null}}` + "\n" +
		`{"class":"x","status":200,"latency_ns":-9223372036854775808,"batch":-1}` + "\n" + `{"class":"x","status":200,"offset_ns":-5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		Report(h.Classes, events).JSON()

		var out bytes.Buffer
		if err := WriteTrace(&out, h, events); err != nil {
			t.Fatalf("an accepted trace does not write back: %v", err)
		}
		h2, events2, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("a trace written back does not read: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(h2, h) {
			t.Fatalf("header %+v came back as %+v", h, h2)
		}
		if !reflect.DeepEqual(events2, events) {
			t.Fatalf("%d events came back as %d, or changed:\n%s", len(events), len(events2), out.Bytes())
		}
	})
}
