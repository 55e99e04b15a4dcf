package obs

import (
	"bytes"
	"testing"
	"time"
)

func TestDeterministicIDs(t *testing.T) {
	if TraceID("run", 3, 7) != TraceID("run", 3, 7) {
		t.Fatal("TraceID not deterministic")
	}
	ids := map[string]bool{}
	for _, id := range []string{
		TraceID("run", 3, 7),
		TraceID("run", 4, 7),
		TraceID("run", 3, 8),
		TraceID("experiment", 3, 7),
	} {
		if len(id) != 16 {
			t.Fatalf("trace id %q not 16 hex chars", id)
		}
		ids[id] = true
	}
	if len(ids) != 4 {
		t.Fatalf("trace id collision: %v", ids)
	}

	tr := TraceID("run", 0, 3)
	if SpanID(tr, "run") != SpanID(tr, "run") {
		t.Fatal("SpanID not deterministic")
	}
	if SpanID(tr, "shard.dispatch", "0..3") == SpanID(tr, "shard.dispatch", "3..6") {
		t.Fatal("qualifier did not change span id")
	}
}

func TestTracerRecordAndFilter(t *testing.T) {
	tr := NewTracer(16)
	a, b := TraceID("run", 0, 1), TraceID("run", 1, 1)
	sp := tr.Start(a, "", "run")
	child := tr.Start(a, sp.SpanID(), "run.execute")
	child.SetAttr("devices", "20").End()
	sp.End()
	tr.Start(b, "", "run").End()

	spans := tr.Spans(a)
	if len(spans) != 2 {
		t.Fatalf("got %d spans for trace a, want 2", len(spans))
	}
	// Recording order: the child ends first.
	if spans[0].Name != "run.execute" || spans[1].Name != "run" {
		t.Fatalf("span order %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatal("child span does not parent onto root")
	}
	if spans[0].Attrs["devices"] != "20" {
		t.Fatalf("attrs %v", spans[0].Attrs)
	}
	if spans[0].End < spans[0].Start {
		t.Fatal("span ends before it starts")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	trace := TraceID("run", 0, 1)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Trace: trace, ID: SpanID(trace, "s", string(rune('a'+i))), Name: "s", Start: int64(i), End: int64(i)})
	}
	spans := tr.Spans(trace)
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	// Oldest-first within the ring: the survivors are records 6..9.
	for i, sp := range spans {
		if sp.Start != int64(6+i) {
			t.Fatalf("span %d has start %d, want %d", i, sp.Start, 6+i)
		}
	}
}

func TestNilTracerAndSpanNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("abc", "", "x")
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	sp.SetAttr("k", "v").End() // must not panic
	if sp.SpanID() != "" {
		t.Fatal("nil span has an id")
	}
	tr.Record(Span{})
	if tr.Spans("abc") != nil {
		t.Fatal("nil tracer returned spans")
	}
	// Empty trace id disables span creation on a live tracer too.
	if NewTracer(4).Start("", "", "x") != nil {
		t.Fatal("empty trace id created a span")
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	tr := NewTracer(0)
	trace := TraceID("run", 2, 9)
	sp := tr.Start(trace, "", "run").SetAttr("devices", "6")
	time.Sleep(time.Millisecond)
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf, trace); err != nil {
		t.Fatal(err)
	}
	spans, err := ParseNDJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "run" || spans[0].Trace != trace {
		t.Fatalf("round trip %+v", spans)
	}
	if spans[0].Duration() < time.Millisecond {
		t.Fatalf("duration %v too short", spans[0].Duration())
	}
	if _, err := ParseNDJSON([]byte("{not json}")); err == nil {
		t.Fatal("bad line accepted")
	}
}
