package obs

import (
	"bytes"
	"maps"
	"testing"
)

// FuzzParseNDJSON drives the trace-dump parser with mutants of an honest
// two-trace dump. A refusal is an error and never a panic; the spans of an
// accepted dump, recorded into a Tracer and written back trace by trace, must
// parse to the same spans — a dump survives being re-served by an instance
// that ingested it.
func FuzzParseNDJSON(f *testing.F) {
	tr := NewTracer(0)
	tr.Record(Span{Trace: "run-7", ID: SpanID("run-7", "run"), Name: "run", Start: 10, End: 90})
	tr.Record(Span{Trace: "fleet-2", ID: SpanID("fleet-2", "window", "0"), Name: "window", Start: 5, End: 6})
	tr.Record(Span{Trace: "run-7", ID: SpanID("run-7", "shard", "0-50"), Parent: SpanID("run-7", "run"), Name: "shard",
		Start: 20, End: 80, Attrs: map[string]string{"devices": "0-50", "peer": "http://127.0.0.1:1"}})
	var dump bytes.Buffer
	for _, trace := range []string{"run-7", "fleet-2"} {
		if err := tr.WriteNDJSON(&dump, trace); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(dump.Bytes())
	f.Add(bytes.ReplaceAll(dump.Bytes(), []byte("\n"), []byte("\r\n\r\n")))
	f.Add([]byte(`{"trace":"t","span":"s","name":"n","start_unix_ns":-9223372036854775808,"end_unix_ns":9223372036854775807,"attrs":{}}`))
	f.Add([]byte("{\"trace\":\"\xff\",\"attrs\":{\"k\":\"v\",\"k\":\"w\"}}\n{\"trace\":1}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ParseNDJSON(data)
		if err != nil {
			return
		}
		back := NewTracer(len(spans))
		var traces []string // in order of first appearance
		byTrace := map[string][]Span{}
		for _, sp := range spans {
			back.Record(sp)
			if _, seen := byTrace[sp.Trace]; !seen {
				traces = append(traces, sp.Trace)
			}
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
		for _, trace := range traces {
			var buf bytes.Buffer
			if err := back.WriteNDJSON(&buf, trace); err != nil {
				t.Fatalf("trace %q does not write back: %v", trace, err)
			}
			got, err := ParseNDJSON(buf.Bytes())
			if err != nil {
				t.Fatalf("trace %q written back does not parse: %v\n%s", trace, err, buf.Bytes())
			}
			want := byTrace[trace]
			if len(got) != len(want) {
				t.Fatalf("trace %q: %d spans recorded, %d parsed back", trace, len(want), len(got))
			}
			for i, sp := range got {
				w := want[i]
				same := sp.Trace == w.Trace && sp.ID == w.ID && sp.Parent == w.Parent && sp.Name == w.Name &&
					sp.Start == w.Start && sp.End == w.End && maps.Equal(sp.Attrs, w.Attrs) // an empty attrs object comes back absent
				if !same {
					t.Fatalf("trace %q span %d: %+v came back as %+v", trace, i, w, sp)
				}
			}
		}
	})
}
