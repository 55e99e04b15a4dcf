package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/fleetapi"
)

// TraceVersion is the trace format version stamped into every header.
const TraceVersion = 1

// Header is the first NDJSON line of a trace: the workload that produced it
// and the SLO classes its report is judged against. Everything the report
// needs rides in the trace, so a trace file is self-contained.
type Header struct {
	Version  int                 `json:"version"`
	Workload WorkloadSpec        `json:"workload"`
	Classes  []fleetapi.SLOClass `json:"classes"`
	// StartUnixNanos records when the workload fired, for humans correlating
	// a trace with server logs. It is ignored by replay and the report.
	StartUnixNanos int64 `json:"start_unix_ns,omitempty"`
}

// Event is one NDJSON trace line: the scheduled arrival plus its observed
// outcome. The schedule half (through Runtime) is deterministic in the spec;
// the outcome half records what the server did to it.
type Event struct {
	Cohort      string `json:"cohort"`
	Class       string `json:"class"`
	Seq         int    `json:"seq"`
	OffsetNanos int64  `json:"offset_ns"`
	Device      int    `json:"device"`
	Item        int    `json:"item"`
	Angle       int    `json:"angle"`
	Items       int    `json:"items"`
	Scale       int    `json:"scale,omitempty"`
	Runtime     string `json:"runtime,omitempty"`
	// Status is the HTTP status (0 = transport failure); Code the envelope
	// error code on non-2xx replies.
	Status int    `json:"status"`
	Code   string `json:"code,omitempty"`
	// LatencyNanos is the client-observed request latency, from the
	// arrival's due instant to the reply; QueueNanos the server-reported
	// queue wait; Pred the prediction; Batch how many requests the one
	// computation of the request's cell answered — all zero for sheds and
	// failures. Batch is also 0 in traces recorded before batched serving.
	LatencyNanos int64 `json:"latency_ns,omitempty"`
	QueueNanos   int64 `json:"queue_ns,omitempty"`
	Pred         int   `json:"pred,omitempty"`
	Batch        int   `json:"batch,omitempty"`
}

// Served reports whether the request was accepted and answered.
func (e Event) Served() bool { return e.Status >= 200 && e.Status < 300 }

// arrival recovers the event's schedule half — what replay re-fires.
func (e Event) arrival() Arrival {
	return Arrival{
		Cohort:      e.Cohort,
		Class:       e.Class,
		Seq:         e.Seq,
		OffsetNanos: e.OffsetNanos,
		Device:      e.Device,
		Item:        e.Item,
		Angle:       e.Angle,
		Items:       e.Items,
		Scale:       e.Scale,
		Runtime:     e.Runtime,
	}
}

// ArrivalsFromEvents recovers the schedule a trace recorded, in schedule
// order — the input to a live replay. Identical to Schedule(header.Workload)
// for an untruncated trace.
func ArrivalsFromEvents(events []Event) []Arrival {
	out := make([]Arrival, len(events))
	for i, e := range events {
		out[i] = e.arrival()
	}
	return out
}

// SortEvents puts events into the canonical trace order: fire time, then
// cohort name, then sequence. The order is total and independent of
// completion order, so a trace's bytes — and everything derived from them —
// are reproducible across runs and worker counts.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].OffsetNanos != events[j].OffsetNanos {
			return events[i].OffsetNanos < events[j].OffsetNanos
		}
		if events[i].Cohort != events[j].Cohort {
			return events[i].Cohort < events[j].Cohort
		}
		return events[i].Seq < events[j].Seq
	})
}

// WriteTrace writes the header and events as NDJSON in canonical order.
func WriteTrace(w io.Writer, h Header, events []Event) error {
	h.Version = TraceVersion
	sorted := append([]Event(nil), events...)
	SortEvents(sorted)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("write trace header: %w", err)
	}
	for i := range sorted {
		if err := enc.Encode(sorted[i]); err != nil {
			return fmt.Errorf("write trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses an NDJSON trace: one header line, then events. Events are
// re-sorted into canonical order, so a hand-edited or concatenated trace
// still reports deterministically.
func ReadTrace(r io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Header{}, nil, err
		}
		return Header{}, nil, fmt.Errorf("empty trace")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Header{}, nil, fmt.Errorf("bad trace header: %w", err)
	}
	if h.Version != TraceVersion {
		return Header{}, nil, fmt.Errorf("trace version %d, want %d", h.Version, TraceVersion)
	}
	var events []Event
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return Header{}, nil, fmt.Errorf("bad trace event at line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, err
	}
	SortEvents(events)
	return h, events, nil
}
