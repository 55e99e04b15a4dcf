package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one completed operation inside a trace. Start/End are wall-clock
// Unix nanoseconds (real time, not deterministic); the IDs are — they
// derive from stable inputs (run ID, seed, span name), so the same run
// replayed yields the same trace topology and a shard's spans recorded in
// another process join the coordinator's under the same trace ID without
// any coordination.
type Span struct {
	Trace  string            `json:"trace"`
	ID     string            `json:"span"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_unix_ns"`
	End    int64             `json:"end_unix_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps completed spans in a fixed-capacity ring: recording never
// blocks on consumers and memory is bounded no matter how many runs a
// long-lived instance serves; old traces simply age out. The ring is grown
// as spans arrive, so an instance that has recorded few holds few. A nil
// *Tracer is valid and drops everything, so instrumented code never branches.
type Tracer struct {
	mu       sync.Mutex
	ring     []Span // grows to capacity, then wraps
	capacity int
	next     int // ring write cursor once full: the oldest span
}

// NewTracer returns a tracer remembering the last capacity spans (0 →
// 4096).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{capacity: capacity}
}

// Record stores one completed span.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.next = (t.next + 1) % t.capacity
	}
	t.mu.Unlock()
}

// Spans returns the remembered spans of one trace in recording order.
func (t *Tracer) Spans(trace string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Oldest-first: the ring's logical start is t.next, 0 until it is full.
	var out []Span
	for i := range t.ring {
		sp := t.ring[(t.next+i)%len(t.ring)]
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out
}

// WriteNDJSON writes one trace's spans as newline-delimited JSON.
func (t *Tracer) WriteNDJSON(w io.Writer, trace string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range t.Spans(trace) {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseNDJSON decodes spans written by WriteNDJSON (blank lines skipped).
func ParseNDJSON(data []byte) ([]Span, error) {
	var out []Span
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var sp Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			return nil, fmt.Errorf("obs: bad span line: %w", err)
		}
		out = append(out, sp)
	}
	return out, nil
}

// Active is an in-flight span started by Tracer.Start. A nil *Active
// no-ops, so call sites don't guard on tracing being enabled.
type Active struct {
	t  *Tracer
	sp Span
	t0 time.Time
}

// Start opens a span. The span ID is deterministic in (trace, name,
// qualifiers): give concurrent same-named spans distinct qualifiers (e.g. a
// shard's device range) so their IDs don't collide. Returns nil — a no-op
// span — when the tracer is nil or trace is empty.
func (t *Tracer) Start(trace, parent, name string, qualifiers ...string) *Active {
	if t == nil || trace == "" {
		return nil
	}
	now := time.Now()
	return &Active{
		t:  t,
		t0: now,
		sp: Span{
			Trace:  trace,
			ID:     SpanID(trace, name, qualifiers...),
			Parent: parent,
			Name:   name,
			Start:  now.UnixNano(),
		},
	}
}

// SetAttr attaches a key/value to the span; returns the span for chaining.
func (a *Active) SetAttr(k, v string) *Active {
	if a == nil {
		return nil
	}
	if a.sp.Attrs == nil {
		a.sp.Attrs = map[string]string{}
	}
	a.sp.Attrs[k] = v
	return a
}

// SpanID returns the active span's ID ("" for a no-op span) so children
// can parent onto it.
func (a *Active) SpanID() string {
	if a == nil {
		return ""
	}
	return a.sp.ID
}

// End records the completed span.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.sp.End = a.sp.Start + time.Since(a.t0).Nanoseconds()
	a.t.Record(a.sp)
}

// TraceID derives the deterministic trace ID for a resource: kind
// namespaces the ID space ("run", "experiment"), id and seed pin the
// resource. 16 hex digits.
func TraceID(kind string, id int, seed int64) string {
	h := fnv1a(kind)
	h = fnvMix(h, uint64(id))
	h = fnvMix(h, uint64(seed))
	return fmt.Sprintf("%016x", finalize(h))
}

// SpanID derives the deterministic span ID for a named span of a trace.
func SpanID(trace, name string, qualifiers ...string) string {
	h := fnv1a(trace)
	h = fnv1aFrom(h, name)
	for _, q := range qualifiers {
		h = fnv1aFrom(h, "/"+q)
	}
	return fmt.Sprintf("%016x", finalize(h))
}

// fnv1a / fnv1aFrom are FNV-1a 64 over strings; fnvMix folds in a raw
// integer; finalize is the splitmix64 finalizer for avalanche (bare FNV of
// short inputs clusters in the low bits).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(s string) uint64 { return fnv1aFrom(fnvOffset, s) }

func fnv1aFrom(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
