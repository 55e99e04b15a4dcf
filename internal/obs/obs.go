// Package obs is the repo's zero-dependency observability substrate: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), Prometheus text exposition, a ring-buffered span tracer with
// deterministic IDs, and a small leveled logger. It exists because the
// paper's whole methodology is measurement at fleet scale — the serving and
// scheduling layers need latency distributions and lifecycle traces, and
// the capture hot path needs hooks cheap enough to leave on.
//
// Two design rules keep it compatible with the repo's determinism
// discipline:
//
//   - Histogram bucket counts and sums are exact integers, so snapshots
//     from N shards merged in any order equal single-process accumulation —
//     the same property fleet.ContinuousState has for stability accumulators.
//   - Telemetry only ever *reads* clocks; nothing in this package draws
//     from an RNG or touches the data it observes, so instrumented code
//     paths stay byte-identical to uninstrumented ones.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas panic (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float-valued metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metric kinds, also the exposition TYPE strings.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one (name, labels) time series in the registry.
type series struct {
	labels string // canonical rendered label pairs, "" for none
	metric any    // *Counter, *Gauge or *Histogram
}

// family is every series of one metric name, plus its kind and help text.
type family struct {
	kind   string
	help   string
	series []*series
	index  map[string]*series // labels → series
}

// Registry holds named metrics. Metric access is get-or-create: the first
// call for a (name, labels) pair creates the series, later calls return the
// same one, so call sites need no registration ceremony. Lookups take a
// mutex — hold the returned metric pointer on hot paths instead of
// re-resolving per event.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted family names, rebuilt on insert
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Describe sets a family's help text, rendered as the exposition # HELP
// line. Safe to call before or after the family's first series.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, "").help = help
}

// familyLocked returns the named family, creating it when kind is non-empty
// or it is referenced for the first time by Describe (kind filled in later).
func (r *Registry) familyLocked(name, kind string) *family {
	f := r.families[name]
	if f == nil {
		if !validName(name) {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
		f = &family{kind: kind, index: map[string]*series{}}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	} else if f.kind == "" {
		f.kind = kind
	} else if kind != "" && f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// seriesFor resolves (name, labels) to its series, creating it with make
// when absent. The canonical key is built in a stack buffer, so resolving a
// series that exists allocates nothing.
func (r *Registry) seriesFor(name, kind string, labels []string, make func() any) *series {
	var buf [256]byte
	key := appendCanonicalLabels(buf[:0], labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, kind)
	if s := f.index[string(key)]; s != nil {
		return s
	}
	canon := string(key)
	s := &series{labels: canon, metric: make()}
	f.index[canon] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return s
}

// Counter returns the counter named name with the given label pairs
// ("key", "value", ...), creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.seriesFor(name, kindCounter, labels, func() any { return &Counter{} }).metric.(*Counter)
}

// Gauge returns the gauge named name with the given label pairs, creating
// it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.seriesFor(name, kindGauge, labels, func() any { return &Gauge{} }).metric.(*Gauge)
}

// Histogram returns the histogram named name with the given integer bucket
// bounds and label pairs, creating it on first use. Every series of one
// family must share bounds and scale; mismatches panic.
func (r *Registry) Histogram(name string, bounds []int64, scale float64, labels ...string) *Histogram {
	s := r.seriesFor(name, kindHistogram, labels, func() any { return NewHistogram(bounds, scale) })
	h := s.metric.(*Histogram)
	if len(h.bounds) != len(bounds) || h.scale != scale {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	return h
}

// DurationHistogram returns a histogram of nanosecond durations under name
// with the default latency buckets, exposed in seconds.
func (r *Registry) DurationHistogram(name string, labels ...string) *Histogram {
	return r.Histogram(name, DurationBuckets(), 1e-9, labels...)
}

// appendCanonicalLabels appends the label pairs, sorted by key, in the
// exposition form `k1="v1",k2="v2"`. Pairs must be complete and keys valid
// names. The pairs are ordered by a stable insertion sort over their indices,
// in place on the stack for up to eight pairs.
func appendCanonicalLabels(b []byte, labels []string) []byte {
	if len(labels)%2 != 0 {
		panic("obs: odd label list")
	}
	var stack [8]int
	order := stack[:0]
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		order = append(order, i)
		j := len(order) - 1
		for ; j > 0 && labels[order[j-1]] > labels[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for n, i := range order {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, `="`...)
		b = appendLabelValue(b, labels[i+1])
		b = append(b, '"')
	}
	return b
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// appendLabelValue appends v with the exposition-format escapes.
func appendLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}
