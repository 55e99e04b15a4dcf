package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "route", "/x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) resolves to the same series; different labels to
	// a different one.
	if reg.Counter("requests_total", "route", "/x") != c {
		t.Fatal("same-label counter not shared")
	}
	if reg.Counter("requests_total", "route", "/y") == c {
		t.Fatal("different-label counter shared")
	}
	// Label order is canonicalized.
	a := reg.Counter("multi_total", "a", "1", "b", "2")
	b := reg.Counter("multi_total", "b", "2", "a", "1")
	if a != b {
		t.Fatal("label order changed series identity")
	}

	g := reg.Gauge("in_flight")
	g.Set(2)
	g.Add(1.5)
	g.Add(-3)
	if got := g.Value(); got != 0.5 {
		t.Fatalf("gauge = %g, want 0.5", got)
	}
}

func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Mixed get-or-create and increment from all goroutines.
				reg.Counter("events_total", "kind", "a").Inc()
				reg.Gauge("level").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("events_total", "kind", "a").Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("level").Value(); got != workers*perWorker {
		t.Fatalf("gauge lost updates: %g, want %d", got, workers*perWorker)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind reuse did not panic")
		}
	}()
	reg.Gauge("x_total")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("invalid name %q accepted", bad)
				}
			}()
			reg.Counter(bad)
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "path", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing escaped label:\n%s", sb.String())
	}
}

// TestSeriesLookupAllocFree: resolving a series that exists — any label
// order, escapes included — allocates nothing, so a per-request counter
// lookup costs no garbage.
func TestSeriesLookupAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "route", "/v1/serve", "code", "200")
	h := reg.DurationHistogram("latency_seconds", "q", "a\"b\\c\nd")
	if avg := testing.AllocsPerRun(100, func() {
		if reg.Counter("requests_total", "code", "200", "route", "/v1/serve") != c ||
			reg.DurationHistogram("latency_seconds", "q", "a\"b\\c\nd") != h {
			t.Fatal("lookup resolved another series")
		}
	}); avg != 0 {
		t.Fatalf("series lookup allocates %.1f/op", avg)
	}
}
