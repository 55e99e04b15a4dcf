package loadgen

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/fleetapi"
)

// FireOptions tunes the open-loop firing engine.
type FireOptions struct {
	// Timeout bounds each request (default 10s). A timed-out request is
	// recorded as a transport failure, not retried — open-loop load never
	// re-offers work.
	Timeout time.Duration
}

// CodeTransport marks events whose request never got an HTTP reply
// (connection failure or client-side timeout).
const CodeTransport = "transport"

// Fire executes a schedule open-loop against a fleetd instance: each arrival
// fires at start+Offset on its own goroutine, never waiting on an earlier
// response — a slow or shedding server changes outcomes, not the offered
// load. Latency runs from that due instant, so a generator that falls behind
// its schedule is charged for its own lateness. Returns one event per
// arrival in canonical order. A cancelled context stops the remaining
// schedule; unfired arrivals are recorded with the context's code so the
// trace still carries the whole schedule.
func Fire(ctx context.Context, client *fleetapi.Client, seed int64, arrivals []Arrival, opts FireOptions) []Event {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	events := make([]Event, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	cancelled := false
	for i := range arrivals {
		a := arrivals[i]
		if !cancelled {
			if wait := time.Duration(a.OffsetNanos) - time.Since(start); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					cancelled = true
				}
			} else if ctx.Err() != nil {
				cancelled = true
			}
		}
		if cancelled {
			e := scheduleHalf(a)
			e.Code = "cancelled"
			events[i] = e
			continue
		}
		wg.Add(1)
		go func(i int, a Arrival) {
			defer wg.Done()
			events[i] = fireOne(ctx, client, seed, a, start.Add(time.Duration(a.OffsetNanos)), timeout)
		}(i, a)
	}
	wg.Wait()
	SortEvents(events)
	return events
}

// scheduleHalf seeds an event with the arrival's deterministic fields.
func scheduleHalf(a Arrival) Event {
	return Event{
		Cohort:      a.Cohort,
		Class:       a.Class,
		Seq:         a.Seq,
		OffsetNanos: a.OffsetNanos,
		Device:      a.Device,
		Item:        a.Item,
		Angle:       a.Angle,
		Items:       a.Items,
		Scale:       a.Scale,
		Runtime:     a.Runtime,
	}
}

// fireOne sends one request that was due at the given instant and records
// its outcome, with latency measured from due rather than from the send.
func fireOne(ctx context.Context, client *fleetapi.Client, seed int64, a Arrival, due time.Time, timeout time.Duration) Event {
	e := scheduleHalf(a)
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := client.Serve(rctx, a.ServeRequest(seed))
	if err != nil {
		var apiErr *fleetapi.Error
		if errors.As(err, &apiErr) {
			e.Status, e.Code = apiErr.Status, apiErr.Code
		} else {
			e.Code = CodeTransport
		}
		return e
	}
	e.Status = 200
	e.LatencyNanos = time.Since(due).Nanoseconds()
	e.QueueNanos = resp.QueueNanos
	e.Pred = resp.Pred
	e.Batch = resp.BatchSize
	return e
}

// Record expands the spec and fires it, returning the self-contained trace
// (header + events). classes should be the server's admission classes so the
// trace's report judges what admission judged; nil selects the defaults.
func Record(ctx context.Context, client *fleetapi.Client, spec WorkloadSpec, classes []fleetapi.SLOClass, opts FireOptions) (Header, []Event, error) {
	if classes == nil {
		classes = fleetapi.DefaultSLOClasses()
	}
	arrivals, err := Schedule(spec)
	if err != nil {
		return Header{}, nil, err
	}
	h := Header{Version: TraceVersion, Workload: spec, Classes: classes, StartUnixNanos: time.Now().UnixNano()}
	events := Fire(ctx, client, spec.Seed, arrivals, opts)
	return h, events, nil
}

// Replay re-fires a recorded trace's schedule live: identical arrival
// offsets and cells, fresh outcomes. The returned header carries the
// original workload and classes with a new start stamp.
func Replay(ctx context.Context, client *fleetapi.Client, h Header, events []Event, opts FireOptions) (Header, []Event) {
	h.StartUnixNanos = time.Now().UnixNano()
	return h, Fire(ctx, client, h.Workload.Seed, ArrivalsFromEvents(events), opts)
}
