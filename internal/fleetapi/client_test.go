package fleetapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientDecodesErrorEnvelope: a non-2xx reply carrying the envelope
// surfaces as a typed *Error with the transport status attached.
func TestClientDecodesErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, Errorf(CodeConflict, "a fleet run or experiment is already in flight"))
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	_, err := c.CreateRun(context.Background(), RunSpec{})
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T: %v", err, err)
	}
	if apiErr.Status != http.StatusConflict || apiErr.Code != CodeConflict ||
		!strings.Contains(apiErr.Message, "in flight") {
		t.Fatalf("decoded %+v", apiErr)
	}
}

// TestClientNonEnvelopeError: a non-2xx reply whose body is not the
// envelope (a proxy page, a panic dump) still becomes a useful *Error
// carrying the raw body.
func TestClientNonEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("<html>bad gateway</html>"))
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	_, err := c.GetRun(context.Background(), 0)
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T: %v", err, err)
	}
	if apiErr.Status != http.StatusBadGateway || !strings.Contains(apiErr.Message, "bad gateway") {
		t.Fatalf("decoded %+v", apiErr)
	}
}

// TestClientMalformedBody: a 2xx reply with a malformed JSON body must
// error, not hand back a zero-valued status as if the server had said so.
func TestClientMalformedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id": 3, "state": "don`)) // truncated mid-value
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	if _, err := c.GetRun(context.Background(), 3); err == nil {
		t.Fatal("malformed body decoded without error")
	}
	if _, err := c.ListRuns(context.Background()); err == nil {
		t.Fatal("malformed list body decoded without error")
	}
}

// TestWaitRunContextCancellation: cancelling the context mid-wait unblocks
// WaitRun with the context's error even while the server keeps reporting
// the run as running.
func TestWaitRunContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, RunStatus{ID: 0, State: StateRunning})
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.WaitRun(ctx, 0, 5*time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("wait error %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitRun did not unblock on context cancellation")
	}
}

// TestWaitRunRetriesTransientFailures: 5xx replies between polls are
// transient (the run is still executing server-side) and must be retried;
// an authoritative 404 must abort the wait.
func TestWaitRunRetriesTransientFailures(t *testing.T) {
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) <= 2 {
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte("proxy hiccup"))
			return
		}
		WriteJSON(w, http.StatusOK, RunStatus{ID: 0, State: StateDone, DevicesDone: 4})
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	st, err := c.WaitRun(context.Background(), 0, time.Millisecond)
	if err != nil {
		t.Fatalf("wait through transient failures: %v", err)
	}
	if st.State != StateDone || polls.Load() < 3 {
		t.Fatalf("final %+v after %d polls", st, polls.Load())
	}

	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, Errorf(CodeNotFound, "run 9 not in history"))
	}))
	t.Cleanup(notFound.Close)
	_, err = NewClient(notFound.URL).WaitRun(context.Background(), 9, time.Millisecond)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("authoritative 404 wait error %v", err)
	}
}

// TestWaitRunContextDeadline: a context deadline shorter than the poll
// interval unblocks the wait with context.DeadlineExceeded — the wait never
// sleeps past its context, even between polls.
func TestWaitRunContextDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, RunStatus{ID: 0, State: StateRunning})
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.WaitRun(ctx, 0, 10*time.Second)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait error %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wait slept %v past its deadline (poll interval won over the context)", elapsed)
	}

	// Same for WaitExperiment, which shares the polling loop.
	expServer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, ExperimentStatus{ID: 0, State: StateRunning})
	}))
	t.Cleanup(expServer.Close)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	_, err = NewClient(expServer.URL).WaitExperiment(ctx2, 0, 10*time.Second)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("experiment wait error %v, want context.DeadlineExceeded", err)
	}
}

// TestDefaultTimeoutAgainstSilentPeer: a peer that accepts the request and
// never answers fails a short call after the client's default timeout — with
// no deadline in the context — while WaitRun takes the same silence for one
// dropped poll and carries on until the peer answers, and a shard call, which
// stays open for as long as the shard runs, is bounded by its context alone.
func TestDefaultTimeoutAgainstSilentPeer(t *testing.T) {
	defer func(d time.Duration) { boundedClient.Timeout = d }(boundedClient.Timeout)
	boundedClient.Timeout = 40 * time.Millisecond

	release := make(chan struct{})
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/runs/0" && polls.Add(1) > 2 {
			WriteJSON(w, http.StatusOK, RunStatus{ID: 0, State: StateDone})
			return
		}
		select { // never answers while the test runs
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })
	c := NewClient(ts.URL)

	start := time.Now()
	_, err := c.Healthz(context.Background())
	var netErr interface{ Timeout() bool }
	if !errors.As(err, &netErr) || !netErr.Timeout() {
		t.Fatalf("Healthz against a silent peer: %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Healthz took %v to give up", elapsed)
	}

	st, err := c.WaitRun(context.Background(), 0, time.Millisecond)
	if err != nil || st.State != StateDone || polls.Load() < 3 {
		t.Fatalf("WaitRun through two silent polls: %+v, %v after %d polls", st, err, polls.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = c.RunShard(ctx, ShardSpec{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunShard against a silent peer: %v, want its context's deadline", err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("RunShard gave up after %v: the short calls' timeout cut a shard call", elapsed)
	}
}
