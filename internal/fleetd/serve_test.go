package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/nn"
)

// serveTestServer is testServer with a custom serving configuration — serve
// tests pinch rates and queues to force admission decisions deterministically.
func serveTestServer(opts ServeOptions) *Server {
	return serveTestServerWith(opts, func(f fleet.BackendFactory) fleet.BackendFactory { return f })
}

// serveTestServerWith is serveTestServer with the backend factory wrapped.
func serveTestServerWith(opts ServeOptions, wrap func(fleet.BackendFactory) fleet.BackendFactory) *Server {
	arch := func() *nn.Model {
		cfg := nn.DefaultConfig(int(dataset.NumClasses))
		cfg.Width = 0.4
		return nn.NewMobileNetV2Micro(rand.New(rand.NewSource(5)), cfg)
	}
	m := arch()
	return New(Options{Factory: wrap(fleet.BackendReplicator(arch, m)), ModelParams: m.NumParams(), Serve: opts})
}

func postServe(t *testing.T, ts *httptest.Server, req fleetapi.ServeRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/serve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeRoundTrip: one served request returns a prediction addressed by
// the deterministic cell coordinates, with stage timings that add up.
func TestServeRoundTrip(t *testing.T) {
	s := serveTestServer(ServeOptions{})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := fleetapi.NewClient(ts.URL)
	resp, err := c.Serve(context.Background(), fleetapi.ServeRequest{Device: 3, Item: 1, Angle: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != "interactive" {
		t.Fatalf("defaulted class %q, want first configured class", resp.Class)
	}
	if resp.Pred < 0 || resp.Pred >= int(dataset.NumClasses) {
		t.Fatalf("pred %d out of class range", resp.Pred)
	}
	if resp.Bytes <= 0 {
		t.Fatalf("compressed size %d", resp.Bytes)
	}
	if resp.Runtime == "" {
		t.Fatal("no runtime reported")
	}
	if resp.StageNanos.Sensor <= 0 || resp.StageNanos.ISP <= 0 || resp.StageNanos.Codec <= 0 || resp.StageNanos.Inference <= 0 {
		t.Fatalf("stage breakdown %+v has empty stages", resp.StageNanos)
	}
	if resp.TotalNanos < resp.StageNanos.Inference {
		t.Fatalf("total %d below inference time %d", resp.TotalNanos, resp.StageNanos.Inference)
	}

	// The same cell served twice is the same prediction: captures are
	// cell-seeded and the backend is deterministic.
	again, err := c.Serve(context.Background(), fleetapi.ServeRequest{Device: 3, Item: 1, Angle: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if again.Pred != resp.Pred || again.Score != resp.Score || again.Bytes != resp.Bytes {
		t.Fatalf("re-served cell differs: %+v vs %+v", again, resp)
	}
}

// TestServeValidation: malformed bodies and out-of-range cells are rejected
// with typed 400s before touching admission.
func TestServeValidation(t *testing.T) {
	s := serveTestServer(ServeOptions{})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown field": `{"devcie": 1}`,
		"bad angle":     `{"angle": 99}`,
		"bad item":      `{"item": 8}`,
		"bad runtime":   `{"runtime": "tpu"}`,
		"unknown class": `{"class": "realtime"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/serve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/serve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/serve: status %d, want 405", resp.StatusCode)
	}
}

// TestServeShedsOverRate: a class with an exhausted token bucket sheds with
// 429, a Retry-After header, and the rate_limited code — distinguishable
// from queue sheds by envelope alone.
func TestServeShedsOverRate(t *testing.T) {
	// 1 req/s, burst 1: the first request takes the only token, the second
	// (immediate) must shed at the bucket.
	s := serveTestServer(ServeOptions{Classes: []fleetapi.SLOClass{
		{Name: "tight", TargetNanos: 250_000_000, RatePerSec: 1, Burst: 1, QueueDepth: 4},
	}})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := postServe(t, ts, fleetapi.ServeRequest{Device: 0, Item: 0})
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", first.StatusCode)
	}

	shed := postServe(t, ts, fleetapi.ServeRequest{Device: 1, Item: 0})
	defer shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("shed reply missing Retry-After")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(shed.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != fleetapi.CodeRateLimited {
		t.Fatalf("shed code %q, want %q", env.Error.Code, fleetapi.CodeRateLimited)
	}

	// The shed landed in the metrics: per-class shed counter with
	// reason="rate", and the request counter carries the 429.
	metrics := getBody(t, ts, "/metrics")
	for _, want := range []string{
		`fleetd_serve_shed_total{class="tight",reason="rate"} 1`,
		`fleetd_serve_requests_total{class="tight",code="429"} 1`,
		`fleetd_serve_requests_total{class="tight",code="200"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, `fleetd_serve_seconds_bucket{class="tight",le="+Inf"} 1`) {
		t.Error("metrics missing the per-class latency histogram")
	}
}

// TestServeShedsOnFullQueue: with the workers parked and the class's queue
// filled to its depth, the next admitted request sheds at the queue with
// 429, Retry-After 1 and the queue_full code, counted as a queue shed in
// /metrics and /v1/slo.
func TestServeShedsOnFullQueue(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{
		{Name: "gold", TargetNanos: 10_000_000_000, RatePerSec: 1000, Burst: 100, QueueDepth: 4},
	}})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.stopServe()
	s.serve.wg.Wait()
	class := s.serve.classes[0]
	for i := 0; i < class.spec.QueueDepth; i++ {
		class.queue <- new(serveJob)
	}

	shed := postServe(t, ts, fleetapi.ServeRequest{Device: 0, Item: 0})
	defer shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request on a full queue: status %d, want 429", shed.StatusCode)
	}
	if got := shed.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want 1", got)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(shed.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != fleetapi.CodeQueueFull {
		t.Fatalf("shed code %q, want %q", env.Error.Code, fleetapi.CodeQueueFull)
	}
	if metrics, want := getBody(t, ts, "/metrics"), `fleetd_serve_shed_total{class="gold",reason="queue"} 1`; !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q", want)
	}
	rep, err := fleetapi.NewClient(ts.URL).SLO(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if row := rep.Classes[0]; row.ShedQueue != 1 || row.Requests != 1 || row.ShedRate != 0 || row.Served != 0 || row.Errors != 0 {
		t.Fatalf("report row %+v, want the one request counted as a queue shed", row)
	}
}

// TestSLOReport: /v1/slo reports per-class served/shed counts and exact
// attainment over what this process served.
func TestSLOReport(t *testing.T) {
	s := serveTestServer(ServeOptions{Classes: []fleetapi.SLOClass{
		// Generous target (10s, on a bucket bound) so every request attains;
		// burst 2 so the third sheds.
		{Name: "gold", TargetNanos: 10_000_000_000, RatePerSec: 0.001, Burst: 2, QueueDepth: 4},
	}})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := postServe(t, ts, fleetapi.ServeRequest{Device: i, Item: 0})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	shed := postServe(t, ts, fleetapi.ServeRequest{Device: 9, Item: 0})
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", shed.StatusCode)
	}

	rep, err := fleetapi.NewClient(ts.URL).SLO(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 1 {
		t.Fatalf("report classes %d, want 1", len(rep.Classes))
	}
	row := rep.Classes[0]
	if row.Class != "gold" || row.Served != 2 || row.ShedRate != 1 || row.Requests != 3 {
		t.Fatalf("report row %+v", row)
	}
	if row.Attainment != 1 {
		t.Fatalf("attainment %g with a 10s target, want 1", row.Attainment)
	}
	if row.LatencyNanos.P50 <= 0 || row.LatencyNanos.P99 < row.LatencyNanos.P50 {
		t.Fatalf("latency quantiles %+v", row.LatencyNanos)
	}
}

// TestSLOReportCountsErrors: a request failed by shutdown is one of /v1/slo's
// errors, and requests = served + shed_rate + shed_queue + errors still holds
// — the accounting loadgen's offline report of the same traffic keeps.
func TestSLOReportCountsErrors(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{
		{Name: "gold", TargetNanos: 10_000_000_000, RatePerSec: 1000, Burst: 100, QueueDepth: 4},
	}})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Stop the workers: the request is admitted and queued, and the handler
	// answers it with the shutdown's 503.
	s.stopServe()
	s.serve.wg.Wait()
	resp := postServe(t, ts, fleetapi.ServeRequest{Device: 0, Item: 0})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	rep, err := fleetapi.NewClient(ts.URL).SLO(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Classes[0]
	if row.Errors != 1 || row.Requests != 1 || row.Served != 0 || row.ShedRate+row.ShedQueue != 0 {
		t.Fatalf("report row %+v, want the one request counted as an error", row)
	}
}

// TestServeAfterShutdown: once CancelRuns has run, serve requests are
// refused with 503 instead of queueing into a dead worker pool.
func TestServeAfterShutdown(t *testing.T) {
	s := serveTestServer(ServeOptions{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.CancelRuns()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postServe(t, ts, fleetapi.ServeRequest{Device: 0, Item: 0})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-shutdown serve: status %d, want 503", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
