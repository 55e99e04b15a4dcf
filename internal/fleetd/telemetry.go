package fleetd

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Metric names the server records, beyond the fleet.Metric* capture set.
const (
	metricHTTPRequests = "fleetd_http_requests_total"
	metricHTTPLatency  = "fleetd_http_request_seconds"
	metricHTTPInFlight = "fleetd_http_in_flight_requests"

	metricRunsStarted    = "fleetd_runs_started_total"
	metricRunsFinished   = "fleetd_runs_finished_total"
	metricExpsStarted    = "fleetd_experiments_started_total"
	metricExpsFinished   = "fleetd_experiments_finished_total"
	metricShardsStarted  = "fleetd_shards_started_total"
	metricShardsFinished = "fleetd_shards_finished_total"
	metricFleetsStarted  = "fleetd_fleets_started_total"
	metricFleetsFinished = "fleetd_fleets_finished_total"
	// metricFleetFlipRate exports the last completed continuous fleet's
	// per-window flip-rate series, labeled by window index (bounded by
	// fleetapi.MaxWindows).
	metricFleetFlipRate = "fleetd_fleet_window_flip_rate"
)

// instrument wraps one route's handler with the HTTP metrics. The route
// label is the registration-time mux pattern, so cardinality is fixed by
// the route table; the latency histogram and in-flight gauge are resolved
// here, once per route, keeping per-request work to two atomics and a clock
// read on top of the handler (status counters need the response code, so
// they resolve per request).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	latency := s.reg.DurationHistogram(metricHTTPLatency, "route", route)
	inFlight := s.reg.Gauge(metricHTTPInFlight, "route", route)
	return func(w http.ResponseWriter, req *http.Request) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, req)
		latency.ObserveSince(t0)
		s.reg.Counter(metricHTTPRequests, "route", route, "code", codeLabel(sw.code())).Inc()
	}
}

// codeLabels spells the status codes: strconv.Itoa allocates a three-digit
// string on every call, and a request's two counter lookups would too.
var codeLabels = func() (t [600]string) {
	for code := range t {
		t[code] = strconv.Itoa(code)
	}
	return t
}()

// codeLabel is strconv.Itoa(code), without allocating for an HTTP status.
func codeLabel(code int) string {
	if code >= 0 && code < len(codeLabels) {
		return codeLabels[code]
	}
	return strconv.Itoa(code)
}

// statusWriter captures the response status code for the request counter.
// It must keep implementing http.Flusher: streamRun type-asserts its writer
// to flush NDJSON snapshots through, and wrapping must not sever that.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// handleMetrics serves GET /metrics in Prometheus text exposition format:
// HTTP metrics, run/experiment/shard lifecycle counters, the fleet capture
// histograms, and (when cmd/fleetd started them) runtime gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	w.WriteHeader(http.StatusOK)
	s.reg.WritePrometheus(w)
}

// handleRunTrace serves GET /v1/runs/{id}/trace: the run's spans as NDJSON.
// On a coordinator it aggregates each peer's locally recorded spans (the
// shard.execute legs) into the reply, so the caller gets the whole
// cross-process trace from one request.
func (s *Server) handleRunTrace(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodGet) {
		return
	}
	r, ok := s.runs.fromPath(w, req)
	if !ok {
		return
	}
	spans := s.tracer.Spans(r.trace)
	for _, p := range s.peers {
		ps, err := p.TraceSpans(req.Context(), r.trace)
		if err != nil {
			// A peer that restarted (empty ring) or is briefly unreachable
			// should not hide the coordinator-side spans; serve the partial
			// trace and say so.
			s.log.Warnf("trace %s: peer %s spans unavailable: %v", r.trace, p.BaseURL, err)
			continue
		}
		spans = append(spans, ps...)
	}
	writeSpansNDJSON(w, spans)
}

// handleTraceResource serves GET /v1/traces/{trace}: the spans this
// instance recorded locally under one trace ID. This is the peer-side leg
// of a coordinator's trace aggregation; an unknown trace yields an empty
// body, not a 404, since "no spans recorded here" is a valid answer for a
// peer that executed no shard of the run.
func (s *Server) handleTraceResource(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodGet) {
		return
	}
	writeSpansNDJSON(w, s.tracer.Spans(req.PathValue("trace")))
}

func writeSpansNDJSON(w http.ResponseWriter, spans []obs.Span) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		enc.Encode(sp)
	}
}
