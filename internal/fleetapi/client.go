package fleetapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Client drives one fleetd instance's /v1 API. With a nil HTTPClient every
// call that only asks or tells the instance something is bounded by
// defaultTimeout, headers and body together, so a peer that accepts a
// connection and never answers fails the call instead of holding it; the
// Wait* loops treat that like any dropped poll and keep polling under their
// context. Shard execution and stats streaming stay open for as long as the
// work runs and are bounded by the context alone. A caller's own HTTPClient
// is used for every call as it is.
type Client struct {
	// BaseURL is the instance root, e.g. "http://host:8470".
	BaseURL    string
	HTTPClient *http.Client
}

// defaultTimeout bounds one short exchange: no reply of the API but a shard's
// or a stream's takes longer than a capture batch to produce.
const defaultTimeout = 30 * time.Second

var boundedClient = &http.Client{Timeout: defaultTimeout}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient sets the underlying *http.Client.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.HTTPClient = h }
}

// NewClient returns a client for the given base URL; a bare host:port gets
// an http:// scheme.
func NewClient(baseURL string, opts ...Option) *Client {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	c := &Client{BaseURL: strings.TrimRight(baseURL, "/")}
	for _, o := range opts {
		o(c)
	}
	return c
}

// httpClient returns the client for a short exchange or for one that stays
// open while the instance works (longLived).
func (c *Client) httpClient(longLived bool) *http.Client {
	switch {
	case c.HTTPClient != nil:
		return c.HTTPClient
	case longLived:
		return http.DefaultClient
	}
	return boundedClient
}

// do issues one short request with a JSON body (nil for none) and returns
// the response, translating non-2xx statuses into *Error.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	return c.send(ctx, c.httpClient(false), method, path, body)
}

// send is do on the given client.
func (c *Client) send(ctx context.Context, h *http.Client, method, path string, body any) (*http.Response, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	return c.sendBytes(ctx, h, method, path, data)
}

// sendBytes is send with the JSON body already encoded (nil for none).
func (c *Client) sendBytes(ctx context.Context, h *http.Client, method, path string, data []byte) (*http.Response, error) {
	var reader io.Reader
	if data != nil {
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, reader)
	if err != nil {
		return nil, err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, DecodeError(resp)
	}
	return resp, nil
}

// raw is do plus reading the whole response body. The deterministic
// artifacts are fetched this way — their bytes, not a decoded view, are what
// is byte-identical across worker counts and shard topologies.
func (c *Client) raw(ctx context.Context, method, path string, body any) ([]byte, error) {
	return readAll(c.do(ctx, method, path, body))
}

// readAll drains and closes the response of a do or send that succeeded.
func readAll(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// doJSON is do plus decoding the response body into out (skipped when nil).
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Healthz checks liveness and returns the instance's health document.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// The three async resource kinds share one lifecycle — POST the collection,
// GET/DELETE {collection}/{id}, GET the collection, poll until terminal — so
// the five exchanges exist once, over (collection path, Spec, Status), and
// every exported method below names its kind and calls them.
const (
	runsPath        = "/v1/runs"
	experimentsPath = "/v1/experiments"
	fleetsPath      = "/v1/fleets"
)

func createResource[Status, Spec any](ctx context.Context, c *Client, path string, spec Spec) (Status, error) {
	var st Status
	err := c.doJSON(ctx, http.MethodPost, path, spec, &st)
	return st, err
}

func getResource[Status any](ctx context.Context, c *Client, path string, id int) (Status, error) {
	var st Status
	err := c.doJSON(ctx, http.MethodGet, fmt.Sprintf("%s/%d", path, id), nil, &st)
	return st, err
}

// listResources decodes a collection document, {"<kind>": [...]} keyed by the
// last element of the collection's path.
func listResources[Status any](ctx context.Context, c *Client, path string) ([]Status, error) {
	var out map[string][]Status
	err := c.doJSON(ctx, http.MethodGet, path, nil, &out)
	return out[path[strings.LastIndexByte(path, '/')+1:]], err
}

func deleteResource(ctx context.Context, c *Client, path string, id int) error {
	return c.doJSON(ctx, http.MethodDelete, fmt.Sprintf("%s/%d", path, id), nil, nil)
}

// waitResource polls until the resource leaves StateRunning (or the context
// ends) and returns its final status. Transient failures — dropped
// connections between polls, 5xx replies from a proxy or restarting front
// end — are retried, since the resource is still executing server-side; only
// an authoritative 4xx (e.g. a 404 for an evicted run) or the context ending
// aborts the wait. A poll of <= 0 falls back to 100ms.
func waitResource[Status any](ctx context.Context, c *Client, path string, id int, poll time.Duration, state func(Status) string) (Status, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := getResource[Status](ctx, c, path, id)
		var apiErr *Error
		if err == nil {
			if state(st) != StateRunning {
				return st, nil
			}
		} else if (errors.As(err, &apiErr) && authoritative4xx(apiErr.Status)) || ctx.Err() != nil {
			return st, err
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// authoritative4xx reports whether a status is a client error that makes
// further polling pointless. 408 and 429 are transient proxy/rate-limit
// replies, not verdicts about the resource.
func authoritative4xx(status int) bool {
	return status >= 400 && status < 500 &&
		status != http.StatusRequestTimeout && status != http.StatusTooManyRequests
}

// CreateRun starts an async run resource.
func (c *Client) CreateRun(ctx context.Context, spec RunSpec) (RunStatus, error) {
	return createResource[RunStatus](ctx, c, runsPath, spec)
}

// GetRun fetches one run's status.
func (c *Client) GetRun(ctx context.Context, id int) (RunStatus, error) {
	return getResource[RunStatus](ctx, c, runsPath, id)
}

// ListRuns fetches the remembered runs, oldest first.
func (c *Client) ListRuns(ctx context.Context) ([]RunStatus, error) {
	return listResources[RunStatus](ctx, c, runsPath)
}

// DeleteRun cancels an in-flight run or evicts a finished one from history.
func (c *Client) DeleteRun(ctx context.Context, id int) error {
	return deleteResource(ctx, c, runsPath, id)
}

// WaitRun polls until the run leaves StateRunning (or the context ends) and
// returns its final status; see waitResource for what is retried.
func (c *Client) WaitRun(ctx context.Context, id int, poll time.Duration) (RunStatus, error) {
	return waitResource(ctx, c, runsPath, id, poll, func(st RunStatus) string { return st.State })
}

// RunStats fetches one run's stats snapshot as raw JSON — raw because the
// bytes themselves are the deterministic artifact (a finished run's stats
// are byte-identical across worker counts and shard topologies).
func (c *Client) RunStats(ctx context.Context, id int) ([]byte, error) {
	return c.artifact(ctx, runsPath, id, "stats")
}

// RunShard executes one device-range shard synchronously on the instance
// and returns its (one-window) state for merging. This is the coordinator's
// worker call; it blocks for the shard's whole execution, so bound it with
// the context.
func (c *Client) RunShard(ctx context.Context, spec ShardSpec) (*fleet.ContinuousState, error) {
	return c.shardState(ctx, "/v1/shards", spec)
}

// shardState posts one shard spec and decodes the state the instance ships
// back once the shard has run.
func (c *Client) shardState(ctx context.Context, path string, spec any) (*fleet.ContinuousState, error) {
	data, err := readAll(c.send(ctx, c.httpClient(true), http.MethodPost, path, spec))
	if err != nil {
		return nil, err
	}
	return fleet.UnmarshalContinuousState(data)
}

// Serve runs one capture→classify request through the instance's serving
// path. A shed surfaces as an *Error with code CodeRateLimited or
// CodeQueueFull (HTTP 429); the Retry-After header the server sets is the
// transport's concern — open-loop generators ignore it by design.
//
// The request is appended into a pooled buffer and the reply read into
// another and decoded into a pooled value. The request buffer is recycled
// only once the reply has been read, by when a transport has long written a
// body this small.
func (c *Client) Serve(ctx context.Context, req ServeRequest) (ServeResponse, error) {
	call := servePool.Get().(*serveCall)
	defer call.recycle()
	call.body.Write(appendServeRequest(call.body.AvailableBuffer(), req))
	resp, err := c.sendBytes(ctx, c.httpClient(false), http.MethodPost, "/v1/serve", call.body.Bytes())
	if err != nil {
		return ServeResponse{}, err
	}
	defer resp.Body.Close()
	if _, err := call.reply.ReadFrom(resp.Body); err != nil {
		return ServeResponse{}, err
	}
	err = json.Unmarshal(call.reply.Bytes(), &call.resp)
	return call.resp, err
}

// serveCall is the scratch of one Serve: the encoded request, the reply's
// bytes and the value they decode into.
type serveCall struct {
	body, reply bytes.Buffer
	resp        ServeResponse
}

var servePool = sync.Pool{New: func() any { return new(serveCall) }}

// recycle returns the call to the pool, unless a rare large reply grew it.
func (call *serveCall) recycle() {
	if call.reply.Cap() > 64<<10 {
		return
	}
	call.body.Reset()
	call.reply.Reset()
	call.resp = ServeResponse{}
	servePool.Put(call)
}

// SLO fetches the instance's serving-path SLO report: per-class attainment,
// shed counts, and latency quantiles accumulated since the process started.
func (c *Client) SLO(ctx context.Context) (SLOReport, error) {
	var rep SLOReport
	err := c.doJSON(ctx, http.MethodGet, "/v1/slo", nil, &rep)
	return rep, err
}

// Metrics fetches the instance's Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.raw(ctx, http.MethodGet, "/metrics", nil)
}

// RunTrace fetches one run's spans. On a coordinator the reply already
// aggregates peer-side shard spans, so the result is the whole
// cross-process trace.
func (c *Client) RunTrace(ctx context.Context, id int) ([]obs.Span, error) {
	return c.traceNDJSON(ctx, fmt.Sprintf("/v1/runs/%d/trace", id))
}

// TraceSpans fetches the spans an instance recorded locally under one trace
// ID — the coordinator's per-peer aggregation call behind RunTrace.
func (c *Client) TraceSpans(ctx context.Context, trace string) ([]obs.Span, error) {
	return c.traceNDJSON(ctx, "/v1/traces/"+url.PathEscape(trace))
}

func (c *Client) traceNDJSON(ctx context.Context, path string) ([]obs.Span, error) {
	data, err := c.raw(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	return obs.ParseNDJSON(data)
}

// CreateExperiment starts an async experiment resource: a declarative
// multi-arm sweep executed arm by arm through the run machinery.
func (c *Client) CreateExperiment(ctx context.Context, spec ExperimentSpec) (ExperimentStatus, error) {
	return createResource[ExperimentStatus](ctx, c, experimentsPath, spec)
}

// GetExperiment fetches one experiment's status.
func (c *Client) GetExperiment(ctx context.Context, id int) (ExperimentStatus, error) {
	return getResource[ExperimentStatus](ctx, c, experimentsPath, id)
}

// ListExperiments fetches the remembered experiments, oldest first.
func (c *Client) ListExperiments(ctx context.Context) ([]ExperimentStatus, error) {
	return listResources[ExperimentStatus](ctx, c, experimentsPath)
}

// DeleteExperiment cancels an in-flight experiment or evicts a finished one
// from history.
func (c *Client) DeleteExperiment(ctx context.Context, id int) error {
	return deleteResource(ctx, c, experimentsPath, id)
}

// WaitExperiment polls until the experiment leaves StateRunning (or the
// context ends) and returns its final status, with the same transient-retry
// behavior as WaitRun.
func (c *Client) WaitExperiment(ctx context.Context, id int, poll time.Duration) (ExperimentStatus, error) {
	return waitResource(ctx, c, experimentsPath, id, poll, func(st ExperimentStatus) string { return st.State })
}

// ExperimentReport fetches a finished experiment's report as raw JSON — raw
// because the bytes are the deterministic artifact (byte-identical across
// shard topologies and worker counts). Decode into ExperimentReport for the
// structured view.
func (c *Client) ExperimentReport(ctx context.Context, id int) ([]byte, error) {
	return c.artifact(ctx, experimentsPath, id, "report")
}

// ExperimentArms fetches a finished experiment's per-arm stats: a JSON
// array, in arm order, of what /v1/runs/{id}/stats serves for each arm's
// spec.
func (c *Client) ExperimentArms(ctx context.Context, id int) ([]byte, error) {
	return c.artifact(ctx, experimentsPath, id, "arms")
}

// CreateFleet starts an async continuous fleet resource.
func (c *Client) CreateFleet(ctx context.Context, spec FleetSpec) (FleetStatus, error) {
	return createResource[FleetStatus](ctx, c, fleetsPath, spec)
}

// GetFleet fetches one continuous fleet's status.
func (c *Client) GetFleet(ctx context.Context, id int) (FleetStatus, error) {
	return getResource[FleetStatus](ctx, c, fleetsPath, id)
}

// ListFleets fetches the remembered continuous fleets, oldest first.
func (c *Client) ListFleets(ctx context.Context) ([]FleetStatus, error) {
	return listResources[FleetStatus](ctx, c, fleetsPath)
}

// DeleteFleet cancels an in-flight continuous fleet or evicts a finished
// one from history.
func (c *Client) DeleteFleet(ctx context.Context, id int) error {
	return deleteResource(ctx, c, fleetsPath, id)
}

// WaitFleet polls until the fleet leaves StateRunning (or the context ends)
// and returns its final status, with the same transient-retry behavior as
// WaitRun.
func (c *Client) WaitFleet(ctx context.Context, id int, poll time.Duration) (FleetStatus, error) {
	return waitResource(ctx, c, fleetsPath, id, poll, func(st FleetStatus) string { return st.State })
}

// artifact fetches one of a resource's documents as raw JSON — raw because
// the bytes are the deterministic artifact (byte-identical across worker
// counts and shard topologies).
func (c *Client) artifact(ctx context.Context, path string, id int, leaf string) ([]byte, error) {
	return c.raw(ctx, http.MethodGet, fmt.Sprintf("%s/%d/%s", path, id, leaf), nil)
}

// FleetReport fetches a finished fleet's full report. Decode into
// fleet.FleetReport for the structured view.
func (c *Client) FleetReport(ctx context.Context, id int) ([]byte, error) {
	return c.artifact(ctx, fleetsPath, id, "report")
}

// FleetWindows fetches a finished fleet's per-window stats document.
func (c *Client) FleetWindows(ctx context.Context, id int) ([]byte, error) {
	return c.artifact(ctx, fleetsPath, id, "windows")
}

// FleetDrift fetches a finished fleet's drift report.
func (c *Client) FleetDrift(ctx context.Context, id int) ([]byte, error) {
	return c.artifact(ctx, fleetsPath, id, "drift")
}

// RunFleetShard executes one device-range shard of a continuous fleet
// synchronously on the instance and returns its state for merging — the
// coordinator's worker call; bound it with the context.
func (c *Client) RunFleetShard(ctx context.Context, spec FleetShardSpec) (*fleet.ContinuousState, error) {
	return c.shardState(ctx, "/v1/fleetshards", spec)
}

// StreamStats follows a run's NDJSON stats stream, invoking fn per
// snapshot line until the stream ends (run completion) or fn returns an
// error. A failed run terminates its stream with an error-envelope line;
// that line is returned as the *Error instead of being passed to fn, so
// consumers can't mistake a failure for a snapshot.
func (c *Client) StreamStats(ctx context.Context, id int, fn func(snapshot []byte) error) error {
	resp, err := c.send(ctx, c.httpClient(true), http.MethodGet, fmt.Sprintf("/v1/runs/%d/stream", id), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var env envelope
		if err := json.Unmarshal(line, &env); err == nil && env.Error != nil && env.Error.Code != "" {
			env.Error.Status = statusForCode(env.Error.Code)
			return env.Error
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return sc.Err()
}
