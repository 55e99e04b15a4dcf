// Package fleetd implements the fleet-monitoring service behind cmd/fleetd:
// a resource-oriented /v1 HTTP API over internal/fleet. Runs, experiments and
// continuous fleets are three instantiations of one resource kernel
// (kernel.go: history ring, shared admission slot, strict decode, the
// collection/resource/artifact handlers, one terminal predicate); an
// instance with peers is a coordinator that splits each of them across the
// peers through one shard fan-out (coordinator.go) onto one shard handler
// (shard.go); and /v1/serve answers single capture requests under SLO
// classes (serve.go). It lives under internal/ rather than in package main
// so tests and examples can embed instances in-process.
package fleetd

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Factory compiles the shared model into each runtime's backend, once
	// per run and once per serve leg.
	Factory fleet.BackendFactory
	// ModelParams is reported by /healthz.
	ModelParams int
	// History is how many resources of each kind (runs, experiments, fleets)
	// the instance remembers: 0 selects the default of 32, anything else
	// clamps to at least 1 (the ring logic assumes a positive capacity).
	History int
	// Peers switches the instance into coordinator mode: POST /v1/runs
	// splits each run's device range across these instances (base URLs or
	// host:port) instead of executing locally. The instance still serves
	// /v1/shards, so coordinators can be stacked on workers.
	Peers []string
	// Log receives operational log lines; nil silences them (a nil
	// *obs.Logger is a valid no-op).
	Log *obs.Logger
	// Registry collects the instance's metrics; nil builds a private one.
	// Share a registry across embedded instances to aggregate their series.
	Registry *obs.Registry
	// Tracer records run/shard lifecycle spans; nil builds a private
	// default-capacity ring.
	Tracer *obs.Tracer
	// Serve configures the request-serving leg (POST /v1/serve): SLO
	// classes and worker count. The zero value selects the stock classes
	// and a worker count sized to leave room for batch runs.
	Serve ServeOptions
}

// Server owns the resource kinds and the HTTP surface. At most one run,
// experiment or fleet executes at a time (creation 409s while one is in
// flight); shard executions are independent of that admission rule — they
// are the *inside* of some coordinator's single resource, not resources of
// their own.
type Server struct {
	factory fleet.BackendFactory
	params  int
	history int
	peers   []*fleetapi.Client
	log     *obs.Logger
	reg     *obs.Registry
	tracer  *obs.Tracer
	tele    *fleet.Telemetry
	started time.Time
	// goVersion and vcsRevision come from debug.ReadBuildInfo at startup;
	// /healthz reports them so a fleet's instances can be audited for
	// version skew.
	goVersion   string
	vcsRevision string
	// modelSHA is fleet.ModelSHA(factory), computed once, by the first
	// /healthz or peer probe: never on the New path.
	modelSHA func() string
	// cellDigest is the sha256 of the canary cells this instance computes
	// (canary.go), computed once, lazily, as modelSHA is, and shared with the
	// process's other instances of the same weights (cellDigests).
	cellDigest func() string

	// mu guards the kinds' rings and everything below it.
	mu          sync.Mutex
	runs        *kind[fleetapi.RunSpec, *run]
	experiments *kind[fleetapi.ExperimentSpec, *experiment]
	fleets      *kind[fleetapi.FleetSpec, *contFleet]
	// shardRunners tracks in-flight shard executions so CancelRuns can
	// reach them at shutdown; its size is capped by shardSlots, the
	// admission bound that keeps N concurrent coordinators (or a retrying
	// client) from building N capture-cap-sized runners at once — the
	// shard-side analogue of the one-resource-at-a-time rule.
	shardRunners map[shardRunner]struct{}
	shardCount   int // reserved shard slots (covers the pre-runner build window)
	shardSlots   int
	closing      bool // set by CancelRuns; new work is refused
	// flipRateWindows is how many window points the last flip-rate export
	// set, so the next one can blank the surplus.
	flipRateWindows int

	// serve is the request-serving leg: SLO-classed admission, bounded
	// queues and the worker pool behind POST /v1/serve. Built by New.
	serve *serveState
}

// New returns a Server; call Handler to mount it.
func New(o Options) *Server {
	if o.History == 0 {
		o.History = 32
	} else if o.History < 1 {
		o.History = 1
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Tracer == nil {
		o.Tracer = obs.NewTracer(0)
	}
	s := &Server{
		factory:      o.Factory,
		params:       o.ModelParams,
		modelSHA:     sync.OnceValue(func() string { return fleet.ModelSHA(o.Factory) }),
		history:      o.History,
		log:          o.Log,
		reg:          o.Registry,
		tracer:       o.Tracer,
		tele:         fleet.NewTelemetry(o.Registry),
		started:      time.Now(),
		shardRunners: map[shardRunner]struct{}{},
		shardSlots:   4,
	}
	s.cellDigest = sync.OnceValue(func() string {
		return cellDigests.GetOrCompute(s.modelSHA(), func() string { return cellDigest(o.Factory) })
	})
	s.runs = &kind[fleetapi.RunSpec, *run]{s: s, name: "run", create: s.createRun}
	s.experiments = &kind[fleetapi.ExperimentSpec, *experiment]{s: s, name: "experiment", create: s.createExperiment}
	s.fleets = &kind[fleetapi.FleetSpec, *contFleet]{s: s, name: "fleet", create: s.createFleet}
	s.goVersion = runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.vcsRevision = kv.Value
			}
		}
	}
	s.reg.Describe(metricHTTPRequests, "HTTP requests served by route and status code.")
	s.reg.Describe(metricHTTPLatency, "HTTP request latency by route.")
	s.reg.Describe(metricHTTPInFlight, "HTTP requests currently executing by route.")
	s.reg.Describe(metricRunsStarted, "Run resources admitted.")
	s.reg.Describe(metricRunsFinished, "Run resources completed by terminal state.")
	s.reg.Describe(metricExpsStarted, "Experiment resources admitted.")
	s.reg.Describe(metricExpsFinished, "Experiment resources completed by terminal state.")
	s.reg.Describe(metricShardsStarted, "Shard executions admitted.")
	s.reg.Describe(metricShardsFinished, "Shard executions completed by terminal state.")
	s.reg.Describe(metricFleetsStarted, "Continuous fleet resources admitted.")
	s.reg.Describe(metricFleetsFinished, "Continuous fleet resources completed by terminal state.")
	s.reg.Describe(metricFleetFlipRate, "Per-window flip rate of the last completed continuous fleet.")
	for _, p := range o.Peers {
		s.peers = append(s.peers, fleetapi.NewClient(p))
	}
	s.initServe(o.Serve)
	return s
}

// Coordinator reports whether the instance fans runs out to peers.
func (s *Server) Coordinator() bool { return len(s.peers) > 0 }

// Handler mounts the v1 API. Every route is wrapped in the metrics
// middleware (request count/latency/in-flight labeled by the
// registration-time pattern, so label cardinality is bounded by the route
// table, never by request paths).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("/healthz", s.handleHealthz)
	handle("/metrics", s.handleMetrics)
	handle("/v1/runs", s.runs.handleCollection)
	handle("/v1/runs/{id}", s.runs.handleResource)
	handle("/v1/runs/{id}/stats", s.runs.artifact("stats"))
	handle("/v1/runs/{id}/stream", s.handleRunStream)
	handle("/v1/runs/{id}/trace", s.handleRunTrace)
	handle("/v1/traces/{trace}", s.handleTraceResource)
	handle("/v1/serve", s.handleServe)
	handle("/v1/slo", s.handleSLO)
	handle("/v1/shards", s.handleShard)
	handle("/v1/experiments", s.experiments.handleCollection)
	handle("/v1/experiments/{id}", s.experiments.handleResource)
	for _, leaf := range []string{"report", "arms"} {
		handle("/v1/experiments/{id}/"+leaf, s.experiments.artifact(leaf))
	}
	handle("/v1/fleets", s.fleets.handleCollection)
	handle("/v1/fleets/{id}", s.fleets.handleResource)
	for _, leaf := range []string{"report", "windows", "drift"} {
		handle("/v1/fleets/{id}/"+leaf, s.fleets.artifact(leaf))
	}
	handle("/v1/fleetshards", s.handleFleetShard)
	// Catch-all so unmatched paths get the JSON envelope instead of the
	// mux's text/plain 404 — every error this server emits is parseable.
	handle("/", func(w http.ResponseWriter, req *http.Request) {
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeNotFound, "no such endpoint %s", req.URL.Path))
	})
	return mux
}

// CancelRuns cancels every in-flight resource and shard execution and
// refuses new ones. It is the graceful-shutdown hook: cancelled jobs drain
// quickly (devices not yet started are skipped), which in turn lets
// streaming handlers and shard requests finish so http.Server.Shutdown can
// complete — and a job created by a handler racing the shutdown would be
// silently killed at process exit, so creation is barred first.
func (s *Server) CancelRuns() {
	s.mu.Lock()
	s.closing = true
	shards := make([]shardRunner, 0, len(s.shardRunners))
	for r := range s.shardRunners {
		shards = append(shards, r)
	}
	s.mu.Unlock()
	s.runs.cancelAll()
	s.experiments.cancelAll()
	s.fleets.cancelAll()
	for _, r := range shards {
		r.Cancel()
	}
	s.stopServe()
}

// ProbePeers checks every peer's /healthz, returning the first failure
// attributed to its peer by name: an unhealthy peer, or one whose model_sha
// or cell_digest is not this instance's. A no-op for non-coordinators.
// cmd/fleetd calls it at startup so a mistyped -peers entry fails fast
// instead of surfacing minutes later as a mid-run shard error; the
// coordinator execution path re-probes before every dispatch.
func (s *Server) ProbePeers(ctx context.Context) error {
	// Startup probes log at info (one line per peer with its round-trip
	// latency — a slow-but-healthy peer is worth noticing before sharding a
	// fleet onto it); per-run re-probes log at debug to stay out of the way.
	return s.probePeers(ctx, s.peers, s.log.Infof)
}

// reprobe is the coordinator's pre-dispatch check of the peers it is about
// to dispatch to.
func (s *Server) reprobe(ctx context.Context, peers []*fleetapi.Client) error {
	return s.probePeers(ctx, peers, s.log.Debugf)
}

// probePeers is the health probe behind ProbePeers and reprobe. A peer that
// computes with other weights would merge its cells into a result that
// finishes done and is wrong, so it is refused like a dead one; so is a peer
// that computes other canary cells from the same weights. logf gets one
// line per accepted peer with the probe's round-trip latency.
func (s *Server) probePeers(ctx context.Context, peers []*fleetapi.Client, logf func(string, ...any)) error {
	for _, p := range peers {
		t0 := time.Now()
		h, err := p.Healthz(ctx)
		if err != nil {
			return fmt.Errorf("peer %s failed health probe: %w", p.BaseURL, err)
		}
		if want := s.modelSHA(); h.ModelSHA != want {
			return fmt.Errorf("peer %s computes with other weights: model_sha %s, this instance's %s", p.BaseURL, h.ModelSHA, want)
		}
		if want := s.cellDigest(); h.CellDigest != want {
			return fmt.Errorf("peer %s computes other cells from the same weights: cell_digest %s, this instance's %s", p.BaseURL, h.CellDigest, want)
		}
		logf("peer %s healthy (probe %s)", p.BaseURL, time.Since(t0).Round(time.Microsecond))
	}
	return nil
}

// busyLocked reports whether a run, experiment or fleet holds the admission
// slot; callers hold s.mu. The kinds share one slot: each is bounded by the
// captures cap precisely because only one of them holds capture-scale state
// at a time.
func (s *Server) busyLocked() bool {
	return s.runs.busyLocked() || s.experiments.busyLocked() || s.fleets.busyLocked()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs, exps, fleets := len(s.runs.ring), len(s.experiments.ring), len(s.fleets.ring)
	s.mu.Unlock()
	fleetapi.WriteJSON(w, http.StatusOK, fleetapi.Health{
		CellDigest:  s.cellDigest(),
		Status:      "ok",
		ModelParams: s.params,
		ModelSHA:    s.modelSHA(),
		Runtimes:    nn.Runtimes(),
		Peers:       len(s.peers),
		UptimeSec:   int64(time.Since(s.started).Seconds()),
		GoVersion:   s.goVersion,
		Runs:        runs,
		Experiments: exps,
		Fleets:      fleets,
		VCSRevision: s.vcsRevision,
	})
}
