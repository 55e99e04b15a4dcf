// Command fleetd serves fleet-scale instability monitoring over HTTP: it
// trains (or loads) the shared base model once, then simulates synthesized
// device fleets on demand, streaming stability summaries while runs are in
// flight. It is the continuous-monitoring counterpart to the one-shot
// experiment binaries — and, with -peers, the front of a distributed fleet:
// a coordinator splits each run's device range across peer instances and
// serves the merged stats, byte-identical to a single-instance run.
//
// The service logic lives in internal/fleetd; this binary adds flags,
// model bootstrap and graceful shutdown. The HTTP surface is the versioned
// /v1 resource API; any other path is the JSON not_found envelope:
//
//	GET    /healthz              liveness + model info
//	POST   /v1/runs              create an async run resource (JSON RunSpec)
//	GET    /v1/runs              list remembered runs
//	GET    /v1/runs/{id}         one run's status
//	DELETE /v1/runs/{id}         cancel an in-flight run / evict a finished one
//	GET    /v1/runs/{id}/stats   stats snapshot (deterministic once done)
//	GET    /v1/runs/{id}/stream  NDJSON snapshots until completion
//	POST   /v1/serve             serve one capture→classify under SLO-classed admission
//	GET    /v1/slo               live per-class SLO report (attainment, sheds, quantiles)
//	POST   /v1/shards            execute one device-range shard, return its state
//	POST   /v1/experiments       create a multi-arm sweep (JSON ExperimentSpec)
//	GET    /v1/experiments       list remembered experiments
//	GET    /v1/experiments/{id}  one experiment's status (per-arm progress)
//	DELETE /v1/experiments/{id}  cancel an in-flight experiment / evict a finished one
//	GET    /v1/experiments/{id}/report  paired cross-arm report (deterministic bytes)
//	POST   /v1/fleets            create a continuous fleet: windowed run with churn/drift (JSON FleetSpec)
//	GET    /v1/fleets            list remembered continuous fleets
//	GET    /v1/fleets/{id}       one fleet's status
//	DELETE /v1/fleets/{id}       cancel an in-flight fleet / evict a finished one
//	GET    /v1/fleets/{id}/report   full windowed report (deterministic bytes)
//	GET    /v1/fleets/{id}/windows  per-window stability stats document
//	GET    /v1/fleets/{id}/drift    drift-detector report: flip-rate series, flags, attribution
//	POST   /v1/fleetshards       execute one device-range fleet shard, return its state
//	GET    /metrics              Prometheus text exposition
//	GET    /v1/runs/{id}/trace   run spans as NDJSON (cross-process when sharded)
//	GET    /v1/traces/{trace}    locally recorded spans of one trace
//
// Example (one worker, one coordinator, both on the committed model):
//
//	fleetd -addr :8471 -model bench/testdata/base.model &
//	fleetd -addr :8470 -model bench/testdata/base.model -peers localhost:8471 &
//	curl -X POST localhost:8470/v1/runs -d '{"devices":1000,"items":8,"seed":7}'
//	curl localhost:8470/v1/runs/0/stats
//
// On SIGINT/SIGTERM the server cancels in-flight runs and shards, lets
// streams drain, and shuts the listener down cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	_ "net/http/pprof" // side listener only; the API mux never exposes it
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/fleetd"
	"repro/internal/lab"
	"repro/internal/nn"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8470", "listen address")
	modelPath := flag.String("model", "", "base-model snapshot path, e.g. bench/testdata/base.model (trains the model, and writes it there, if missing)")
	history := flag.Int("history", 32, "runs, experiments and fleets remembered per kind (GET /v1/runs, /v1/experiments, /v1/fleets)")
	peers := flag.String("peers", "", "comma-separated peer instances; when set, runs are split across them as device-range shards")
	peerWait := flag.Duration("peer-wait", 60*time.Second, "how long a coordinator waits for its peers to become healthy at startup")
	serveMaxBatch := flag.Int("serve-max-batch", 0, "cap on queued requests one serve worker forms into a batch and registers at once, applied to every SLO class (0 keeps the class default of 1); requests for a cell already pending or computing share its computation at any cap")
	serveLinger := flag.Int64("serve-linger-ms", 0, "how long a serve worker holds a partial batch open for the queue to top it up (0 derives target/20; needs -serve-max-batch > 1)")
	logFormat := flag.String("log-format", obs.FormatText, "log line format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofAddr := flag.String("pprof", "", "listen address for a net/http/pprof side listener (empty disables)")
	flag.Parse()
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf(nil, "%v", err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fatalf(nil, "%v", err)
	}
	if *history < 1 {
		*history = 1 // explicit 0 keeps only the latest run, as it always has
	}

	cfg := lab.DefaultBaseModel()
	model, err := lab.LoadOrTrainBaseModel(cfg, *modelPath, logger.Infof)
	if err != nil {
		fatalf(logger, "%v", err)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	reg := obs.NewRegistry()
	stopGauges := obs.StartRuntimeGauges(reg, 0)
	defer stopGauges()
	var serveOpts fleetd.ServeOptions
	if *serveMaxBatch > 0 || *serveLinger > 0 {
		classes := fleetapi.DefaultSLOClasses()
		for i := range classes {
			if *serveMaxBatch > 0 {
				classes[i].MaxBatch = *serveMaxBatch
			}
			classes[i].LingerMillis = *serveLinger
			if err := classes[i].Validate(); err != nil {
				fatalf(logger, "bad serve batching flags: %v", err)
			}
		}
		serveOpts.Classes = classes
	}
	s := fleetd.New(fleetd.Options{
		Factory:     fleet.BackendReplicator(cfg.Arch, model),
		ModelParams: model.NumParams(),
		History:     *history,
		Peers:       peerList,
		Log:         logger,
		Registry:    reg,
		Serve:       serveOpts,
	})

	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; serving it from a
		// separate listener keeps profiling off the API port.
		go func() {
			logger.Infof("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); !errors.Is(err, http.ErrServerClosed) {
				logger.Warnf("pprof listener: %v", err)
			}
		}()
	}

	srv := newHTTPServer(*addr, s.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// A coordinator probes its peers before serving: a mistyped or dead
	// -peers entry fails here, named, instead of minutes into the first
	// sharded run. Peers booting concurrently (the usual supervisor case)
	// get a grace window before the probe gives up.
	if s.Coordinator() {
		probeCtx, cancel := context.WithTimeout(ctx, *peerWait)
		defer cancel()
		for {
			err := s.ProbePeers(probeCtx)
			if err == nil {
				logger.Infof("fleetd peers healthy: %s", *peers)
				break
			}
			if probeCtx.Err() != nil {
				fatalf(logger, "fleetd startup: %v", err)
			}
			logger.Infof("fleetd waiting for peers: %v", err)
			select {
			case <-probeCtx.Done():
			case <-time.After(time.Second):
			}
		}
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Infof("fleetd shutting down: cancelling in-flight runs")
		// Cancelling runs makes their streams and shard requests drain, so
		// Shutdown's wait for active handlers terminates.
		s.CancelRuns()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warnf("fleetd shutdown: %v", err)
		}
	}()

	mode := "worker"
	if s.Coordinator() {
		mode = "coordinator"
	}
	logger.Infof("fleetd listening on %s (%s, model: %d params, runtimes: %v, peers: %d)",
		*addr, mode, model.NumParams(), nn.Runtimes(), len(peerList))
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatalf(logger, "%v", err)
	}
	// ListenAndServe returns as soon as Shutdown closes the listener;
	// in-flight handlers (streams, shard replies) are still draining until
	// the Shutdown call itself returns.
	<-shutdownDone
	logger.Infof("fleetd stopped")
}

// Edge timeouts of the API listener. A client gets readHeaderTimeout to
// finish its request headers and a kept-alive connection idleTimeout between
// requests, so a socket that is opened and abandoned does not hold a
// goroutine and a descriptor for ever. Neither bounds a handler: bodies are
// size-limited by the handlers themselves, and a stream or a shard reply runs
// for as long as its run does.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the API server with the edge timeouts set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// fatalf logs the error and exits. Flag validation failures happen before a
// logger exists; those fall back to stderr directly.
func fatalf(logger *obs.Logger, format string, args ...any) {
	if logger == nil {
		logger, _ = obs.NewLogger(os.Stderr, obs.LevelError, obs.FormatText)
	}
	logger.Errorf(format, args...)
	os.Exit(1)
}
