package fleetd

import (
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/obs"
	"repro/internal/stability"
)

// execution is one way of carrying a run out: on this instance's own
// runner (localExec) or fanned out to shard peers (coordExec).
type execution interface {
	liveExec
	// execute blocks until the run completes and returns its final stats.
	execute() (fleet.Stats, error)
	// stats snapshots in-flight progress.
	stats() fleet.Stats
	// accumulator returns, after execute succeeds, the stability
	// accumulator its stats were rendered from: the runner's own, or the
	// one the shards' states merged into. The experiment report pairs arms
	// by its cell outcomes.
	accumulator() *stability.Accumulator
}

// localExec runs the fleet in-process.
type localExec struct {
	runner *fleet.Runner
}

func (e *localExec) execute() (fleet.Stats, error) {
	<-e.runner.Start()
	return e.runner.Stats(), nil
}

func (e *localExec) stats() fleet.Stats                    { return e.runner.Stats() }
func (e *localExec) progress() (done, total, captures int) { return e.runner.Progress() }
func (e *localExec) cancel()                               { e.runner.Cancel() }

func (e *localExec) accumulator() *stability.Accumulator { return e.runner.Accumulator() }

// newExecution builds the execution of one run spec — a run's own, or one
// experiment arm's: fanned out when the instance has peers, local otherwise.
// trace may be empty (no span recording). shards is the peer fan-out, 0 for
// a local execution.
func (s *Server) newExecution(spec fleetapi.RunSpec, cfg fleet.Config, trace string) (exec execution, shards int) {
	if len(s.peers) > 0 {
		coord := newCoordExec(spec, cfg, s.modelSHA(), s.cellDigest, s.peers, s.tracer, trace, s.reprobe)
		return coord, len(coord.ranges)
	}
	runner := fleet.NewRunner(cfg, s.factory)
	runner.SetTelemetry(s.tele)
	return &localExec{runner: runner}, 0
}

// run is one run resource. Its one artifact, "stats", is unlike the other
// kinds' in that it is served at every stage: a live snapshot while running,
// the recorded bytes (partial for a cancelled run) after.
type run struct {
	core
	spec   fleetapi.RunSpec
	cfg    fleet.Config // spec.FleetConfig().WithDefaults()
	shards int          // peer fan-out (0 = local execution)
	trace  string       // deterministic trace ID: obs.TraceID("run", id, seed)
}

// createRun launches a run, locally or across peers.
func (s *Server) createRun(spec fleetapi.RunSpec) (*run, *fleetapi.Error) {
	cfg := spec.FleetConfig().WithDefaults()
	var exec execution
	r, apiErr := s.runs.admit(func(id int) (*run, *fleetapi.Error) {
		r := &run{core: newCore("run", id), spec: spec, cfg: cfg, trace: obs.TraceID("run", id, cfg.Seed)}
		// The admit span parents onto the root "run" span's deterministic ID;
		// the root itself is recorded by execute when the run completes.
		admit := s.tracer.Start(r.trace, obs.SpanID(r.trace, "run"), "run.admit").
			SetAttr("run", strconv.Itoa(id))
		defer admit.End()
		exec, r.shards = s.newExecution(spec, cfg, r.trace)
		r.live = exec
		return r, nil
	})
	if apiErr != nil {
		return nil, apiErr
	}
	s.reg.Counter(metricRunsStarted).Inc()
	go r.execute(s, exec)
	s.log.Infof("run %d started: devices=%d items=%d seed=%d runtime=%q shards=%d trace=%s",
		r.id, cfg.Devices, cfg.Items, cfg.Seed, cfg.Runtime, r.shards, r.trace)
	return r, nil
}

// execute drives the run to completion and records the outcome.
func (r *run) execute(s *Server, exec execution) {
	// The root span's ID is deterministic in (trace, "run"), which is how
	// the admit span and the coordinator's dispatch/merge spans could parent
	// onto it before it exists.
	root := s.tracer.Start(r.trace, "", "run").
		SetAttr("run", strconv.Itoa(r.id)).
		SetAttr("devices", strconv.Itoa(r.cfg.Devices))
	st, err := exec.execute()
	if r.cancelOnly(err) {
		st, err = exec.stats(), nil // the partial snapshot is the outcome
	}
	// The merge above and this marshal stay outside r.mu: a coordinator's
	// stats can be large, and status polls block on the lock.
	var docs map[string][]byte
	failure := ""
	if err != nil {
		failure = err.Error()
	} else {
		docs = map[string][]byte{"stats": st.JSON()}
	}
	done, _, captures := exec.progress()
	state := sweepState(err, done, r.cfg.Devices)
	r.finish(state, failure, done, captures, docs)
	root.SetAttr("state", state).End()
	s.reg.Counter(metricRunsFinished, "state", state).Inc()
	if err != nil {
		s.log.Errorf("run %d failed: %v", r.id, err)
	} else {
		s.log.Infof("run %d finished: %d/%d devices, %d captures", r.id, st.DevicesDone, r.cfg.Devices, st.Captures)
	}
}

// status renders the /v1 resource representation.
func (r *run) status() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := fleetapi.RunStatus{
		ID:      r.id,
		State:   r.stateLocked(),
		Spec:    r.spec,
		Devices: r.cfg.Devices,
		Shards:  r.shards,
		Trace:   r.trace,
		Error:   r.failure,
	}
	st.DevicesDone, st.Captures = r.progressLocked()
	return st
}

// statsJSON returns the run's stats: the recorded bytes once finished, a
// live snapshot while in flight, or the failure as an API error. terminal
// reports whether the result is the run's immutable outcome rather than an
// in-flight snapshot — streaming consumers stop after a terminal write so
// the outcome is never emitted twice.
func (r *run) statsJSON() (b []byte, terminal bool, apiErr *fleetapi.Error) {
	r.mu.Lock()
	failure, final, live := r.failure, r.docs["stats"], r.live
	r.mu.Unlock()
	switch {
	case failure != "":
		return nil, true, fleetapi.Errorf(fleetapi.CodeRunFailed, "%s", failure)
	case final != nil:
		return final, true, nil
	default:
		// The snapshot is taken outside r.mu: a coordinator's merge can be
		// slow and must not block status polls. A run's live execution is
		// always an execution (createRun sets nothing else).
		return live.(execution).stats().JSON(), false, nil
	}
}

func (r *run) artifact(string) ([]byte, *fleetapi.Error) {
	b, _, apiErr := r.statsJSON()
	return b, apiErr
}

// handleRunStream holds the connection and writes NDJSON stats snapshots
// until the run completes (one final deterministic snapshot), the run fails
// (one error-envelope line), or the client goes away.
func (s *Server) handleRunStream(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodGet) {
		return
	}
	r, ok := s.runs.fromPath(w, req)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// write emits one snapshot line and reports whether the stream should
	// continue: a terminal line (the recorded outcome or a failure
	// envelope) ends it, so a ticker firing in the same select round the
	// done channel closes can't emit the outcome twice.
	write := func() (more bool) {
		b, terminal, apiErr := r.statsJSON()
		if apiErr != nil {
			b = apiErr.MarshalEnvelope()
		}
		// Two writes, not append(b, '\n'): for finished runs b is the
		// shared recorded slice, and an in-place append would race
		// concurrent streams on its backing array.
		w.Write(b)
		io.WriteString(w, "\n")
		if flusher != nil {
			flusher.Flush()
		}
		return !terminal
	}
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if !write() {
				return
			}
		case <-r.done:
			write()
			return
		case <-req.Context().Done():
			return // client went away; the run keeps going
		}
	}
}
