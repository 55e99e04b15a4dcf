package fleetd

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
)

// shardRunner is what the shard handler drives: a fleet.Runner for
// /v1/shards, a fleet.ContinuousRunner for /v1/fleetshards.
type shardRunner interface {
	Start() <-chan struct{}
	Cancel()
	Progress() (done, total, captures int)
	SetTelemetry(*fleet.Telemetry)
	// State is the finished shard's wire state.
	State() *fleet.ContinuousState
}

// shardJob is one decoded shard request as the handler sees it: the device
// range, model and cell digests and trace context both shard specs carry, and
// the runner build that differs.
type shardJob struct {
	lo, hi        int
	seed          int64
	modelSHA      string
	cellDigest    string
	trace, parent string
	build         func() (shardRunner, error)
}

func (s *Server) handleShard(w http.ResponseWriter, req *http.Request) {
	serveShard(s, w, req, "shard", func(spec fleetapi.ShardSpec) shardJob {
		return shardJob{lo: spec.DeviceLo, hi: spec.DeviceHi, seed: spec.Seed, modelSHA: spec.ModelSHA, cellDigest: spec.CellDigest, trace: spec.Trace, parent: spec.Parent,
			build: func() (shardRunner, error) {
				return fleet.NewRunner(spec.FleetConfig(), s.factory), nil
			}}
	})
}

func (s *Server) handleFleetShard(w http.ResponseWriter, req *http.Request) {
	serveShard(s, w, req, "fleet shard", func(spec fleetapi.FleetShardSpec) shardJob {
		return shardJob{lo: spec.DeviceLo, hi: spec.DeviceHi, seed: spec.Seed, modelSHA: spec.ModelSHA, cellDigest: spec.CellDigest, trace: spec.Trace, parent: spec.Parent,
			build: func() (shardRunner, error) {
				return fleet.NewContinuousRunner(spec.ContinuousConfig(), s.factory)
			}}
	})
}

// serveShard executes one device-range shard synchronously and returns its
// wire state. Shards deliberately bypass the resource kinds and their
// admission slot: they are subordinate work owned by some coordinator's
// single run, experiment arm or fleet. A shard whose spec names another
// model_sha or cell_digest than this instance's is refused before it is
// admitted: the coordinator's probe saw weights, or cells, that are no longer
// the ones answering.
// shard labels the request in messages and, spaces dropped, in span names.
func serveShard[Spec validator](s *Server, w http.ResponseWriter, req *http.Request, shard string, plan func(Spec) shardJob) {
	if !allow(w, req, http.MethodPost) {
		return
	}
	spec, apiErr := decodeStrict[Spec](w, req, shard+" spec")
	if apiErr != nil {
		fleetapi.WriteError(w, apiErr)
		return
	}
	job := plan(spec)
	if job.modelSHA != "" && job.modelSHA != s.modelSHA() {
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeConflict, "%s refused: spec model_sha %s is not this instance's %s", shard, job.modelSHA, s.modelSHA()))
		return
	}
	if job.cellDigest != "" && job.cellDigest != s.cellDigest() {
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeConflict, "%s refused: spec cell_digest %s is not this instance's %s", shard, job.cellDigest, s.cellDigest()))
		return
	}
	// Reserve the slot before the runner build: admission must precede the
	// synchronous dataset generation a build pays.
	s.mu.Lock()
	switch {
	case s.closing:
		apiErr = fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down")
	case s.shardCount >= s.shardSlots:
		apiErr = fleetapi.Errorf(fleetapi.CodeConflict, "%d shard executions already in flight", s.shardSlots)
	default:
		s.shardCount++
	}
	s.mu.Unlock()
	if apiErr != nil {
		fleetapi.WriteError(w, apiErr)
		return
	}
	runner, err := job.build()
	s.mu.Lock()
	switch {
	case err != nil:
		apiErr = fleetapi.Errorf(fleetapi.CodeBadRequest, "%v", err)
	case s.closing:
		// Re-check closing: CancelRuns may have snapshotted shardRunners
		// while this runner was being built, in which case nothing would ever
		// cancel it and it would stall the server shutdown for its whole
		// execution.
		apiErr = fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down")
	default:
		s.shardRunners[runner] = struct{}{}
	}
	if apiErr != nil {
		s.shardCount--
	}
	s.mu.Unlock()
	if apiErr != nil {
		fleetapi.WriteError(w, apiErr)
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.shardRunners, runner)
		s.shardCount--
		s.mu.Unlock()
	}()

	runner.SetTelemetry(s.tele)
	shardRange := fmt.Sprintf("%d..%d", job.lo, job.hi)
	s.log.Infof("%s started: devices=%s seed=%d", shard, shardRange, job.seed)
	s.reg.Counter(metricShardsStarted).Inc()
	// The execute span joins the coordinator's trace: the spec's trace and
	// parent carry its trace context across the process boundary, and the
	// device range qualifies the span ID so sibling shards of one sweep
	// don't collide.
	span := s.tracer.Start(job.trace, job.parent, spanName(shard)+".execute", shardRange).
		SetAttr("range", shardRange)
	finished := runner.Start()
	select {
	case <-finished:
	case <-req.Context().Done():
		// The coordinator hung up (its resource was cancelled, or it lost a
		// sibling shard); stop burning captures and drain.
		runner.Cancel()
		<-finished
	}
	done, total, captures := runner.Progress()
	state := sweepState(nil, done, total)
	span.SetAttr("state", state).End()
	s.reg.Counter(metricShardsFinished, "state", state).Inc()
	if state == fleetapi.StateCancelled {
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeRunFailed, "%s cancelled before completion", shard))
		return
	}
	// The weights' digest is the server's cached one: computing it per shard
	// would hash the whole snapshot on every request.
	st := runner.State()
	st.ModelSHA = s.modelSHA()
	data, err := json.Marshal(st)
	if err != nil {
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeInternal, "marshal %s state: %v", shard, err))
		return
	}
	s.log.Infof("%s finished: devices=%s %d captures", shard, shardRange, captures)
	writeRaw(w, data, nil)
}
