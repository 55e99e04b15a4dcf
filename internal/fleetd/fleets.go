package fleetd

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/obs"
)

// fleetExec is one way of carrying a continuous fleet out: on this
// instance's own ContinuousRunner (localFleetExec) or fanned out to shard
// peers (newCoordFleetExec). Unlike run executions there is no mid-flight
// stats snapshot contract — the report is only deterministic once complete,
// so in-flight reads get progress counts, not partial reports.
type fleetExec interface {
	liveExec
	// execute blocks until the fleet completes and returns its report.
	execute() (fleet.FleetReport, error)
}

// localFleetExec runs the continuous fleet in-process.
type localFleetExec struct {
	runner *fleet.ContinuousRunner
}

func (e *localFleetExec) execute() (fleet.FleetReport, error) {
	<-e.runner.Start()
	return e.runner.Report(), nil
}

func (e *localFleetExec) progress() (done, total, captures int) { return e.runner.Progress() }
func (e *localFleetExec) cancel()                               { e.runner.Cancel() }

// contFleet is one continuous fleet resource. Once complete it records the
// deterministic report bytes plus the windows and drift documents sliced out
// of it as its "report", "windows" and "drift" artifacts.
type contFleet struct {
	core
	spec   fleetapi.FleetSpec
	cfg    fleet.ContinuousConfig // spec.ContinuousConfig().WithDefaults()
	shards int                    // peer fan-out (0 = local execution)
	trace  string                 // deterministic: obs.TraceID("fleet", id, seed)
}

// createFleet launches a continuous fleet, locally or across peers.
func (s *Server) createFleet(spec fleetapi.FleetSpec) (*contFleet, *fleetapi.Error) {
	cfg := spec.ContinuousConfig().WithDefaults()
	var exec fleetExec
	f, apiErr := s.fleets.admit(func(id int) (*contFleet, *fleetapi.Error) {
		f := &contFleet{core: newCore("fleet", id), spec: spec, cfg: cfg, trace: obs.TraceID("fleet", id, cfg.Fleet.Seed)}
		admit := s.tracer.Start(f.trace, obs.SpanID(f.trace, "fleet"), "fleet.admit").
			SetAttr("fleet", strconv.Itoa(id))
		defer admit.End()
		if len(s.peers) > 0 {
			coord := newCoordFleetExec(spec, cfg, s.modelSHA(), s.cellDigest, s.peers, s.tracer, f.trace, s.reprobe)
			exec, f.shards = coord, len(coord.ranges)
		} else {
			runner, err := fleet.NewContinuousRunner(cfg, s.factory)
			if err != nil {
				return nil, fleetapi.Errorf(fleetapi.CodeBadRequest, "%v", err)
			}
			runner.SetTelemetry(s.tele)
			exec = &localFleetExec{runner: runner}
		}
		f.live = exec
		return f, nil
	})
	if apiErr != nil {
		return nil, apiErr
	}
	s.reg.Counter(metricFleetsStarted).Inc()
	go f.execute(s, exec)
	s.log.Infof("fleet %d started: devices=%d windows=%d items=%d seed=%d shards=%d trace=%s",
		f.id, cfg.Fleet.Devices, cfg.Windows, cfg.Fleet.Items, cfg.Fleet.Seed, f.shards, f.trace)
	return f, nil
}

// execute drives the fleet to completion and records the outcome.
func (f *contFleet) execute(s *Server, exec fleetExec) {
	root := s.tracer.Start(f.trace, "", "fleet").
		SetAttr("fleet", strconv.Itoa(f.id)).
		SetAttr("devices", strconv.Itoa(f.cfg.Fleet.Devices)).
		SetAttr("windows", strconv.Itoa(f.cfg.Windows))
	rep, err := exec.execute()
	if f.cancelOnly(err) {
		err = nil // the partial report is discarded either way
	}
	done, _, captures := exec.progress()
	state := sweepState(err, done, f.cfg.Fleet.Devices)
	// All three documents marshal outside f.mu; a full fleet report is
	// O(windows × cells) and status polls must not block on it.
	var docs map[string][]byte
	failure := ""
	switch state {
	case fleetapi.StateFailed:
		failure = err.Error()
	case fleetapi.StateDone:
		docs = map[string][]byte{"report": rep.JSON()}
		docs["windows"], _ = json.Marshal(map[string]any{"windows": rep.Windows})
		docs["drift"], _ = json.Marshal(rep.Drift)
	}
	f.finish(state, failure, done, captures, docs)
	root.SetAttr("state", state).End()
	s.reg.Counter(metricFleetsFinished, "state", state).Inc()
	if err != nil {
		s.log.Errorf("fleet %d failed: %v", f.id, err)
		return
	}
	if state == fleetapi.StateDone {
		s.exportFlipRates(rep.Drift.Rates)
	}
	s.log.Infof("fleet %d %s: %d/%d devices, %d windows, %d captures, %d drift flags",
		f.id, state, done, f.cfg.Fleet.Devices, f.cfg.Windows, captures, len(rep.Drift.Flags))
}

// exportFlipRates exports a completed fleet's flip-rate series: one gauge
// point per window, the drift detector's input made scrapeable. Window count
// is bounded by fleetapi.MaxWindows, so the label cardinality is too. Windows
// the previous export had and this one lacks are set to NaN, so the family
// never mixes two fleets' series.
func (s *Server) exportFlipRates(rates []float64) {
	s.mu.Lock()
	prev := s.flipRateWindows
	s.flipRateWindows = len(rates)
	s.mu.Unlock()
	for w := 0; w < max(prev, len(rates)); w++ {
		rate := math.NaN()
		if w < len(rates) {
			rate = rates[w]
		}
		s.reg.Gauge(metricFleetFlipRate, "window", strconv.Itoa(w)).Set(rate)
	}
}

// status renders the /v1 resource representation.
func (f *contFleet) status() any {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := fleetapi.FleetStatus{
		ID:      f.id,
		State:   f.stateLocked(),
		Spec:    f.spec,
		Devices: f.cfg.Fleet.Devices,
		Windows: f.cfg.Windows,
		Shards:  f.shards,
		Trace:   f.trace,
		Error:   f.failure,
	}
	st.DevicesDone, st.Captures = f.progressLocked()
	return st
}
