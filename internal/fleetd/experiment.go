package fleetd

import (
	"encoding/json"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/stability"
)

// armRun is one arm of an experiment: the expanded spec plus its execution
// lifecycle. All mutable fields are guarded by the owning experiment's mu.
type armRun struct {
	name string
	spec fleetapi.RunSpec
	cfg  fleet.Config // spec.FleetConfig().WithDefaults()

	state    string // pending → running → done/cancelled/failed
	done     int    // devices completed, recorded at arm completion
	captures int
	errMsg   string
}

// experiment is one experiment resource: a declarative sweep executed arm
// by arm through the same execution machinery runs use — a coordinator
// instance transparently shards every arm across its peers. Arms run
// sequentially in expansion order, so an experiment occupies the same
// single admission slot a run does, never multiplying the instance's peak
// memory by the arm count. Its artifacts are the "report" and the "arms"
// (every arm's full stats).
type experiment struct {
	core     // live is the running arm's execution
	spec     fleetapi.ExperimentSpec
	baseline string
	shards   int // peer fan-out per arm (0 = local execution)
	arms     []*armRun
}

// holdsSlot keeps the admission slot for the experiment's whole life: an arm
// whose last device just finished is followed by the next arm, not by free
// capacity.
func (e *experiment) holdsSlot() bool { return !e.terminal() }

// createExperiment launches a sweep.
func (s *Server) createExperiment(spec fleetapi.ExperimentSpec) (*experiment, *fleetapi.Error) {
	var arms []*armRun
	for _, a := range spec.Arms() {
		arms = append(arms, &armRun{
			name:  a.Name,
			spec:  a.Spec,
			cfg:   a.Spec.FleetConfig().WithDefaults(),
			state: fleetapi.StatePending,
		})
	}
	baseline := spec.BaselineArm()
	e, apiErr := s.experiments.admit(func(id int) (*experiment, *fleetapi.Error) {
		return &experiment{core: newCore("experiment", id), spec: spec, baseline: baseline, shards: len(s.peers), arms: arms}, nil
	})
	if apiErr != nil {
		return nil, apiErr
	}
	go e.execute(s)
	s.reg.Counter(metricExpsStarted).Inc()
	s.log.Infof("experiment %d started: %d arms, baseline %q, shards=%d", e.id, len(e.arms), e.baseline, e.shards)
	return e, nil
}

// execute drives the arms to completion in order and records the outcome:
// the report bytes when every arm completed, the first failure otherwise.
func (e *experiment) execute(s *Server) {
	logf := s.log.Infof
	stats := make([]fleet.Stats, len(e.arms))
	accs := make([]*stability.Accumulator, len(e.arms))
	failure := ""
	complete := true
	for i, arm := range e.arms {
		// Building the execution (a local runner pays synchronous dataset
		// generation) happens outside the lock; status polls must not block
		// on it. Arms carry no trace of their own, and a coordinator's
		// re-probe logging stays at debug so a many-armed sweep doesn't
		// flood the log.
		var exec execution
		if failure == "" && !e.isCancelled() {
			exec, _ = s.newExecution(arm.spec, arm.cfg, "")
		}
		e.mu.Lock()
		if exec == nil || e.cancelled {
			arm.state = fleetapi.StateCancelled
			e.mu.Unlock()
			if exec != nil {
				exec.cancel() // built but never run; release its context
			}
			complete = false
			continue
		}
		e.live, arm.state = exec, fleetapi.StateRunning
		e.mu.Unlock()
		logf("experiment %d arm %q started: devices=%d", e.id, arm.name, arm.cfg.Devices)

		st, err := exec.execute()
		if e.cancelOnly(err) {
			st, err = exec.stats(), nil
		}
		done, _, captures := exec.progress()
		e.mu.Lock()
		e.live = nil
		arm.done, arm.captures = done, captures
		arm.state = sweepState(err, done, arm.cfg.Devices)
		switch arm.state {
		case fleetapi.StateFailed:
			arm.errMsg = err.Error()
			failure = fmt.Sprintf("arm %s: %v", arm.name, err)
		case fleetapi.StateDone:
			stats[i], accs[i] = st, exec.accumulator()
		}
		state := arm.state
		e.mu.Unlock()
		complete = complete && state == fleetapi.StateDone
		logf("experiment %d arm %q %s: %d/%d devices, %d captures",
			e.id, arm.name, state, done, arm.cfg.Devices, captures)
	}

	// Outcome: done (with a recorded report) only when every arm ran to
	// completion; the report's paired stats are meaningless with arms
	// missing.
	final := fleetapi.StateDone
	var docs map[string][]byte
	switch {
	case failure != "":
		final = fleetapi.StateFailed
	case !complete:
		final = fleetapi.StateCancelled
	default:
		// Built outside the lock: the report is O(arms × cells).
		b, err := buildReport(e.id, e.baseline, e.arms, stats, accs)
		if err != nil {
			final, failure = fleetapi.StateFailed, fmt.Sprintf("report: %v", err)
		} else {
			// Each arm's whole stats, in arm order: every entry is the bytes
			// /v1/runs/{id}/stats serves for that arm's spec.
			arms, _ := json.Marshal(stats)
			docs = map[string][]byte{"report": b, "arms": arms}
		}
	}
	e.finish(final, failure, 0, 0, docs)
	s.reg.Counter(metricExpsFinished, "state", final).Inc()
	logf("experiment %d %s", e.id, final)
}

// buildReport assembles and marshals the deterministic experiment report:
// per-arm stats from the executions (byte-identical across sharding, like
// run stats), paired comparisons and the agreement matrix from the folded
// accumulators.
func buildReport(id int, baseline string, arms []*armRun, stats []fleet.Stats, accs []*stability.Accumulator) ([]byte, error) {
	outcomes := make([]map[stability.Cell]stability.Outcome, len(arms))
	names := make([]string, len(arms))
	base := 0
	for i, arm := range arms {
		outcomes[i] = accs[i].Outcomes()
		names[i] = arm.name
		if arm.name == baseline {
			base = i
		}
	}
	rep := fleetapi.ExperimentReport{ID: id, Baseline: baseline}
	baseStats := stats[base]
	for i, arm := range arms {
		st := stats[i]
		ar := fleetapi.ArmReport{
			Name:             arm.name,
			Baseline:         i == base,
			Spec:             arm.spec,
			Devices:          st.DevicesDone,
			Captures:         st.Captures,
			Records:          st.Records,
			Accuracy:         st.Accuracy,
			TopKAccuracy:     st.TopKAccuracy,
			Top1:             st.Top1,
			DeltaAccuracy:    st.Accuracy - baseStats.Accuracy,
			DeltaInstability: st.Top1.Percent - baseStats.Top1.Percent,
		}
		if i != base {
			p := stability.ComparePair(outcomes[base], outcomes[i])
			ar.Paired = &p
		}
		rep.Arms = append(rep.Arms, ar)
	}
	rep.Agreement = fleetapi.AgreementMatrix{Arms: names, Rates: stability.Agreement(outcomes)}
	return json.Marshal(&rep)
}

// status renders the /v1 resource representation.
func (e *experiment) status() any {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := fleetapi.ExperimentStatus{
		ID:       e.id,
		State:    e.stateLocked(),
		Spec:     e.spec,
		Baseline: e.baseline,
		Shards:   e.shards,
		Error:    e.failure,
	}
	for _, arm := range e.arms {
		as := fleetapi.ArmStatus{
			Name:        arm.name,
			State:       arm.state,
			Spec:        arm.spec,
			Devices:     arm.cfg.Devices,
			DevicesDone: arm.done,
			Captures:    arm.captures,
			Error:       arm.errMsg,
		}
		if arm.state == fleetapi.StateRunning {
			as.DevicesDone, as.Captures = e.progressLocked()
		}
		st.Arms = append(st.Arms, as)
	}
	return st
}
