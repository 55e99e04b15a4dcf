package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/fleetd"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/stability"
)

// shardedSpec is the continuous fleet the workload posts: churn on every
// device, and the whole first cohort's OS upgraded at UpgradeWindow — the
// fleet-operations event the drift detector exists to catch. Devices are
// dealt to the five base phones round-robin, so the cohort is every fifth.
func shardedSpec(r *run, devices, workers int) fleetapi.FleetSpec {
	cohorts := len(fleet.NewGenerator(0, 0, 1).Cohorts())
	var events []lifecycle.Event
	for id := 0; id < devices; id += cohorts {
		events = append(events, lifecycle.Event{Window: r.sz.UpgradeWindow, Device: id, Kind: lifecycle.KindOSUpgrade})
	}
	return fleetapi.FleetSpec{
		RunSpec: fleetapi.RunSpec{
			Devices: devices, Items: r.sz.ShardItems, Angles: r.sz.ShardAngles,
			Seed: r.mixedSeed(devices), Workers: workers,
		},
		Windows: r.sz.ShardWindows,
		Churn:   lifecycle.Churn{JoinRate: 0.1, LeaveRate: 0.1},
		Events:  events,
		Drift:   stability.DriftConfig{Baseline: 3},
	}
}

func shardedCells(r *run) cellSet {
	return cellSet{gridCells(r.sz.ShardDevices, r.sz.ShardItems, r.sz.ShardAngles),
		r.mixedSeed(r.sz.ShardDevices), r.sz.ShardItems, 2, ""}
}

// topology is what sharded_windows runs on: a coordinator fanning out to
// peers over loopback sockets, and the single instance its reports are
// checked and timed against.
type topology struct {
	peers       []*instance
	coordinator *instance
	single      *instance
}

func (t *topology) close() {
	for _, in := range append([]*instance{t.coordinator, t.single}, t.peers...) {
		in.close()
	}
}

// shardPeers is how many peers the coordinator fans out to.
const shardPeers = 2

// peerWorkers splits P between the peers, so that the coordinator's fleet
// and the single instance's get the same CPU.
func peerWorkers(r *run) int { return max(1, r.opt.procs/shardPeers) }

// newTopology builds the instances and warms them with a fleet of one
// device per peer, through the coordinator and on the single instance.
func newTopology(r *run) *topology {
	t := &topology{single: newInstance(r, fleetd.Options{}, true)}
	var urls []string
	for i := 0; i < shardPeers; i++ {
		p := newInstance(r, fleetd.Options{}, true)
		t.peers = append(t.peers, p)
		urls = append(urls, p.ts.URL)
	}
	t.coordinator = newInstance(r, fleetd.Options{Peers: urls}, true)
	for _, in := range []*instance{t.coordinator, t.single} {
		if _, _, _, err := postFleet(in.client, shardedSpec(r, shardPeers, 1)); err != nil {
			fatal(err)
		}
	}
	return t
}

// postFleet is one pass: POST /v1/fleets, wait, fetch the report. It returns
// the report bytes, the cells the fleet realized and the wall time from the
// POST to the last report byte.
func postFleet(c *fleetapi.Client, spec fleetapi.FleetSpec) ([]byte, int, time.Duration, error) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := c.CreateFleet(ctx, spec)
	if err != nil {
		return nil, 0, 0, err
	}
	if st, err = c.WaitFleet(ctx, st.ID, pollEvery); err != nil {
		return nil, 0, 0, err
	}
	if st.State != fleetapi.StateDone {
		return nil, 0, 0, &fleetapi.Error{Code: fleetapi.CodeRunFailed, Message: "fleet ended " + st.State + " " + st.Error}
	}
	report, err := fleetReport(ctx, c, st.ID)
	return report, st.Captures, time.Since(t0), err
}

// fleetReport fetches a finished fleet's report. fleetd shows a fleet as done
// from the moment its report is recorded, a little before the report can be
// fetched; until then it answers 409, and a client has to ask again.
func fleetReport(ctx context.Context, c *fleetapi.Client, id int) ([]byte, error) {
	report, err := c.FleetReport(ctx, id)
	var apiErr *fleetapi.Error
	for tries := 0; errors.As(err, &apiErr) && apiErr.Code == fleetapi.CodeConflict && tries < 200; tries++ {
		time.Sleep(pollEvery)
		report, err = c.FleetReport(ctx, id)
	}
	return report, err
}

func shardedEndToEnd(r *run) {
	t := setUp(r, func() *topology { return newTopology(r) }, (*topology).close)
	defer t.close()

	spec := shardedSpec(r, r.sz.ShardDevices, peerWorkers(r))
	var reports [][]byte
	cells := 0
	mem := r.readMemory()
	walls, speeds, failedPasses := timedPasses(r, func() (time.Duration, error) {
		b, captures, wall, err := postFleet(t.coordinator.client, spec)
		reports = append(reports, b)
		cells = max(cells, captures)
		return wall, err
	})
	r.emitMemory(mem, cells*len(walls))
	r.count(cells*(len(walls)+failedPasses), cells*failedPasses)
	r.emitCellRates(cells, walls, speeds)
	checkSharded(r, t, reports)
}

// checkSharded holds the passes to the determinism contract: every pass
// returned the same bytes, they equal the report of a single instance
// running the whole fleet, and the upgrade reached its window.
func checkSharded(r *run, t *topology, reports [][]byte) {
	if len(reports) == 0 {
		r.check(false, "no pass completed")
		return
	}
	same := true
	for _, b := range reports[1:] {
		same = same && bytes.Equal(b, reports[0])
	}
	r.check(same, "report bytes differ between passes")
	single, _, _, err := postFleet(t.single.client, shardedSpec(r, r.sz.ShardDevices, r.opt.procs))
	r.check(err == nil && bytes.Equal(single, reports[0]), "coordinator report differs from a single instance's (err %v)", err)

	var rep fleet.FleetReport
	if err := json.Unmarshal(reports[0], &rep); err != nil {
		r.check(false, "report does not parse: %v", err)
		return
	}
	// Whether the detector flags the upgrade depends on the seed at this
	// fleet size (a window holds under a hundred cells), so the check is that
	// the upgrade reached the window it was scheduled for; the flag is
	// printed.
	upgrades, flagged := 0, false
	if len(rep.Windows) > r.sz.UpgradeWindow {
		for _, ev := range rep.Windows[r.sz.UpgradeWindow].Events {
			if ev.Kind == lifecycle.KindOSUpgrade {
				upgrades++
			}
		}
	}
	for _, f := range rep.Drift.Flags {
		flagged = flagged || f.Window == r.sz.UpgradeWindow
	}
	want := len(shardedSpec(r, r.sz.ShardDevices, 1).Events)
	r.check(upgrades == want && len(rep.Windows) == r.sz.ShardWindows,
		"window %d lists %d OS upgrades, want %d; %d windows, want %d", r.sz.UpgradeWindow, upgrades, want, len(rep.Windows), r.sz.ShardWindows)
	r.printf("check: %d captures, upgrade window flagged: %v, flip rates %.3f\n", rep.Captures, flagged, rep.Drift.Rates)
}

// shardedLayers times the coordinator against a single instance, wraps the
// client calls of one coordinator pass in spans, runs each peer's shard
// directly and merges them, and times the windowed-state layers the fan-out
// stands on.
func shardedLayers(r *run) {
	t := setUp(r, func() *topology { return newTopology(r) }, (*topology).close)
	defer t.close()
	ctx := context.Background()
	spec := shardedSpec(r, r.sz.ShardDevices, peerWorkers(r))
	whole := shardedSpec(r, r.sz.ShardDevices, r.opt.procs)

	var coord, single []float64
	cells := 0
	for i := 0; i < r.sz.MinPasses; i++ {
		_, captures, wall, err := postFleet(t.coordinator.client, spec)
		if err != nil {
			r.fail("coordinator pass: %v", err)
		}
		cells = captures
		r.count(captures, 0)
		coord = append(coord, wall.Seconds())
		if _, _, wall, err = postFleet(t.single.client, whole); err != nil {
			r.fail("single-instance pass: %v", err)
		}
		single = append(single, wall.Seconds())
	}
	r.emit("cells_per_s", float64(cells)/metrics.Median(coord), nil)
	r.emit("fleetd.shard_overhead_share", 1-metrics.Median(single)/metrics.Median(coord), nil)

	// The traced pass: spans around the client's calls, then what the
	// coordinator does between them, done here by hand.
	tr := tracing{r.tracer, r.traceID}
	t0 := time.Now()
	pass := tr.start(nil, "bench.pass")
	sp := tr.start(pass, "fleetd.create_fleet")
	st, err := t.coordinator.client.CreateFleet(ctx, spec)
	sp.End()
	if err == nil {
		sp = tr.start(pass, "fleetd.wait_fleet")
		st, err = t.coordinator.client.WaitFleet(ctx, st.ID, pollEvery)
		sp.End()
	}
	if err == nil {
		sp = tr.start(pass, "fleetd.fleet_report")
		_, err = fleetReport(ctx, t.coordinator.client, st.ID)
		sp.End()
	}
	pass.End()
	if err != nil {
		r.fail("traced pass: %v", err)
	}
	r.emit("bench.trace_overhead_share", time.Since(t0).Seconds()/metrics.Median(coord)-1, nil)

	// Every peer at once, as the coordinator dispatches them.
	shards := tr.start(nil, "bench.shards")
	states := make([]*fleet.ContinuousState, len(t.peers))
	errs := make([]error, len(t.peers))
	var wg sync.WaitGroup
	for i, p := range t.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := fleetapi.FleetShardSpec{FleetSpec: spec,
				DeviceLo: r.sz.ShardDevices * i / len(t.peers), DeviceHi: r.sz.ShardDevices * (i + 1) / len(t.peers)}
			sp := tr.start(shards, "fleetd.fleet_shard", p.ts.URL)
			states[i], errs[i] = p.client.RunFleetShard(ctx, shard)
			sp.End()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		r.fail("direct shards: %v", err)
	}
	cfg := spec.ContinuousConfig()
	sp = tr.start(shards, "fleet.merged_report")
	if _, err := fleet.MergedFleetReport(cfg, states...); err != nil {
		r.fail("merging direct shards: %v", err)
	}
	sp.End()
	shards.End()

	probeWindowed(r, cfg)
}

// probeWindowed times the layers only this workload uses: the lifecycle
// schedule, the windowed accumulator and its wire state, the drift detector,
// and a continuous runner's state and merged report.
func probeWindowed(r *run, cfg fleet.ContinuousConfig) {
	calls := max(3, r.sz.ProbeCalls/10)
	r.emit("lifecycle.expand_ms", ms(timeCalls(calls, func() { cfg.LifecycleSpec().Expand() })), nil)

	records := cellRecords(shardedCells(r))
	var win *stability.Windowed
	add := timeCalls(calls, func() {
		win = stability.NewWindowed()
		for w := 0; w < r.sz.ShardWindows; w++ {
			win.AddAll(w, records)
		}
	})
	r.emit("stability.windowed_add_us", us(add)/float64(len(records)*r.sz.ShardWindows), nil)
	var state []byte
	r.emit("stability.marshal_ms", ms(timeCalls(calls, func() { state, _ = win.MarshalState() })), nil)
	r.emit("stability.state_kb", float64(len(state))/1024, nil)
	r.emit("stability.unmarshal_merge_ms", ms(timeCalls(calls, func() {
		other := stability.NewWindowed()
		if err := other.UnmarshalState(state); err != nil {
			fatal(err)
		}
		merged := stability.NewWindowed()
		merged.Merge(other)
	})), nil)
	rates := make([]float64, r.sz.ShardWindows)
	for w := range rates {
		rates[w] = 0.05 + 0.01*float64(w%3)
	}
	r.emit("stability.drift_us", us(timeCalls(r.sz.ProbeCalls, func() { stability.DetectDrift(rates, cfg.Drift) })), nil)

	cfg.Fleet.Workers = r.opt.procs
	runner, err := fleet.NewContinuousRunner(cfg, r.factory)
	if err != nil {
		fatal(err)
	}
	runner.Run()
	var wire []byte
	r.emit("fleet.cont_state_marshal_ms", ms(timeCalls(calls, func() { wire, _ = runner.MarshalState() })), nil)
	r.emit("fleet.merged_report_ms", ms(timeCalls(calls, func() {
		st, err := fleet.UnmarshalContinuousState(wire)
		if err != nil {
			fatal(err)
		}
		rep, err := fleet.MergedFleetReport(cfg, st)
		if err != nil {
			fatal(err)
		}
		rep.JSON()
	})), nil)
}
