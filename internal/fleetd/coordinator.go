package fleetd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/obs"
	"repro/internal/stability"
)

// fanOut executes one device sweep by splitting its device range into
// contiguous shards, one per peer instance, collecting each shard's state
// and merging them into Out (a run's Stats, a fleet's FleetReport). Because
// device i's profile, runtime and lifecycle depend only on (seed, i), and
// the merges replay the exact device-ID-ordered aggregation a single process
// would run, the merged result is byte-identical to an unsharded execution
// of the same spec.
type fanOut[Out any] struct {
	kind  string // "run" or "fleet": names the probe and merge spans
	shard string // "shard" or "fleet shard": names dispatch spans and peer errors
	total int    // devices in the whole sweep
	// modelSHA is the coordinator's weights digest: a shard state that ran
	// other weights is refused.
	modelSHA string
	peers    []*fleetapi.Client
	ranges   [][2]int // ranges[i] is the [lo, hi) dispatched to peers[i]

	// dispatch runs one shard on a peer; trace and parent go into its spec so
	// the peer's execute span joins the coordinator's trace.
	dispatch func(ctx context.Context, peer *fleetapi.Client, lo, hi int, trace, parent string) (*fleet.ContinuousState, error)
	merge    func([]*fleet.ContinuousState) (Out, error)

	// tracer/trace/parent record the coordinator-side lifecycle spans under
	// the resource's trace. An empty trace (experiment arms) disables span
	// recording. probe is the pre-dispatch health and weights check.
	tracer *obs.Tracer
	trace  string
	parent string
	probe  func(context.Context, []*fleetapi.Client) error

	ctx  context.Context
	stop context.CancelFunc

	mu     sync.Mutex
	states []*fleet.ContinuousState
}

// plan splits [0, total) into len(peers) near-equal contiguous chunks,
// skipping peers left empty when the fleet is smaller than the peer set.
func (f *fanOut[Out]) plan(peers []*fleetapi.Client) {
	f.ctx, f.stop = context.WithCancel(context.Background())
	f.parent = obs.SpanID(f.trace, f.kind)
	n := len(peers)
	for i, peer := range peers {
		lo, hi := f.total*i/n, f.total*(i+1)/n
		if lo == hi {
			continue
		}
		f.peers = append(f.peers, peer)
		f.ranges = append(f.ranges, [2]int{lo, hi})
	}
}

// execute probes every peer, fans the shards out concurrently and merges
// the returned states. The first peer failure cancels the remaining shard
// requests (workers observe the hung-up request and cancel their runners)
// and fails the sweep.
func (f *fanOut[Out]) execute() (Out, error) {
	defer f.stop()
	var none Out
	// Health-probe before dispatch: a dead peer fails the sweep immediately
	// with its name attached, instead of minutes into a sharded fleet with
	// a connection error buried inside a shard failure. The probe covers
	// exactly the peers this sweep would dispatch to.
	probe := f.tracer.Start(f.trace, f.parent, f.kind+".probe")
	err := f.probe(f.ctx, f.peers)
	probe.End()
	if err != nil {
		return none, err
	}
	errs := make(chan error, len(f.ranges))
	for i := range f.ranges {
		go func(peer *fleetapi.Client, lo, hi int) {
			// The dispatch span covers the whole shard round trip; the peer
			// records its execute span under the same trace, parented here,
			// so the cross-process trace nests dispatch → execute.
			span := f.tracer.Start(f.trace, f.parent, spanName(f.shard)+".dispatch", fmt.Sprintf("%d..%d", lo, hi)).
				SetAttr("peer", peer.BaseURL)
			state, err := f.dispatch(f.ctx, peer, lo, hi, f.trace, span.SpanID())
			span.End()
			if err == nil && state.ModelSHA != f.modelSHA {
				err = fmt.Errorf("state of model_sha %q, not the coordinator's %q", state.ModelSHA, f.modelSHA)
			}
			if err != nil {
				f.stop()
				errs <- fmt.Errorf("peer %s %s %d..%d: %w", peer.BaseURL, f.shard, lo, hi, err)
				return
			}
			f.mu.Lock()
			f.states = append(f.states, state)
			f.mu.Unlock()
			errs <- nil
		}(f.peers[i], f.ranges[i][0], f.ranges[i][1])
	}
	// The failing peer's error must win over its siblings': once one shard
	// fails, the cancel unblocks the others with context-cancellation
	// errors that can race ahead of the root cause on the channel.
	var firstErr error
	for range f.ranges {
		err := <-errs
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return none, firstErr
	}
	span := f.tracer.Start(f.trace, f.parent, f.kind+".merge")
	defer span.End()
	return f.merge(f.collected())
}

// spanName turns a shard label into its span-name prefix.
func spanName(shard string) string { return strings.ReplaceAll(shard, " ", "") }

// collected copies the states gathered so far; states only ever append.
func (f *fanOut[Out]) collected() []*fleet.ContinuousState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*fleet.ContinuousState(nil), f.states...)
}

// cancel aborts the in-flight shard requests.
func (f *fanOut[Out]) cancel() { f.stop() }

func (f *fanOut[Out]) progress() (done, total, captures int) {
	for _, st := range f.collected() {
		done, captures = done+len(st.Devices), captures+st.Captures
	}
	return done, f.total, captures
}

// coordExec is a run's fan-out, plus the two things only runs ask of one:
// partial stats while in flight and the merged accumulator after.
type coordExec struct {
	*fanOut[fleet.Stats]
	cfg fleet.Config

	// cached and acc are the merge of the first cachedN states, so snapshot
	// polling (streams tick twice a second) re-merges only when a new shard
	// has landed. Guarded by fanOut.mu.
	cached  *fleet.Stats
	acc     *stability.Accumulator
	cachedN int
}

// newCoordExec plans one run's shard split. trace may be empty (no span
// recording).
func newCoordExec(spec fleetapi.RunSpec, cfg fleet.Config, modelSHA string, cellDigest func() string, peers []*fleetapi.Client, tracer *obs.Tracer, trace string, probe func(context.Context, []*fleetapi.Client) error) *coordExec {
	c := &coordExec{cfg: cfg}
	c.fanOut = &fanOut[fleet.Stats]{
		kind: "run", shard: "shard", total: cfg.Devices, modelSHA: modelSHA, tracer: tracer, trace: trace, probe: probe,
		dispatch: func(ctx context.Context, peer *fleetapi.Client, lo, hi int, trace, parent string) (*fleet.ContinuousState, error) {
			return peer.RunShard(ctx, fleetapi.ShardSpec{RunSpec: spec, DeviceLo: lo, DeviceHi: hi, ModelSHA: modelSHA, CellDigest: cellDigest(), Trace: trace, Parent: parent})
		},
		merge: c.mergeRun,
	}
	c.plan(peers)
	return c
}

// mergeRun merges states and keeps the result unless a merge of more
// states is already kept.
func (c *coordExec) mergeRun(states []*fleet.ContinuousState) (fleet.Stats, error) {
	st, acc, err := fleet.MergedRun(c.cfg, states...)
	if err != nil {
		return st, err
	}
	c.mu.Lock()
	if len(states) >= c.cachedN {
		c.cached, c.acc, c.cachedN = &st, acc, len(states)
	}
	c.mu.Unlock()
	return st, nil
}

// stats merges the shard states collected so far — the same kind of partial
// snapshot an in-flight local runner serves, at shard granularity.
func (c *coordExec) stats() fleet.Stats {
	c.mu.Lock()
	if c.cached != nil && c.cachedN == len(c.states) {
		st := *c.cached
		c.mu.Unlock()
		return st
	}
	c.mu.Unlock()
	st, err := c.mergeRun(c.collected())
	if err != nil {
		return fleet.Stats{Config: c.cfg}
	}
	return st
}

func (c *coordExec) accumulator() *stability.Accumulator {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acc
}

// newCoordFleetExec plans one continuous fleet's shard split. Devices
// recompute their lifecycle schedules locally from the spec's seed, so the
// merged report — windows and drift included — needs nothing but the states.
func newCoordFleetExec(spec fleetapi.FleetSpec, cfg fleet.ContinuousConfig, modelSHA string, cellDigest func() string, peers []*fleetapi.Client, tracer *obs.Tracer, trace string, probe func(context.Context, []*fleetapi.Client) error) *fanOut[fleet.FleetReport] {
	f := &fanOut[fleet.FleetReport]{
		kind: "fleet", shard: "fleet shard", total: cfg.Fleet.Devices, modelSHA: modelSHA, tracer: tracer, trace: trace, probe: probe,
		dispatch: func(ctx context.Context, peer *fleetapi.Client, lo, hi int, trace, parent string) (*fleet.ContinuousState, error) {
			return peer.RunFleetShard(ctx, fleetapi.FleetShardSpec{FleetSpec: spec, DeviceLo: lo, DeviceHi: hi, ModelSHA: modelSHA, CellDigest: cellDigest(), Trace: trace, Parent: parent})
		},
		merge: func(states []*fleet.ContinuousState) (fleet.FleetReport, error) {
			return fleet.MergedFleetReport(cfg, states...)
		},
	}
	f.plan(peers)
	return f
}
