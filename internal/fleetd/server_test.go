package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/nn"
)

// testServer builds a server around a tiny untrained model; endpoint tests
// care about the HTTP contract, not accuracy.
func testServer(history int) *Server { return initSeedServer(history, 5) }

// initSeedServer is testServer with the model's weights drawn from seed.
func initSeedServer(history int, seed int64) *Server {
	arch := func() *nn.Model {
		cfg := nn.DefaultConfig(int(dataset.NumClasses))
		cfg.Width = 0.4
		return nn.NewMobileNetV2Micro(rand.New(rand.NewSource(seed)), cfg)
	}
	m := arch()
	return New(Options{Factory: fleet.BackendReplicator(arch, m), ModelParams: m.NumParams(), History: history})
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// v1Fixture is one in-process instance plus a client on it.
func v1Fixture(t *testing.T, history int) (*Server, *fleetapi.Client) {
	t.Helper()
	s := testServer(history)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, fleetapi.NewClient(ts.URL)
}

// coordinatorFixture stands up n worker instances sharing one model factory
// plus a coordinator fanning out to them.
func coordinatorFixture(t *testing.T, workers int) *fleetapi.Client {
	t.Helper()
	peers := make([]string, workers)
	for i := range peers {
		w := testServer(4)
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		peers[i] = ts.URL
	}
	coord := testServer(4)
	coord.peers = nil
	for _, p := range peers {
		coord.peers = append(coord.peers, fleetapi.NewClient(p))
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return fleetapi.NewClient(ts.URL)
}

var testSpec = fleetapi.RunSpec{Devices: 6, Items: 1, Angles: []int{0}, Seed: 3, Workers: 2}

func TestV1RunLifecycle(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()

	if _, err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := c.CreateRun(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || st.Devices != 6 || st.Spec.Seed != 3 {
		t.Fatalf("created status %+v", st)
	}
	st, err = c.WaitRun(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateDone || st.DevicesDone != 6 || st.Captures != 6 {
		t.Fatalf("final status %+v", st)
	}

	data, err := c.RunStats(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var stats fleet.Stats
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Records != 6 || stats.Config.Devices != 6 {
		t.Fatalf("stats %+v", stats)
	}

	runs, err := c.ListRuns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != 0 {
		t.Fatalf("list %+v", runs)
	}

	// The stream endpoint replays a finished run's final snapshot once.
	var lines [][]byte
	if err := c.StreamStats(ctx, st.ID, func(b []byte) error {
		lines = append(lines, append([]byte(nil), b...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !bytes.Equal(lines[0], data) {
		t.Fatalf("stream of finished run: %d lines", len(lines))
	}

	// DELETE evicts the finished run.
	if err := c.DeleteRun(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetRun(ctx, st.ID); err == nil {
		t.Fatal("deleted run still served")
	} else if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusNotFound {
		t.Fatalf("deleted run error %v", err)
	}
}

func TestV1Errors(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()

	if _, err := c.CreateRun(ctx, fleetapi.RunSpec{Runtime: "tpu"}); err == nil {
		t.Fatal("bad runtime accepted")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusBadRequest || e.Code != fleetapi.CodeBadRequest {
		t.Fatalf("bad runtime error %+v", e)
	}
	if _, err := c.GetRun(ctx, 99); err == nil {
		t.Fatal("missing run served")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusNotFound {
		t.Fatalf("missing run error %+v", e)
	}
	if _, err := c.RunStats(ctx, 99); err == nil {
		t.Fatal("missing run stats served")
	}

	// A misspelled spec field must 400, not silently launch a default run.
	resp, err := http.Post(c.BaseURL+"/v1/runs", "application/json",
		strings.NewReader(`{"device":5000,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown spec field accepted: %d", resp.StatusCode)
	}
	// So must an empty body — an all-defaults run is an explicit {}.
	resp, err = http.Post(c.BaseURL+"/v1/runs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body accepted: %d", resp.StatusCode)
	}

	// One run in flight at a time: a second create 409s while the first
	// runs.
	big := testSpec
	big.Devices, big.Workers = 200, 1
	st, err := c.CreateRun(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRun(ctx, testSpec); err == nil {
		t.Fatal("concurrent run accepted")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusConflict || e.Code != fleetapi.CodeConflict {
		t.Fatalf("conflict error %+v", e)
	}
	// Cancel it via DELETE; the run drains and reports cancelled.
	if err := c.DeleteRun(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitRun(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateCancelled || st.DevicesDone >= 200 {
		t.Fatalf("cancelled status %+v", st)
	}
}

func TestShardEndpoint(t *testing.T) {
	_, c := v1Fixture(t, 4)
	ctx := context.Background()
	spec := fleetapi.RunSpec{Devices: 10, Items: 1, Angles: []int{1}, Seed: 11, Workers: 2}

	// Range edge cases are 4xx: empty, lo==hi, inverted, beyond devices.
	for _, rng := range [][2]int{{0, 0}, {4, 4}, {7, 3}, {-1, 5}, {5, 11}} {
		_, err := c.RunShard(ctx, fleetapi.ShardSpec{RunSpec: spec, DeviceLo: rng[0], DeviceHi: rng[1]})
		if err == nil {
			t.Fatalf("shard range %v accepted", rng)
		}
		if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusBadRequest {
			t.Fatalf("shard range %v error %v", rng, err)
		}
	}

	// Two shards merged == the full run, byte for byte.
	full := fleet.NewRunner(spec.FleetConfig(), testServer(1).factory).Run().JSON()
	var states []*fleet.ContinuousState
	for _, rng := range [][2]int{{0, 4}, {4, 10}} {
		st, err := c.RunShard(ctx, fleetapi.ShardSpec{RunSpec: spec, DeviceLo: rng[0], DeviceHi: rng[1]})
		if err != nil {
			t.Fatal(err)
		}
		if st.DeviceLo != rng[0] || st.DeviceHi != rng[1] || len(st.Devices) != rng[1]-rng[0] {
			t.Fatalf("shard state range %d..%d devices %d", st.DeviceLo, st.DeviceHi, len(st.Devices))
		}
		states = append(states, st)
	}
	merged, _, err := fleet.MergedRun(spec.FleetConfig(), states...)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.JSON(); !bytes.Equal(got, full) {
		t.Fatalf("shard-merged stats diverged:\n%s\nvs\n%s", got, full)
	}
}

// TestCoordinatorMatchesSingleInstance is the end-to-end distributed
// property: a coordinator splitting one run across two worker instances
// must serve /v1/runs/{id}/stats byte-identical to the same run executed on
// a single instance.
func TestCoordinatorMatchesSingleInstance(t *testing.T) {
	spec := fleetapi.RunSpec{Devices: 30, Items: 1, Angles: []int{0, 2}, Seed: 21, Workers: 2}

	_, single := v1Fixture(t, 4)
	ctx := context.Background()
	st, err := single.CreateRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.WaitRun(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want, err := single.RunStats(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	coord := coordinatorFixture(t, 2)
	cst, err := coord.CreateRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Shards != 2 {
		t.Fatalf("coordinator fan-out %d shards, want 2", cst.Shards)
	}
	cst, err = coord.WaitRun(ctx, cst.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cst.State != fleetapi.StateDone || cst.DevicesDone != 30 {
		t.Fatalf("coordinator final status %+v", cst)
	}
	got, err := coord.RunStats(ctx, cst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator stats diverged from single instance:\n%s\nvs\n%s", got, want)
	}
}

// TestCoordinator500DeviceAcceptance is the acceptance-scale run: 500
// devices split across 2 shard instances, byte-identical to one instance.
// Skipped in -short mode (it is sized like the fleet golden tests).
func TestCoordinator500DeviceAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("500-device coordinator run skipped in -short mode")
	}
	spec := fleetapi.RunSpec{Devices: 500, Items: 1, Angles: []int{2}, Seed: 424242, Workers: 4}
	want := fleet.NewRunner(spec.FleetConfig(), testServer(1).factory).Run().JSON()

	coord := coordinatorFixture(t, 2)
	ctx := context.Background()
	st, err := coord.CreateRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = coord.WaitRun(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateDone || st.DevicesDone != 500 {
		t.Fatalf("final status %+v", st)
	}
	got, err := coord.RunStats(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("500-device coordinator stats diverged from single instance")
	}
}

// TestCoordinatorPeerFailure fails one worker mid-run: the run must land in
// state failed with a peer-attributed error, and its stats endpoint must
// return the run_failed envelope.
func TestCoordinatorPeerFailure(t *testing.T) {
	good := httptest.NewServer(testServer(4).Handler())
	t.Cleanup(good.Close)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeInternal, "worker exploded"))
	}))
	t.Cleanup(bad.Close)

	coord := testServer(4)
	coord.peers = []*fleetapi.Client{fleetapi.NewClient(good.URL), fleetapi.NewClient(bad.URL)}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	c := fleetapi.NewClient(ts.URL)

	ctx := context.Background()
	st, err := c.CreateRun(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitRun(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateFailed || !strings.Contains(st.Error, "worker exploded") {
		t.Fatalf("failed status %+v", st)
	}
	if _, err := c.RunStats(ctx, st.ID); err == nil {
		t.Fatal("failed run served stats")
	} else if e := err.(*fleetapi.Error); e.Code != fleetapi.CodeRunFailed {
		t.Fatalf("failed run stats error %+v", e)
	}

}

// TestPeerWithOtherWeightsIsRefused: one of a coordinator's two peers
// computes with weights drawn from init seed 6 instead of 5 — the same
// architecture and parameter count, so nothing but the weights tells it
// apart. Its cells would merge into a result that ends done and is wrong, so
// the probe refuses it: a run and a fleet both end failed, and the error
// names the peer and both digests.
func TestPeerWithOtherWeightsIsRefused(t *testing.T) {
	other := initSeedServer(4, 6)
	ts := httptest.NewServer(other.Handler())
	t.Cleanup(ts.Close)
	if h, err := fleetapi.NewClient(ts.URL).Healthz(context.Background()); err != nil || h.ModelSHA != other.modelSHA() {
		t.Fatalf("/healthz model_sha %q, %v; want %s", h.ModelSHA, err, other.modelSHA())
	}
	refusesPeer(t, other, other.Handler(), peerModelSHA)
}

// TestPeerSwappedAfterProbeIsRefused: a peer passes the probe and is then
// swapped for one with other weights — its /healthz answers from a
// same-weights instance, every other path from an init-seed-6 one. The shard
// specs carry the coordinator's model_sha, so the swapped peer refuses each
// shard before admitting it: a run and a fleet both end failed, the error
// names the peer and both digests, and the other weights start no shard.
func TestPeerSwappedAfterProbeIsRefused(t *testing.T) {
	other := initSeedServer(4, 6)
	swapped := http.NewServeMux()
	swapped.Handle("/healthz", testServer(4).Handler())
	swapped.Handle("/", other.Handler())
	refusesPeer(t, other, swapped, peerModelSHA)
	if n := other.reg.Counter(metricShardsStarted).Value(); n != 0 {
		t.Errorf("the swapped peer admitted %d shards", n)
	}
}

// TestPeerWithOtherCellsIsRefused: a peer with the same weights whose canary
// cells come out otherwise — its cell_digest forced to differ, as a sensor,
// codec or kernel computing other bits would make it — is refused by the
// probe, the error naming the peer and both cell digests. Swapped in after a
// same-cells peer answered the probe, it refuses the shard specs, which carry
// the coordinator's cell_digest, and starts no shard.
func TestPeerWithOtherCellsIsRefused(t *testing.T) {
	other := testServer(4)
	forced := strings.Repeat("0", 64)
	other.cellDigest = func() string { return forced }
	if ours := testServer(4); other.modelSHA() != ours.modelSHA() || ours.cellDigest() == forced {
		t.Fatal("the peers must have the same weights and differ in cell_digest")
	}
	ts := httptest.NewServer(other.Handler())
	t.Cleanup(ts.Close)
	if h, err := fleetapi.NewClient(ts.URL).Healthz(context.Background()); err != nil || h.CellDigest != forced {
		t.Fatalf("/healthz cell_digest %q, %v; want %s", h.CellDigest, err, forced)
	}
	refusesPeer(t, other, other.Handler(), peerCellDigest)
	swapped := http.NewServeMux()
	swapped.Handle("/healthz", testServer(4).Handler())
	swapped.Handle("/", other.Handler())
	refusesPeer(t, other, swapped, peerCellDigest)
	if n := other.reg.Counter(metricShardsStarted).Value(); n != 0 {
		t.Errorf("the swapped peer admitted %d shards", n)
	}
}

// TestCellDigest: the canary digest is a sha256 that a second computation on
// the same weights repeats — the instances of a process share one — and
// other weights change.
func TestCellDigest(t *testing.T) {
	s := testServer(4)
	a, again, other := s.cellDigest(), cellDigest(s.factory), initSeedServer(4, 6).cellDigest()
	if len(a) != 64 || a != again || a == other {
		t.Fatalf("cell_digest %s, recomputed %s, on other weights %s", a, again, other)
	}
}

// The digests a peer is refused on, read from a server.
func peerModelSHA(s *Server) string   { return s.modelSHA() }
func peerCellDigest(s *Server) string { return s.cellDigest() }

// refusesPeer runs a run and a fleet on a coordinator over a same-weights peer
// and bad, served by handler, and checks that both end failed with an error
// naming bad's URL and the coordinator's and other's values of digest, which
// must differ.
func refusesPeer(t *testing.T, other *Server, handler http.Handler, digest func(*Server) string) {
	t.Helper()
	good := httptest.NewServer(testServer(4).Handler())
	t.Cleanup(good.Close)
	bad := httptest.NewServer(handler)
	t.Cleanup(bad.Close)

	coord := testServer(4)
	coord.peers = []*fleetapi.Client{fleetapi.NewClient(good.URL), fleetapi.NewClient(bad.URL)}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	c := fleetapi.NewClient(ts.URL)
	ours, theirs := digest(coord), digest(other)
	if ours == theirs || coord.params != other.params {
		t.Fatalf("the peers must differ in the digest alone: %s and %s, %d and %d params", ours, theirs, coord.params, other.params)
	}
	refused := func(kind, state, msg string) {
		t.Helper()
		if state != fleetapi.StateFailed {
			t.Fatalf("%s over a foreign peer ended %s: %q", kind, state, msg)
		}
		for _, want := range []string{bad.URL, ours, theirs} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s error %q does not name %s", kind, msg, want)
			}
		}
	}

	ctx := context.Background()
	st, err := c.CreateRun(ctx, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.WaitRun(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	refused("run", st.State, st.Error)
	fst, err := c.CreateFleet(ctx, testFleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if fst, err = c.WaitFleet(ctx, fst.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	refused("fleet", fst.State, fst.Error)
}

// TestCoordinatorCancel checks cancellation parity between execution modes:
// DELETE on an in-flight coordinator run must land in state cancelled with
// a servable partial snapshot — not state failed from the peers' aborted
// shard requests.
func TestCoordinatorCancel(t *testing.T) {
	coord := coordinatorFixture(t, 2)
	ctx := context.Background()
	spec := fleetapi.RunSpec{Devices: 400, Items: 1, Angles: []int{0}, Seed: 9, Workers: 1}
	st, err := coord.CreateRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.DeleteRun(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	st, err = coord.WaitRun(waitCtx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateCancelled {
		t.Fatalf("coordinator run after DELETE: %+v", st)
	}
	if _, err := coord.RunStats(ctx, st.ID); err != nil {
		t.Fatalf("cancelled coordinator run stats: %v", err)
	}
}

// TestShardConcurrencyCap: shard admission rejects executions past the
// slot bound with a conflict envelope instead of building unbounded
// runners.
func TestShardConcurrencyCap(t *testing.T) {
	s, c := v1Fixture(t, 4)
	s.shardSlots = 0 // every request is one over the bound
	ctx := context.Background()
	_, err := c.RunShard(ctx, fleetapi.ShardSpec{
		RunSpec: fleetapi.RunSpec{Devices: 4, Items: 1, Angles: []int{0}}, DeviceLo: 0, DeviceHi: 4})
	if err == nil {
		t.Fatal("shard accepted past the slot bound")
	}
	if e, ok := err.(*fleetapi.Error); !ok || e.Status != http.StatusConflict {
		t.Fatalf("over-cap shard error %v", err)
	}
}

// TestCancelRunsDrains is the shutdown hook: CancelRuns on a server with an
// in-flight run must let the run finish promptly as cancelled.
func TestCancelRunsDrains(t *testing.T) {
	s, c := v1Fixture(t, 4)
	ctx := context.Background()
	spec := fleetapi.RunSpec{Devices: 300, Items: 1, Angles: []int{0}, Seed: 5, Workers: 1}
	st, err := c.CreateRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	s.CancelRuns()
	waitCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	st, err = c.WaitRun(waitCtx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateCancelled {
		t.Fatalf("state after CancelRuns: %+v", st)
	}
	// A shutting-down server refuses new work instead of accepting runs
	// the process exit would silently kill.
	if _, err := c.CreateRun(ctx, testSpec); err == nil {
		t.Fatal("run accepted after CancelRuns")
	} else if e := err.(*fleetapi.Error); e.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown create error %+v", e)
	}
	if _, err := c.RunShard(ctx, fleetapi.ShardSpec{
		RunSpec: fleetapi.RunSpec{Devices: 4, Items: 1, Angles: []int{0}}, DeviceLo: 0, DeviceHi: 4}); err == nil {
		t.Fatal("shard accepted after CancelRuns")
	}
}
