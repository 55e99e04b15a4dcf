package fleetd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleetapi"
)

// The fan-out's contract under peer faults, pinned through a coordinator
// whose peers sit behind faultyPeer: what a run or a fleet does when a shard
// reply is cut short, refused, slow or never comes, and what a client's poll
// loop does when a status poll is lost. faultyPeer is a test-side handler
// wrapper, so fleetd itself has no fault option.

// fault is what faultyPeer does to one request. The zero fault passes it
// through.
type fault struct {
	delay    time.Duration // wait this long first (or until the request ends)
	drop     bool          // close the connection before any header
	status   int           // answer this status instead of forwarding
	truncate int           // forward, but close the connection after this many body bytes (> 0)
	hang     bool          // hold the request until its context ends
}

// faultyPeer wraps an instance's handler and does to the requests of each
// path what the path's script says: the n-th request gets the n-th fault,
// and every request past the end of the script the last one. A path without
// a script is passed through.
type faultyPeer struct {
	next    http.Handler
	closed  chan struct{} // closed at cleanup: releases what still hangs or waits
	mu      sync.Mutex
	scripts map[string][]fault
	hits    map[string]int
}

// newFaultyPeer serves next behind a faultyPeer on an httptest server.
func newFaultyPeer(t *testing.T, next http.Handler, scripts map[string][]fault) (*faultyPeer, string) {
	t.Helper()
	p := &faultyPeer{next: next, closed: make(chan struct{}), scripts: scripts, hits: map[string]int{}}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(p.closed) }) // runs first: ts.Close waits for every handler
	return p, ts.URL
}

// count is the number of requests path has had.
func (p *faultyPeer) count(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[path]
}

func (p *faultyPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	var f fault
	if script := p.scripts[r.URL.Path]; len(script) > 0 {
		f = script[min(p.hits[r.URL.Path], len(script)-1)]
	}
	p.hits[r.URL.Path]++
	p.mu.Unlock()

	wait := func(d <-chan time.Time) bool {
		// The server notices a client hanging up only once the request body
		// has been read.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		select {
		case <-d:
			return true
		case <-r.Context().Done():
		case <-p.closed:
		}
		return false
	}
	if f.delay > 0 && !wait(time.After(f.delay)) {
		return
	}
	switch {
	case f.drop:
		panic(http.ErrAbortHandler) // net/http closes the connection, writing nothing
	case f.hang:
		wait(nil)
	case f.status != 0:
		http.Error(w, "injected fault", f.status)
	case f.truncate > 0:
		rec := httptest.NewRecorder()
		p.next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body[:min(f.truncate, len(body))])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	default:
		p.next.ServeHTTP(w, r)
	}
}

// faultyCoordinator stands up a coordinator over len(scripts) peers, peer i
// behind its own faultyPeer with scripts[i] (nil: no faults), and returns the
// coordinator's client, the peers and their URLs.
func faultyCoordinator(t *testing.T, scripts []map[string][]fault) (*fleetapi.Client, []*faultyPeer, []string) {
	t.Helper()
	coord := testServer(4)
	var peers []*faultyPeer
	var urls []string
	for _, script := range scripts {
		p, url := newFaultyPeer(t, testServer(4).Handler(), script)
		peers, urls = append(peers, p), append(urls, url)
		coord.peers = append(coord.peers, fleetapi.NewClient(url))
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return fleetapi.NewClient(ts.URL), peers, urls
}

// faultKind is what the fault tests drive of one fanned-out resource kind,
// runs or fleets: the peer path its shards go to, how a peer error names a
// shard, its spec's device count and the client calls on it (as method
// expressions, the client first), the statuses reduced to kindStatus.
type faultKind struct {
	shardPath, shard string
	devices          int
	create           func(*fleetapi.Client, context.Context) (kindStatus, error)
	get, wait        func(*fleetapi.Client, context.Context, int) (kindStatus, error)
	del              func(*fleetapi.Client, context.Context, int) error
	docs             []func(*fleetapi.Client, context.Context, int) ([]byte, error) // what must not move a byte
}

// kindStatus is the part of a RunStatus or FleetStatus the tests read.
type kindStatus struct {
	ID           int
	State, Error string
	DevicesDone  int
}

func runStatus(st fleetapi.RunStatus, err error) (kindStatus, error) {
	return kindStatus{st.ID, st.State, st.Error, st.DevicesDone}, err
}

func fleetStatus(st fleetapi.FleetStatus, err error) (kindStatus, error) {
	return kindStatus{st.ID, st.State, st.Error, st.DevicesDone}, err
}

// runKind is testSpec through /v1/runs, fleetKind testFleetSpec through
// /v1/fleets.
var (
	runKind = faultKind{
		shardPath: "/v1/shards", shard: "shard", devices: testSpec.Devices,
		create: func(c *fleetapi.Client, ctx context.Context) (kindStatus, error) {
			return runStatus(c.CreateRun(ctx, testSpec))
		},
		get: func(c *fleetapi.Client, ctx context.Context, id int) (kindStatus, error) {
			return runStatus(c.GetRun(ctx, id))
		},
		wait: func(c *fleetapi.Client, ctx context.Context, id int) (kindStatus, error) {
			return runStatus(c.WaitRun(ctx, id, 5*time.Millisecond))
		},
		del:  (*fleetapi.Client).DeleteRun,
		docs: []func(*fleetapi.Client, context.Context, int) ([]byte, error){(*fleetapi.Client).RunStats},
	}
	fleetKind = faultKind{
		shardPath: "/v1/fleetshards", shard: "fleet shard", devices: testFleetSpec.Devices,
		create: func(c *fleetapi.Client, ctx context.Context) (kindStatus, error) {
			return fleetStatus(c.CreateFleet(ctx, testFleetSpec))
		},
		get: func(c *fleetapi.Client, ctx context.Context, id int) (kindStatus, error) {
			return fleetStatus(c.GetFleet(ctx, id))
		},
		wait: func(c *fleetapi.Client, ctx context.Context, id int) (kindStatus, error) {
			return fleetStatus(c.WaitFleet(ctx, id, 5*time.Millisecond))
		},
		del:  (*fleetapi.Client).DeleteFleet,
		docs: []func(*fleetapi.Client, context.Context, int) ([]byte, error){(*fleetapi.Client).FleetReport, (*fleetapi.Client).FleetWindows, (*fleetapi.Client).FleetDrift},
	}
)

// run creates the kind's spec on c and waits for its final status.
func (k faultKind) run(t *testing.T, c *fleetapi.Client) kindStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := k.create(c, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = k.wait(c, ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetFailsOnBrokenShardReply: a shard reply cut short mid-body or
// refused with a 503 fails the whole fleet, and the failure names the peer
// and the device range it held.
func TestFleetFailsOnBrokenShardReply(t *testing.T) { failsOnBrokenShardReply(t, fleetKind) }

// TestRunFailsOnBrokenShardReply is TestFleetFailsOnBrokenShardReply for a
// run.
func TestRunFailsOnBrokenShardReply(t *testing.T) { failsOnBrokenShardReply(t, runKind) }

// failsOnBrokenShardReply: 6 devices over 3 peers put devices 2..4 on the
// middle one.
func failsOnBrokenShardReply(t *testing.T, k faultKind) {
	for name, f := range map[string]fault{"truncated": {truncate: 10}, "503": {status: http.StatusServiceUnavailable}} {
		t.Run(name, func(t *testing.T) {
			c, _, urls := faultyCoordinator(t, []map[string][]fault{nil, {k.shardPath: {f}}, nil})
			st := k.run(t, c)
			want := fmt.Sprintf("peer %s %s 2..4: ", urls[1], k.shard)
			if st.State != fleetapi.StateFailed || !strings.Contains(st.Error, want) {
				t.Fatalf("status %+v, want failed with %q", st, want)
			}
		})
	}
}

// TestFleetHungPeerEndsOnDelete: a peer that never answers its shard holds
// the fleet running; DELETE then ends it cancelled, promptly.
func TestFleetHungPeerEndsOnDelete(t *testing.T) { hungPeerEndsOnDelete(t, fleetKind) }

// TestRunHungPeerEndsOnDelete is TestFleetHungPeerEndsOnDelete for a run.
func TestRunHungPeerEndsOnDelete(t *testing.T) { hungPeerEndsOnDelete(t, runKind) }

func hungPeerEndsOnDelete(t *testing.T, k faultKind) {
	c, peers, _ := faultyCoordinator(t, []map[string][]fault{nil, {k.shardPath: {{hang: true}}}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := k.create(c, ctx)
	if err != nil {
		t.Fatal(err)
	}
	for peers[1].count(k.shardPath) == 0 {
		if ctx.Err() != nil {
			t.Fatal("nothing was dispatched to the hung peer")
		}
		time.Sleep(time.Millisecond)
	}
	// Long enough for the healthy peer's shard to land: the resource still
	// waits on the hung one.
	time.Sleep(200 * time.Millisecond)
	if st, err = k.get(c, ctx, st.ID); err != nil || st.State != fleetapi.StateRunning {
		t.Fatalf("status before DELETE %+v (%v), want running", st, err)
	}
	t0 := time.Now()
	if err := k.del(c, ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = k.wait(c, ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != fleetapi.StateCancelled {
		t.Fatalf("status after DELETE %+v, want cancelled", st)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("DELETE took %v to end it", d)
	}
}

// TestFleetDelayedPeerIsByteIdentical: a slow peer (and a slow probe) only
// delays the fleet; its report, windows and drift are still the unsharded
// instance's bytes.
func TestFleetDelayedPeerIsByteIdentical(t *testing.T) { delayedPeerIsByteIdentical(t, fleetKind) }

// TestRunDelayedPeerIsByteIdentical is TestFleetDelayedPeerIsByteIdentical
// for a run's stats.
func TestRunDelayedPeerIsByteIdentical(t *testing.T) { delayedPeerIsByteIdentical(t, runKind) }

func delayedPeerIsByteIdentical(t *testing.T, k faultKind) {
	ctx := context.Background()
	fetch := func(c *fleetapi.Client) [][]byte {
		t.Helper()
		st := k.run(t, c)
		if st.State != fleetapi.StateDone {
			t.Fatalf("state %+v", st)
		}
		var docs [][]byte
		for _, get := range k.docs {
			data, err := get(c, ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, data)
		}
		return docs
	}
	_, local := v1Fixture(t, 4)
	want := fetch(local)
	slow := []fault{{delay: 150 * time.Millisecond}}
	c, _, _ := faultyCoordinator(t, []map[string][]fault{{k.shardPath: slow, "/healthz": slow}, nil, nil})
	for i, got := range fetch(c) {
		if !bytes.Equal(got, want[i]) {
			t.Errorf("document %d diverged with a delayed peer:\n%s\nvs\n%s", i, got, want[i])
		}
	}
}

// TestWaitFleetPollsThroughDroppedPoll: a status poll whose connection is
// closed before any header, and one answered 503, do not end WaitFleet; it
// polls on to the fleet's final status.
func TestWaitFleetPollsThroughDroppedPoll(t *testing.T) {
	pollsThroughDroppedPoll(t, fleetKind, "/v1/fleets/0")
}

// TestWaitRunPollsThroughDroppedPoll is TestWaitFleetPollsThroughDroppedPoll
// for WaitRun.
func TestWaitRunPollsThroughDroppedPoll(t *testing.T) {
	pollsThroughDroppedPoll(t, runKind, "/v1/runs/0")
}

func pollsThroughDroppedPoll(t *testing.T, k faultKind, statusPath string) {
	front, url := newFaultyPeer(t, testServer(4).Handler(), map[string][]fault{
		statusPath: {{drop: true}, {status: http.StatusServiceUnavailable}, {}},
	})
	st := k.run(t, fleetapi.NewClient(url))
	if st.State != fleetapi.StateDone || st.DevicesDone != k.devices {
		t.Fatalf("final status %+v", st)
	}
	if n := front.count(statusPath); n < 3 {
		t.Fatalf("%d status polls, want the two faulted ones and one more", n)
	}
}
