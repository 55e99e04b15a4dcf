package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/nn"
)

// goldenCells are the (device, item, angle, runtime) cells the identity test
// serves — a mix of runtimes so the formed batch splits into two inference
// groups.
var goldenCells = []fleetapi.ServeRequest{
	{Device: 0, Item: 0, Angle: 0, Seed: 42, Runtime: nn.RuntimeInt8},
	{Device: 1, Item: 1, Angle: 1, Seed: 42, Runtime: nn.RuntimeInt8},
	{Device: 2, Item: 2, Angle: 2, Seed: 42, Runtime: nn.RuntimeInt8},
	{Device: 3, Item: 3, Angle: 0, Seed: 42, Runtime: nn.RuntimeInt8},
	{Device: 4, Item: 4, Angle: 1, Seed: 42, Runtime: nn.RuntimeInt8},
	{Device: 5, Item: 5, Angle: 2, Seed: 42, Runtime: nn.RuntimeFloat32},
	{Device: 6, Item: 6, Angle: 0, Seed: 42, Runtime: nn.RuntimeFloat32},
	{Device: 7, Item: 7, Angle: 1, Seed: 42, Runtime: nn.RuntimeFloat32},
	// Duplicate of the first cell: in the batched leg it coalesces with it,
	// so the comparison also pins coalesced responses to solo bytes.
	{Device: 0, Item: 0, Angle: 0, Seed: 42, Runtime: nn.RuntimeInt8},
}

// TestServeBatchGoldenIdentity is the batching contract: a prediction served
// out of a formed batch is byte-identical to the same cell served alone.
// Captures are cell-seeded and activations quantize per sample, so batch
// membership must never leak into Pred, Score, Bytes or TrueClass. The test
// serves the same cells through a batch-16 server (concurrently, so they
// batch) and a batch-1 server (sequentially), and diffs the payloads.
func TestServeBatchGoldenIdentity(t *testing.T) {
	batchedClass := fleetapi.SLOClass{
		Name: "golden", TargetNanos: 2_000_000_000, RatePerSec: 1000, Burst: 100,
		QueueDepth: 64, MaxBatch: 16, LingerMillis: 700,
	}
	soloClass := batchedClass
	soloClass.MaxBatch, soloClass.LingerMillis = 0, 0 // today's one-job-per-wake behavior

	batched := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{batchedClass}})
	defer batched.CancelRuns()
	solo := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{soloClass}})
	defer solo.CancelRuns()
	tsBatched := httptest.NewServer(batched.Handler())
	defer tsBatched.Close()
	tsSolo := httptest.NewServer(solo.Handler())
	defer tsSolo.Close()

	// Batched leg: all cells in flight at once; the single worker lingers the
	// batch open until they all join.
	got := make([]fleetapi.ServeResponse, len(goldenCells))
	errs := make([]error, len(goldenCells))
	var wg sync.WaitGroup
	client := fleetapi.NewClient(tsBatched.URL)
	for i, req := range goldenCells {
		wg.Add(1)
		go func(i int, req fleetapi.ServeRequest) {
			defer wg.Done()
			got[i], errs[i] = client.Serve(context.Background(), req)
		}(i, req)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batched serve of cell %d: %v", i, err)
		}
	}

	// Solo leg: same cells, one at a time, batch size pinned to 1.
	ref := fleetapi.NewClient(tsSolo.URL)
	maxBatch := 0
	for i, req := range goldenCells {
		want, err := ref.Serve(context.Background(), req)
		if err != nil {
			t.Fatalf("solo serve of cell %d: %v", i, err)
		}
		if want.BatchSize != 1 {
			t.Fatalf("solo cell %d rode batch %d, want 1", i, want.BatchSize)
		}
		g := got[i]
		if g.Pred != want.Pred || g.Score != want.Score || g.Bytes != want.Bytes ||
			g.TrueClass != want.TrueClass || g.Runtime != want.Runtime {
			t.Fatalf("cell %d diverges under batching:\n  batched %+v\n  solo    %+v", i, g, want)
		}
		if g.BatchSize > maxBatch {
			maxBatch = g.BatchSize
		}
	}
	if maxBatch <= 1 {
		t.Fatalf("no cell rode a batch >1 (max %d); batching never engaged", maxBatch)
	}

	// The live SLO report sees the batching: mean executed batch above 1, and
	// Jain fairness 1 for a single served class.
	rep, err := client.SLO(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 1 {
		t.Fatalf("report classes %d, want 1", len(rep.Classes))
	}
	if rep.Classes[0].MeanBatch <= 1 {
		t.Fatalf("reported mean batch %g, want >1", rep.Classes[0].MeanBatch)
	}
	if rep.Fairness != 1 {
		t.Fatalf("fairness %g with one served class, want 1", rep.Fairness)
	}
}

// TestServeBatchDrainOnShutdown: jobs already pulled into a forming batch
// when shutdown lands must still be answered 503, exactly like the ones left
// queued — a lingering batch is not a place requests can vanish.
func TestServeBatchDrainOnShutdown(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{{
		Name: "forming", TargetNanos: 1_000_000_000, RatePerSec: 1000, Burst: 100,
		QueueDepth: 16, MaxBatch: 8, LingerMillis: 900,
	}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 3 jobs against MaxBatch 8: the worker collects them and lingers 900ms
	// waiting for followers — the batch is still forming when CancelRuns hits.
	const n = 3
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postServe(t, ts, fleetapi.ServeRequest{Device: i, Item: 0})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(150 * time.Millisecond)
	s.CancelRuns()
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Errorf("request %d: status %d, want 503", i, code)
		}
	}
}

// TestCollectBatchPriority drives batch formation directly: with both queues
// full, every pass the high-priority class has a queued job it wins the
// whole batch — lower classes see a worker only once the earlier queue is
// empty.
func TestCollectBatchPriority(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{
		{Name: "hi", TargetNanos: 1_000_000_000, RatePerSec: 1000, Burst: 100, QueueDepth: 16, MaxBatch: 4},
		{Name: "lo", TargetNanos: 2_000_000_000, RatePerSec: 1000, Burst: 100, QueueDepth: 16, MaxBatch: 4},
	}})
	defer s.CancelRuns()
	// Park the workers so this test is the only drainer, then enqueue by hand.
	s.stopServe()
	s.serve.wg.Wait()
	enqueue := func(name string, n int) {
		class := s.serve.byName[name]
		for i := 0; i < n; i++ {
			class.queue <- &serveJob{
				req:   fleetapi.ServeRequest{Device: i, Item: 0, Class: name},
				class: class, enq: time.Now(), ctx: context.Background(),
				done: make(chan serveResult, 1),
			}
			class.depth.Add(1)
		}
	}
	enqueue("hi", 6)
	enqueue("lo", 3)

	classOf := func(batch []*serveJob) string {
		name := batch[0].class.spec.Name
		for _, job := range batch {
			if job.class.spec.Name != name {
				t.Fatalf("mixed-class batch: %q and %q", name, job.class.spec.Name)
			}
		}
		return name
	}

	// Pass 1: hi fills its whole batch; no linger needed, so not stopping.
	batch, stopping := s.collectBatch()
	if classOf(batch) != "hi" || len(batch) != 4 || stopping {
		t.Fatalf("pass 1: %d %s jobs (stopping=%v), want 4 hi", len(batch), classOf(batch), stopping)
	}
	// Pass 2: hi still has jobs, so lo keeps starving; the short batch
	// lingers and the closed stop channel interrupts it.
	batch, stopping = s.collectBatch()
	if classOf(batch) != "hi" || len(batch) != 2 || !stopping {
		t.Fatalf("pass 2: %d %s jobs (stopping=%v), want 2 hi interrupted", len(batch), classOf(batch), stopping)
	}
	// Pass 3: only now does lo get a worker.
	batch, stopping = s.collectBatch()
	if classOf(batch) != "lo" || len(batch) != 3 || !stopping {
		t.Fatalf("pass 3: %d %s jobs (stopping=%v), want 3 lo interrupted", len(batch), classOf(batch), stopping)
	}
	for _, class := range s.serve.classes {
		if len(class.queue) != 0 {
			t.Fatalf("class %q still has %d queued jobs", class.spec.Name, len(class.queue))
		}
	}
}

// TestServeBatchCoalescing: jobs in one formed batch naming the same cell
// are captured and inferred once, and every coalesced job receives the
// identical payload — responses are pure functions of the cell coordinate.
// The last job spells cell A's default scale out (2, where the others omit
// it): one universe, so it coalesces too.
func TestServeBatchCoalescing(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1})
	defer s.CancelRuns()
	s.stopServe()
	s.serve.wg.Wait()

	cellA := fleetapi.ServeRequest{Device: 1, Item: 2, Angle: 0, Seed: 42, Runtime: nn.RuntimeInt8}
	cellB := fleetapi.ServeRequest{Device: 3, Item: 4, Angle: 1, Seed: 42, Runtime: nn.RuntimeInt8}
	cellAScale2 := cellA
	cellAScale2.Scale = 2
	jobs := testJobs(s.serve.classes[0], context.Background(), cellA, cellB, cellA, cellB, cellAScale2)
	executeBatch(s, jobs, new(cellWorker))
	results := answers(t, jobs)
	if got := s.tele.Captures.Value(); got != 2 {
		t.Fatalf("batch of 5 jobs over 2 cells made %d captures, want 2", got)
	}
	// One bundle: the scale-2 key hits, and no scale-0 key was made.
	missed := map[int]bool{}
	for _, scale := range []int{2, 0} {
		key := bundleKey{seed: cellA.Seed, items: itemsOrDefault(0), scale: scale}
		s.serve.bundles.GetOrCompute(key, func() *serveBundle { missed[scale] = true; return nil })
	}
	if missed[2] || !missed[0] {
		t.Fatalf("bundle cache missed scale 2: %v, scale 0: %v; want one bundle, at scale 2", missed[2], missed[0])
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}, {0, 4}} {
		if a, b := payload(results[pair[0]]), payload(results[pair[1]]); a != b {
			t.Fatalf("coalesced jobs %v answer with different bytes:\n  %s\n  %s", pair, a, b)
		}
	}
	for i, want := range []int{3, 2, 3, 2, 3} {
		if got := results[i].BatchSize; got != want {
			t.Fatalf("job %d rode batch %d, want %d (the jobs its cell's one computation answered)", i, got, want)
		}
	}
}

// executeBatch is a worker's part in serving a formed batch while no other
// worker runs: register it, then compute pending cells until none is left.
func executeBatch(s *Server, jobs []*serveJob, w *cellWorker) {
	s.register(jobs)
	for f := s.takeFlight(); f != nil; f = s.takeFlight() {
		s.computeFlight(f, w)
	}
}

// testJobs builds one admitted job of the class for each request.
func testJobs(class *serveClass, ctx context.Context, reqs ...fleetapi.ServeRequest) []*serveJob {
	jobs := make([]*serveJob, len(reqs))
	for i, req := range reqs {
		jobs[i] = &serveJob{req: req, class: class, enq: time.Now(), ctx: ctx, done: make(chan serveResult, 1)}
	}
	return jobs
}

// answers receives every job's result and fails the test on an error reply.
func answers(t *testing.T, jobs []*serveJob) []fleetapi.ServeResponse {
	t.Helper()
	out := make([]fleetapi.ServeResponse, len(jobs))
	for i, job := range jobs {
		res := <-job.done
		if res.err != nil {
			t.Fatalf("job %d: %v", i, res.err)
		}
		out[i] = res.resp
	}
	return out
}

// payload is a response less the two times that are the job's own: the
// prediction, the compressed size and the stage times of the one capture and
// the one inference share the coalesced jobs were given.
func payload(r fleetapi.ServeResponse) string {
	r.QueueNanos, r.TotalNanos = 0, 0
	b, _ := json.Marshal(r)
	return string(b)
}

// TestServeCoalescesAcrossWorkers: one worker registers a batch and starts
// computing its cell; a second worker then forms a batch naming the same cell
// twice. The later jobs join the running computation instead of queueing the
// cell again, so the cell is captured exactly once and all three jobs get the
// same payload, each reporting the three jobs the computation answered.
func TestServeCoalescesAcrossWorkers(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 2})
	defer s.CancelRuns()
	s.stopServe()
	s.serve.wg.Wait()

	class := s.serve.classes[0]
	cell := fleetapi.ServeRequest{Device: 1, Item: 2, Angle: 0, Seed: 42, Runtime: nn.RuntimeInt8}
	first := testJobs(class, context.Background(), cell)
	second := testJobs(class, context.Background(), cell, cell)
	const queued = 20 * time.Millisecond
	for _, job := range second {
		job.enq = job.enq.Add(-queued)
	}

	s.register(first)
	running := s.takeFlight()
	s.register(second)
	if again := s.takeFlight(); again != nil {
		t.Fatalf("the running cell was queued again with %d jobs", len(again.jobs))
	}
	s.computeFlight(running, new(cellWorker))

	results := answers(t, append(first, second...))
	if got := s.tele.Captures.Value(); got != 1 {
		t.Fatalf("two batches naming one cell made %d captures, want 1", got)
	}
	for i, r := range results {
		if payload(r) != payload(results[0]) {
			t.Fatalf("job %d answers with different bytes:\n  %s\n  %s", i, payload(r), payload(results[0]))
		}
		if r.BatchSize != len(results) {
			t.Fatalf("job %d rode batch %d, want %d", i, r.BatchSize, len(results))
		}
	}
	// A joiner's queue wait runs from admission to the join, before the
	// capture it shares.
	for i, r := range results[len(first):] {
		stages := r.StageNanos.Sensor + r.StageNanos.ISP + r.StageNanos.Codec
		if r.QueueNanos < queued.Nanoseconds() || r.QueueNanos+stages > r.TotalNanos {
			t.Fatalf("joiner %d: queue %d ns, capture %d ns, total %d ns", i, r.QueueNanos, stages, r.TotalNanos)
		}
	}
	if n := len(s.serve.flights); n != 0 {
		t.Fatalf("%d flights left in the table after the answer", n)
	}
}

// TestServeDrainFailsPendingCells: on shutdown, a job waiting on a pending
// cell — the one that started the flight and the one that joined it — is
// answered 503 like a queued job, none is left waiting and no cell is
// captured.
func TestServeDrainFailsPendingCells(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1})
	defer s.CancelRuns()
	s.stopServe()
	s.serve.wg.Wait()

	cellA := fleetapi.ServeRequest{Device: 1, Item: 2, Seed: 42, Runtime: nn.RuntimeInt8}
	cellB := fleetapi.ServeRequest{Device: 3, Item: 4, Seed: 42, Runtime: nn.RuntimeInt8}
	jobs := testJobs(s.serve.classes[0], context.Background(), cellA, cellB, cellA)
	s.register(jobs)
	s.drainServe()
	for i, job := range jobs {
		select {
		case res := <-job.done:
			if res.err == nil || res.err.Status != http.StatusServiceUnavailable {
				t.Fatalf("job %d: got %+v, want a 503", i, res)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d was never answered", i)
		}
	}
	if got := s.tele.Captures.Value(); got != 0 {
		t.Fatalf("drained cells made %d captures", got)
	}
	if n := len(s.serve.flights); n != 0 {
		t.Fatalf("%d flights left in the table after the drain", n)
	}
}

// TestServeQueuedJobNeedsNoWakeToken: a wake-up is a hint, so a job left in
// a queue without one is still served — a worker looks for queued jobs after
// every cell it computes. Here a job is queued by hand with no wake-up, and a
// request behind it posts the only one. On a max_batch 1 class the worker
// serves the hand-queued job first, then must come back for the request.
func TestServeQueuedJobNeedsNoWakeToken(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{
		{Name: "solo", TargetNanos: 10_000_000_000, RatePerSec: 1000, Burst: 100, QueueDepth: 16},
	}})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	class := s.serve.classes[0]
	queued := testJobs(class, context.Background(), fleetapi.ServeRequest{Device: 1, Item: 2, Seed: 42, Runtime: nn.RuntimeInt8})
	class.queue <- queued[0]
	class.depth.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := fleetapi.NewClient(ts.URL).Serve(ctx, fleetapi.ServeRequest{Device: 3, Item: 4, Seed: 42, Runtime: nn.RuntimeInt8}); err != nil {
		t.Fatalf("request behind a hand-queued job: %v", err)
	}
	answers(t, queued)
}

// TestServeClientGoneCostsNoCapture: a cell whose clients all hung up while
// it was pending leaves the table without a capture and its jobs are
// answered 503; the live cell beside it is still computed.
func TestServeClientGoneCostsNoCapture(t *testing.T) {
	s := serveTestServer(ServeOptions{Workers: 1})
	defer s.CancelRuns()
	s.stopServe()
	s.serve.wg.Wait()

	class := s.serve.classes[0]
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	cellA := fleetapi.ServeRequest{Device: 1, Item: 2, Seed: 42, Runtime: nn.RuntimeInt8}
	cellB := fleetapi.ServeRequest{Device: 3, Item: 4, Seed: 42, Runtime: nn.RuntimeInt8}
	dead := testJobs(class, gone, cellA, cellA)
	live := testJobs(class, context.Background(), cellB)
	executeBatch(s, append(dead, live...), new(cellWorker))
	for i, job := range dead {
		if res := <-job.done; res.err == nil || res.err.Status != http.StatusServiceUnavailable {
			t.Fatalf("hung-up job %d: got %+v, want a 503", i, res)
		}
	}
	if r := answers(t, live)[0]; r.BatchSize != 1 {
		t.Fatalf("live job rode batch %d, want 1", r.BatchSize)
	}
	if got := s.tele.Captures.Value(); got != 1 {
		t.Fatalf("made %d captures, want 1 (the live cell only)", got)
	}
}

// TestServeCoalescingStress fires 32 concurrent clients over 4 cells at 2
// workers; it is meant for -race. Every reply must equal the cell served
// alone through a max_batch 1 class, fewer cells must be captured than
// requests answered, and each job must be answered exactly once: a
// computation answers the batch its replies report, so the replies' 1/batch
// add up to the captures.
func TestServeCoalescingStress(t *testing.T) {
	open := fleetapi.SLOClass{TargetNanos: 10_000_000_000, RatePerSec: 1e6, Burst: 1 << 20, QueueDepth: 256}
	hot, solo := open, open
	hot.Name, hot.MaxBatch, hot.LingerMillis = "hot", 4, 1
	solo.Name = "solo"
	s := serveTestServer(ServeOptions{Workers: 2, Classes: []fleetapi.SLOClass{hot, solo}})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := fleetapi.NewClient(ts.URL)
	ctx := context.Background()

	cells := make([]fleetapi.ServeRequest, 4)
	want := make([]string, len(cells))
	for i := range cells {
		cells[i] = fleetapi.ServeRequest{Device: i, Item: i, Angle: i % 3, Seed: 42, Runtime: nn.Runtimes()[i%3], Class: "solo"}
		r, err := c.Serve(ctx, cells[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.BatchSize != 1 {
			t.Fatalf("cell %d served alone rode batch %d", i, r.BatchSize)
		}
		r.Class = "hot"
		want[i] = payloadLessTimes(r)
		cells[i].Class = "hot"
	}

	const callers, rounds = 32, 3
	replies := make([]fleetapi.ServeResponse, callers*rounds)
	errs := make([]error, len(replies))
	before := s.tele.Captures.Value()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := g*rounds + r
				replies[i], errs[i] = c.Serve(ctx, cells[i%len(cells)])
			}
		}()
	}
	wg.Wait()
	captures := s.tele.Captures.Value() - before

	computations := 0.0
	for i, r := range replies {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got := payloadLessTimes(r); got != want[i%len(cells)] {
			t.Fatalf("request %d diverges from the cell served alone:\n  %s\n  %s", i, got, want[i%len(cells)])
		}
		computations += 1 / float64(r.BatchSize)
	}
	if captures >= int64(len(replies)) {
		t.Fatalf("%d captures for %d requests: nothing coalesced", captures, len(replies))
	}
	if math.Abs(computations-float64(captures)) > 1e-9 {
		t.Fatalf("replies account for %.3f computations, %d captures were made", computations, captures)
	}
}

// TestServeCompilesOneBackendPerRuntime pins the serve leg's sharing: four
// workers answering concurrent requests on all three runtimes call the
// factory once per runtime, each inferring through the one backend in its
// own scratch, and every reply is the one the cell gets served alone.
func TestServeCompilesOneBackendPerRuntime(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	open := fleetapi.SLOClass{Name: "open", TargetNanos: 10_000_000_000, RatePerSec: 1e6, Burst: 1 << 20, QueueDepth: 256}
	s := serveTestServerWith(ServeOptions{Workers: 4, Classes: []fleetapi.SLOClass{open}}, func(base fleet.BackendFactory) fleet.BackendFactory {
		return func(runtime string) nn.Backend {
			mu.Lock()
			calls[runtime]++
			mu.Unlock()
			return base(runtime)
		}
	})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := fleetapi.NewClient(ts.URL)
	ctx := context.Background()

	const callers, cells = 12, 6
	replies := make([]fleetapi.ServeResponse, callers*cells)
	errs := make([]error, len(replies))
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				k := g*cells + i
				replies[k], errs[k] = c.Serve(ctx, fleetapi.ServeRequest{Device: k % 9, Item: i, Seed: 42, Runtime: nn.Runtimes()[k%3]})
			}
		}()
	}
	wg.Wait()
	for k, r := range replies {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		alone, err := c.Serve(ctx, fleetapi.ServeRequest{Device: k % 9, Item: k % cells, Seed: 42, Runtime: nn.Runtimes()[k%3]})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := payloadLessTimes(r), payloadLessTimes(alone); got != want {
			t.Fatalf("request %d diverges from the cell served alone:\n  %s\n  %s", k, got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, rt := range nn.Runtimes() {
		if calls[rt] != 1 {
			t.Errorf("factory ran %d times for %s, want once for the serve leg", calls[rt], rt)
		}
	}
	if len(calls) != len(nn.Runtimes()) {
		t.Errorf("factory calls %v", calls)
	}
}

// payloadLessTimes is a reply less everything measured: what must be equal
// however the cell's computation was shared.
func payloadLessTimes(r fleetapi.ServeResponse) string {
	r.BatchSize, r.StageNanos = 0, fleetapi.ServeStageNanos{}
	return payload(r)
}

// TestTokenBucketFirstCallBurst pins the bucket's cold-start semantics: the
// first take sees a full burst, draining it sheds with the exact time until
// one token accrues, and that advice is honest — retrying after it succeeds.
func TestTokenBucketFirstCallBurst(t *testing.T) {
	b := &tokenBucket{rate: 10, burst: 3}
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d within burst shed", i)
		}
	}
	ok, retry := b.take(now)
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if want := 100 * time.Millisecond; retry != want {
		t.Fatalf("retry-after %v, want %v (1 token at 10/s)", retry, want)
	}
	if ok, _ := b.take(now.Add(retry)); !ok {
		t.Fatal("take after the advertised retry shed")
	}
}

// TestTokenBucketRetryAfterClamp: a class at a vanishing rate computes years
// of backoff — the shed reply must clamp it to maxRetryAfter, including when
// the duration conversion itself overflows.
func TestTokenBucketRetryAfterClamp(t *testing.T) {
	now := time.Unix(1000, 0)
	for _, rate := range []float64{1e-9, 1e-300} {
		b := &tokenBucket{rate: rate, burst: 1}
		if ok, _ := b.take(now); !ok {
			t.Fatalf("rate %g: burst token shed", rate)
		}
		ok, retry := b.take(now)
		if ok {
			t.Fatalf("rate %g: empty bucket admitted", rate)
		}
		if retry != maxRetryAfter {
			t.Fatalf("rate %g: retry-after %v, want clamp to %v", rate, retry, maxRetryAfter)
		}
	}
}

// TestServeBatchAllocCeiling pins the allocation count of one batched serve
// execute (8 int8 jobs on 8 cells: registration, captures, one inference a
// cell, replies) so the batch path cannot quietly grow per-job allocations.
// Steady state measures 8/op — each inference's probability row; flights and
// their job lists are pooled. The ceiling leaves slack only for pool-refill
// noise.
const serveBatchAllocCeiling = 29

func TestServeBatchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; alloc counts are not steady-state")
	}
	s := serveTestServer(ServeOptions{Workers: 1})
	defer s.CancelRuns()
	s.stopServe()
	s.serve.wg.Wait()

	class := s.serve.classes[0]
	w := new(cellWorker)
	jobs := make([]*serveJob, 8)
	for i := range jobs {
		jobs[i] = &serveJob{
			req:   fleetapi.ServeRequest{Device: i, Item: i % 8, Angle: i % 3, Seed: 42, Runtime: nn.RuntimeInt8},
			class: class, ctx: context.Background(), done: make(chan serveResult, 1),
		}
	}
	execute := func() {
		for _, job := range jobs {
			job.enq = time.Now()
		}
		executeBatch(s, jobs, w)
		for _, job := range jobs {
			<-job.done
		}
	}
	// Warm the bundle LRU, backend LRU and image pools before measuring.
	for i := 0; i < 8; i++ {
		execute()
	}
	if avg := testing.AllocsPerRun(50, execute); avg > serveBatchAllocCeiling {
		t.Fatalf("batched serve execute allocates %.1f/op, ceiling %d", avg, serveBatchAllocCeiling)
	}
}

// discardWriter is a ResponseWriter that keeps nothing and reuses its header
// map, so that a request's allocations are the server's alone.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// rewindBody is a request body that can be read again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestServeRequestAllocCeiling pins the allocations of one POST /v1/serve
// through Server.Handler() in process — route, decode, admission, worker,
// reply — on a reused request and ResponseWriter. Steady state measures
// 5/op: the inference's probability row, the batch the worker collects, and
// on the handler's side the status recorder, the body bound and the
// Content-Type header; the ceiling leaves slack only for pool-refill noise.
const serveRequestAllocCeiling = 24

func TestServeRequestAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; alloc counts are not steady-state")
	}
	s := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{
		{Name: "open", TargetNanos: 1_000_000_000, RatePerSec: 1e9, Burst: 1 << 20, QueueDepth: 64},
	}})
	defer s.CancelRuns()
	h := s.Handler()
	body, _ := json.Marshal(fleetapi.ServeRequest{Device: 3, Item: 1, Angle: 2, Seed: 42, Runtime: nn.RuntimeInt8})
	req := httptest.NewRequest(http.MethodPost, "/v1/serve", nil)
	rb := &rewindBody{}
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rb.Reset(body)
		req.Body = rb
		clear(w.header)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	for i := 0; i < 8; i++ {
		serve()
	}
	if avg := testing.AllocsPerRun(50, serve); avg > serveRequestAllocCeiling {
		t.Fatalf("one served request allocates %.1f/op, ceiling %d", avg, serveRequestAllocCeiling)
	}
}
