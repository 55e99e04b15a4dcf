package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
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

	class := s.serve.classes[0]
	backends := fleet.NewLRU[string, nn.Backend](8)
	cellA := fleetapi.ServeRequest{Device: 1, Item: 2, Angle: 0, Seed: 42, Runtime: nn.RuntimeInt8}
	cellB := fleetapi.ServeRequest{Device: 3, Item: 4, Angle: 1, Seed: 42, Runtime: nn.RuntimeInt8}
	cellAScale2 := cellA
	cellAScale2.Scale = 2
	jobs := make([]*serveJob, 0, 5)
	for _, req := range []fleetapi.ServeRequest{cellA, cellB, cellA, cellB, cellAScale2} {
		jobs = append(jobs, &serveJob{
			req: req, class: class, enq: time.Now(),
			ctx: context.Background(), done: make(chan serveResult, 1),
		})
	}
	s.executeServeBatch(jobs, backends)
	results := make([]fleetapi.ServeResponse, len(jobs))
	for i, job := range jobs {
		res := <-job.done
		if res.err != nil {
			t.Fatalf("job %d: %v", i, res.err)
		}
		results[i] = res.resp
	}
	if got := s.tele.Captures.Value(); got != 2 {
		t.Fatalf("batch of 5 jobs over 2 cells made %d captures, want 2", got)
	}
	if got := s.serve.bundles.Len(); got != 1 {
		t.Fatalf("scale 0 and scale 2 built %d bundles, want 1", got)
	}
	// payload is a response less the two times that are the job's own: the
	// prediction, the compressed size and the stage times of the one capture
	// and the one inference share the coalesced jobs were given.
	payload := func(r fleetapi.ServeResponse) string {
		r.QueueNanos, r.TotalNanos = 0, 0
		b, _ := json.Marshal(r)
		return string(b)
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}, {0, 4}} {
		if a, b := payload(results[pair[0]]), payload(results[pair[1]]); a != b {
			t.Fatalf("coalesced jobs %v answer with different bytes:\n  %s\n  %s", pair, a, b)
		}
	}
	for i, r := range results {
		if r.BatchSize != 5 {
			t.Fatalf("job %d rode batch %d, want 5 (all jobs share one int8 pass)", i, r.BatchSize)
		}
	}
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
// execute (8 int8 jobs: captures, one grouped inference, replies) so the
// batch path cannot quietly grow per-job allocations. Steady state measures
// 14/op — the shared int8 forward pass and its result slices; the batch's
// own bookkeeping stays on the stack. The ceiling leaves slack only for
// pool-refill noise.
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
	backends := fleet.NewLRU[string, nn.Backend](8)
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
		s.executeServeBatch(jobs, backends)
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
// 18/op: the batch-1 execute (capture, inference), the batch the worker
// collects, and on the handler's side the status recorder, the body bound and
// the Content-Type header; the ceiling leaves slack only for pool-refill
// noise.
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
