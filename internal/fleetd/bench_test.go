package fleetd

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fleetapi"
	"repro/internal/nn"
)

// BenchmarkServeBatch measures the real serve execute path — registration in
// the in-flight table, capture, int8 inference, reply fan-out — at
// formed-batch sizes 1, 8 and 16. Every variant serves the identical
// hot-cell stream of 16 jobs over 4 distinct cells per iteration (the
// flash-crowd shape coalescing exists for), split into batches of the
// variant's size and served one after another. Batch-1 execution pays a full
// capture+infer per job; the jobs of a larger batch that share a cell share
// its one computation, so throughput climbs with the batch size while every
// answered byte stays identical.
func BenchmarkServeBatch(b *testing.B) {
	const stream = 16
	for _, size := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			s := serveTestServer(ServeOptions{Workers: 1})
			defer s.CancelRuns()
			s.stopServe()
			s.serve.wg.Wait()

			class := s.serve.classes[0]
			w := new(cellWorker)
			jobs := make([]*serveJob, stream)
			for i := range jobs {
				jobs[i] = &serveJob{
					req:   fleetapi.ServeRequest{Device: i % 4, Item: i % 2, Angle: 0, Seed: 42, Runtime: nn.RuntimeInt8},
					class: class, ctx: context.Background(), done: make(chan serveResult, 1),
				}
			}
			serveStream := func() {
				for start := 0; start < stream; start += size {
					batch := jobs[start : start+size]
					for _, job := range batch {
						job.enq = time.Now()
					}
					executeBatch(s, batch, w)
					for _, job := range batch {
						<-job.done
					}
				}
			}
			for i := 0; i < 4; i++ {
				serveStream()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveStream()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*stream)/b.Elapsed().Seconds(), "jobs/sec")
		})
	}
}

// BenchmarkServeHTTP measures one batch-1 request over the whole HTTP path:
// fleetapi.Client.Serve encodes it and sends it over a loopback socket to an
// httptest server, fleetd decodes, admits, captures, infers and replies, and
// the client decodes the reply. B/op and allocs/op count both ends, net/http's
// share included — the serve path's per-request cost beside
// BenchmarkServeBatch, which skips HTTP.
func BenchmarkServeHTTP(b *testing.B) {
	s := serveTestServer(ServeOptions{Workers: 1, Classes: []fleetapi.SLOClass{
		{Name: "open", TargetNanos: 1_000_000_000, RatePerSec: 1e9, Burst: 1 << 20, QueueDepth: 64},
	}})
	defer s.CancelRuns()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := fleetapi.NewClient(ts.URL)
	req := fleetapi.ServeRequest{Device: 3, Item: 1, Angle: 2, Seed: 42, Runtime: nn.RuntimeInt8}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := c.Serve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Serve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
