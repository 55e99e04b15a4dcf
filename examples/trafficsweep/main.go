// Trafficsweep: what traffic shape and batch formation do to tail latency
// and shedding. This demo fires the same request volume under three arrival
// shapes — smooth (Gamma k=4), Poisson, and bursty (Weibull k=0.7) — at
// fleetd instances with tight serving admission and a serve batch bound
// swept over {1, 4, 16}, each workload a seeded open-loop recording. The
// per-shape SLO reports show the paper-adjacent point at serving scale: mean
// rate is the same everywhere, but burstier arrivals push more requests over
// the token bucket and deepen queue waits, so attainment degrades with shape
// alone. Coalescing needs no batch bound: at every bound, requests for a
// cell that is already pending or being computed share its one computation
// (the mbatch column), without changing a single answered byte; the bound
// only sets how many queued requests a worker registers at once. It closes
// by replaying one recorded trace and checking the replayed schedule and the
// recomputed report are exactly reproducible.
//
// Run with:
//
//	go run ./examples/trafficsweep [-rate 120]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetapi"
	"repro/internal/fleetd"
	"repro/internal/lab"
	"repro/internal/loadgen"
)

func main() {
	rate := flag.Float64("rate", 120, "offered load per shape (req/s; the server admits 80)")
	requests := flag.Int("requests", 400, "requests per shape")
	seed := flag.Int64("seed", 7, "workload seed")
	flag.Parse()
	log.SetFlags(0)

	log.Println("training base model...")
	cfg := lab.BaseModelConfig{Seed: 7, TrainItems: 150, Epochs: 4, Width: 1}
	model, err := lab.LoadOrTrainBaseModel(cfg, "", nil)
	if err != nil {
		log.Fatal(err)
	}

	shapes := []struct {
		label string
		dist  string
		shape float64
	}{
		{"smooth  (gamma k=4)", loadgen.DistGamma, 4},
		{"poisson (exp gaps) ", loadgen.DistPoisson, 0},
		{"bursty  (weibull k=0.7)", loadgen.DistWeibull, 0.7},
	}
	ctx := context.Background()
	fmt.Printf("\n%5s  %-26s %7s %6s %7s %9s %9s %7s %9s\n",
		"batch", "shape", "served", "shed", "attain", "p50", "p99", "mbatch", "tput")
	var replayTrace bytes.Buffer
	var replayClient *fleetapi.Client
	for _, maxBatch := range []int{1, 4, 16} {
		// One class, admitted at 2/3 of the offered rate: every shape and
		// batch bound faces the same bucket, so shed counts isolate arrival
		// shape and mean batch isolates the bound.
		classes := []fleetapi.SLOClass{{
			Name: "interactive", TargetNanos: 250 * time.Millisecond.Nanoseconds(),
			RatePerSec: *rate * 2 / 3, Burst: 10, QueueDepth: 32, MaxBatch: maxBatch,
		}}
		s := fleetd.New(fleetd.Options{
			Factory:     fleet.BackendReplicator(cfg.Arch, model),
			ModelParams: model.NumParams(),
			Serve:       fleetd.ServeOptions{Classes: classes},
		})
		defer s.CancelRuns()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, s.Handler())
		client := fleetapi.NewClient("http://" + ln.Addr().String())
		for _, sh := range shapes {
			spec := loadgen.WorkloadSpec{
				Name: sh.label, Seed: *seed,
				Cohorts: []loadgen.Cohort{{
					Name: "sweep", Class: "interactive", Dist: sh.dist, Shape: sh.shape,
					RatePerSec: *rate, Requests: *requests, Devices: 32, Items: 8,
				}},
			}
			t0 := time.Now()
			h, events, err := loadgen.Record(ctx, client, spec, classes, loadgen.FireOptions{})
			if err != nil {
				log.Fatal(err)
			}
			wall := time.Since(t0)
			if maxBatch == 16 && sh.dist == loadgen.DistPoisson {
				if err := loadgen.WriteTrace(&replayTrace, h, events); err != nil {
					log.Fatal(err)
				}
				replayClient = client
			}
			row := loadgen.Report(classes, events).Classes[0]
			fmt.Printf("%5d  %-26s %7d %6d %6.1f%% %8.1fms %8.1fms %7.2f %7.1f/s\n",
				maxBatch, sh.label, row.Served, row.ShedRate+row.ShedQueue, row.Attainment*100,
				row.LatencyNanos.P50/1e6, row.LatencyNanos.P99/1e6, row.MeanBatch,
				float64(row.Served)/wall.Seconds())
		}
	}

	// Record → replay: the trace carries the schedule, so a replay fires the
	// identical requests, and its report recomputes byte-identically from
	// the recorded outcomes no matter how often it is read back.
	h, recorded, err := loadgen.ReadTrace(bytes.NewReader(replayTrace.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	_, replayed := loadgen.Replay(ctx, replayClient, h, recorded, loadgen.FireOptions{})
	if !reflect.DeepEqual(loadgen.ArrivalsFromEvents(replayed), loadgen.ArrivalsFromEvents(recorded)) {
		log.Fatal("replay fired a different schedule than the recording")
	}
	rep1 := loadgen.Report(h.Classes, recorded).JSON()
	_, again, err := loadgen.ReadTrace(bytes.NewReader(replayTrace.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	rep2 := loadgen.Report(h.Classes, again).JSON()
	if !bytes.Equal(rep1, rep2) {
		log.Fatal("trace report recomputation diverged")
	}
	fmt.Printf("\nreplay of the batch-16 poisson trace: schedule identical (%d requests), report byte-identical (%d bytes)\n",
		len(replayed), len(rep1))
}
