// Command bench is the repository benchmark: five workloads that drive the
// system through its public entry points (an in-process fleetd, fleetapi,
// fleet.NewRunner and the layer packages below them), time every layer from
// outside, and check that the outputs are correct. README.md in this
// directory is the metric dictionary.
//
//	go run ./bench -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]
//
// With -trace 0 a run measures the end-to-end metrics with tracing off; with
// -trace 1 it measures the per-layer metrics and repeats one pass of the
// workload with a span per layer-boundary call. The last line of standard
// output is one JSON object with the run's verdict and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// processStart is read first thing, so that the first set-up's time includes
// runtime start-up as far as the program can see it.
var processStart = time.Now()

type workload struct {
	name string
	// why records what the workload is for; BENCHMARK.json repeats it.
	why string
	// endToEnd measures the end-to-end metrics with tracing off.
	endToEnd func(*run)
	// layers measures the workload's own per-layer metrics and its traced
	// pass; the probes every workload shares run before it, on cells.
	layers func(*run)
	cells  func(*run) cellSet
}

var workloads = []workload{
	{"batch_mixed", "headline fleet run: mixed float32/int8/pruned devices at scale 2, ~90% of a cell is nn", batchEndToEnd(batchMixed), batchLayers(batchMixed), batchMixed.cells},
	{"batch_fullres_int8", "same run at scale 1 forced to int8: capture+resize dominate, float32/pruned are bypassed", batchEndToEnd(batchFullres), batchLayers(batchFullres), batchFullres.cells},
	{"serve_spread", "open-loop Poisson /v1/serve over loopback sockets, cells spread so nothing queues or coalesces", serveEndToEnd(serveSpread), serveLayers(serveSpread), serveSpread.cells},
	{"serve_hotcell", "bursty open-loop /v1/serve on a 10-cell hot set without sockets: queueing, batching, coalescing", serveEndToEnd(serveHotcell), serveLayers(serveHotcell), serveHotcell.cells},
	{"sharded_windows", "continuous fleet over a coordinator and 2 peers: windowed state is shipped, merged and rendered", shardedEndToEnd, shardedLayers, shardedCells},
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := flag.Int64("seed", 7, "workload seed; reaches the program only as RunSpec.Seed / WorkloadSpec.Seed")
	seconds := flag.Float64("seconds", 20, "length of the timed section")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a traced pass")
	out := flag.String("out", os.TempDir(), "directory the traced pass writes its NDJSON span dump to")
	regen := flag.Bool("regen-model", false, "retrain the default base model and rewrite "+modelPath)
	flag.Parse()

	if *regen {
		if err := regenModel(); err != nil {
			fatal(err)
		}
		return
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *out))
	}
	for _, w := range workloads {
		if w.name == *name {
			procs := benchProcs()
			runtime.GOMAXPROCS(procs)
			r := newRun(w, frozen, options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, procs: procs}, os.Stdout)
			r.printHeader()
			os.Exit(r.execute())
		}
	}
	fatal(fmt.Errorf("unknown workload %q", *name))
}

// benchProcs is P: the parallelism every workload is sized for. Go 1.24
// ignores CPU quotas, so GOMAXPROCS is set from it explicitly.
func benchProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runAll runs every workload in its own process, end-to-end and then traced,
// so that one workload's heap and caches never reach the next one's numbers.
func runAll(seed int64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s -trace %s: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
