package main

import "strings"

// metricDef is one row of the metric dictionary. BENCHMARK.json lists the
// same names, units and directions (smoke_test.go holds the two together);
// README.md gives each definition in full.
type metricDef struct {
	name, unit string
	better     string // "higher" or "lower"
	endToEnd   bool
	bound      float64 // end-to-end only: share of the parent's median
	// on lists the workloads that measure the metric: a prefix ending in
	// "_" matches a family, "" matches all. Elsewhere it reads n/a (0).
	on []string
}

func (d metricDef) appliesTo(workload string) bool {
	if len(d.on) == 0 {
		return true
	}
	for _, p := range d.on {
		if workload == p || (strings.HasSuffix(p, "_") && strings.HasPrefix(workload, p)) {
			return true
		}
	}
	return false
}

var (
	onBatch   = []string{"batch_"}
	onServe   = []string{"serve_"}
	onSharded = []string{"sharded_windows"}
	onCells   = []string{"batch_", "sharded_windows"}
)

// tracedLayers are the layers a traced pass splits its time into; each has a
// trace.self_share.<layer> metric.
var tracedLayers = []string{"nn", "sensor", "isp", "codec", "imaging", "dataset", "stability", "fleet", "fleetd", "fleetapi", "train", "lifecycle"}

var metricDefs = buildDefs()

func buildDefs() []metricDef {
	e2e := func(name, unit, better string, bound float64) metricDef {
		return metricDef{name: name, unit: unit, better: better, endToEnd: true, bound: bound}
	}
	defs := []metricDef{
		e2e("ops_per_s", "1/s", "higher", 0.25),
		e2e("alloc_kb_per_op", "KB", "lower", 0.2),
		e2e("retained_mem_mb", "MB", "lower", 0.2),
		e2e("setup_s", "s", "lower", 0.25),
	}
	layer := func(on []string, unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better, on: on})
		}
	}
	// Workload-level figures that only some workloads have, so they cannot
	// be end-to-end metrics of the whole benchmark.
	layer(onCells, "1/s", "higher", "cells_per_s")
	layer(onServe, "1/s", "higher", "sat_rps")
	layer(onServe, "ms", "lower", "lat_p50_ms.lo", "lat_p50_ms.hi", "lat_p99_ms.hi")
	layer(onServe, "ratio", "lower", "slo_miss_share.hi")
	layer(nil, "ratio", "lower", "fail_share")
	layer(nil, "MB", "lower", "peak_mem_mb")

	layer(nil, "us", "lower",
		"sensor.capture_us.s2", "sensor.capture_us.s1",
		"isp.process_us.s2", "isp.process_us.s1",
		"codec.encode_us.s2", "codec.encode_us.s1",
		"codec.decode_us.s2", "codec.decode_us.s1",
		"imaging.resize_us.s1", "imaging.batch_tensor_us",
		"fleet.capture_us.s2", "fleet.capture_us.s1",
		"nn.infer_us.float32", "nn.infer_us.int8", "nn.infer_us.pruned",
		"nn.infer_b1_us.float32", "nn.infer_b1_us.int8", "nn.infer_b1_us.pruned",
		"fleet.device_synth_us", "stability.add_us")
	layer(nil, "B", "lower", "codec.bytes_per_capture")
	layer(nil, "ratio", "lower", "fleet.capture_residual_share", "obs.telemetry_overhead_share")
	layer(nil, "KB", "lower", "nn.alloc_kb.float32", "nn.alloc_kb.int8", "nn.alloc_kb.pruned")
	layer(nil, "ms", "lower",
		"nn.compile_ms.float32", "nn.compile_ms.int8", "nn.compile_ms.pruned",
		"dataset.display_ms", "stability.snapshot_ms")

	layer(onSharded, "us", "lower", "stability.windowed_add_us", "stability.drift_us")
	layer(onSharded, "ms", "lower", "stability.marshal_ms", "stability.unmarshal_merge_ms",
		"lifecycle.expand_ms", "fleet.cont_state_marshal_ms", "fleet.merged_report_ms")
	layer(onSharded, "KB", "lower", "stability.state_kb")
	layer(onSharded, "ratio", "lower", "fleetd.shard_overhead_share")

	layer(onBatch, "ms", "lower", "fleet.stats_ms")
	layer(onBatch, "ratio", "higher", "fleet.pool_efficiency")
	layer(onBatch, "ratio", "lower", "fleet.budget_residual_share", "fleetd.run_api_overhead_share")

	layer(onServe, "ms", "lower", "fleetd.queue_wait_ms.p50", "fleetd.queue_wait_ms.p99",
		"fleetd.service_ms.p50", "fleetapi.http_json_ms.p50", "loadgen.late_ms.p99", "loadgen.backlog_ms.hi")
	layer(onServe, "count", "higher", "fleetd.batch_mean")
	layer(onServe, "ratio", "lower", "fleetd.shed_share.rate", "fleetd.shed_share.queue")
	layer(onServe, "us", "lower", "loadgen.schedule_us")
	layer(onServe, "ratio", "higher", "loadgen.dup_cell_share")

	layer(nil, "Mops", "higher", "box.calib_mops")
	layer(nil, "ratio", "lower", "box.calib_drift_share", "bench.trace_overhead_share")
	for _, l := range tracedLayers {
		layer(nil, "ratio", "lower", "trace.self_share."+l)
	}
	return defs
}

func lookup(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// dictionary returns the metrics a run of the given kind reports.
func dictionary(traced bool) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.endToEnd != traced {
			out = append(out, d)
		}
	}
	return out
}
