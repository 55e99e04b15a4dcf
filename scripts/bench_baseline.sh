#!/usr/bin/env bash
# Record the fleet hot-path benchmarks into BENCH_fleet.json so the perf
# trajectory is tracked PR over PR. One dated, commit-stamped entry per
# invocation covering every layer of the capture hot path:
#
#   - BenchmarkFleetCapture / BenchmarkSequentialRigCapture — end to end,
#     fleet engine vs the five-phone rig (the speedup the subsystem exists
#     for)
#   - BenchmarkCodecRoundtrip — the codec leg end to end
#   - BenchmarkEncode / BenchmarkDecode — the codec leg split per format
#     (jpeg/webp/heif quant+DCT) and per chroma-upsample decoder variant
#   - BenchmarkBackendInfer — per-runtime inference at the fleet tests' small
#     model (width 0.4, batch 8)
#   - BenchmarkInferFloat32 / Int8 / Pruned — the three runtimes at the shape a
#     fleet worker infers (default width, batch 24) on one core: us/image, and
#     the int8:float32 ratio the README quotes
#   - BenchmarkObsOverhead — capture loop with telemetry off vs on (the
#     off/on delta is the observability-tax acceptance number, target <2%)
#   - BenchmarkSensorCapture — the mosaic loop per parameter combination
#   - BenchmarkDemosaic — both interpolation kernels
#   - BenchmarkWindowedAccumulate — the continuous-fleet windowed
#     accumulation ring (per-record cost of the drift pipeline's hot path)
#   - BenchmarkServeBatch — the serve execute path at formed-batch sizes
#     1/8/16 over a hot-cell stream (jobs/sec rising with the batch bound is
#     the micro-batching acceptance number: duplicate cells coalesce into
#     one capture+infer)
#
#   ./scripts/bench_baseline.sh [out.json]
#
# BENCH_COUNT=N averages over N benchmark runs (default 1).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_fleet.json}"
COUNT="${BENCH_COUNT:-1}"
RAW="$(mktemp)"

go test -run='^$' \
  -bench='^(BenchmarkFleetCapture|BenchmarkSequentialRigCapture|BenchmarkCodecRoundtrip|BenchmarkBackendInfer|BenchmarkObsOverhead)$' \
  -benchmem -count "$COUNT" ./internal/fleet | tee "$RAW"
go test -run='^$' -bench='^BenchmarkInfer(Float32|Int8|Pruned)$' -cpu 1 \
  -benchmem -count "$COUNT" ./internal/nn | tee -a "$RAW"
go test -run='^$' -bench='^(BenchmarkEncode|BenchmarkDecode)$' \
  -benchmem -count "$COUNT" ./internal/codec | tee -a "$RAW"
go test -run='^$' -bench='^BenchmarkSensorCapture$' \
  -benchmem -count "$COUNT" ./internal/sensor | tee -a "$RAW"
go test -run='^$' -bench='^BenchmarkDemosaic$' \
  -benchmem -count "$COUNT" ./internal/isp | tee -a "$RAW"
go test -run='^$' -bench='^BenchmarkWindowedAccumulate$' \
  -benchmem -count "$COUNT" ./internal/stability | tee -a "$RAW"
go test -run='^$' -bench='^BenchmarkServeBatch$' \
  -benchmem -count "$COUNT" ./internal/fleetd | tee -a "$RAW"

python3 - "$RAW" "$OUT" <<'PY'
import datetime, json, os, subprocess, sys

raw, out = sys.argv[1], sys.argv[2]

# Benchmark lines are "Name-P  iters  v unit  v unit ...": collect every
# value/unit pair, averaging across -count repetitions of the same name.
sums, counts = {}, {}
for line in open(raw):
    parts = line.split()
    if not parts or not parts[0].startswith("Benchmark"):
        continue
    # go test appends "-<GOMAXPROCS>" to the name on multi-core runners
    # but not when GOMAXPROCS=1; strip the suffix only when it is numeric so
    # hyphenated sub-benchmark names survive single-core runs.
    name = parts[0]
    head, sep, tail = name.rpartition("-")
    if sep and tail.isdigit():
        name = head
    vals = parts[2:]
    metrics = {}
    for v, u in zip(vals[0::2], vals[1::2]):
        try:
            metrics[u] = float(v)
        except ValueError:
            pass
    if not metrics:
        continue
    agg = sums.setdefault(name, {})
    counts[name] = counts.get(name, 0) + 1
    for u, v in metrics.items():
        agg[u] = agg.get(u, 0.0) + v

if not sums:
    sys.exit("no benchmark lines parsed from " + raw)

def cmd(*args):
    try:
        return subprocess.check_output(args, text=True).strip()
    except Exception:
        return "unknown"

entry = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "commit": cmd("git", "rev-parse", "--short", "HEAD"),
    "go": cmd("go", "env", "GOVERSION"),
    "goos": cmd("go", "env", "GOOS"),
    "goarch": cmd("go", "env", "GOARCH"),
    "count": max(counts.values()),
    "benchmarks": {
        name: {u: v / counts[name] for u, v in agg.items()}
        for name, agg in sorted(sums.items())
    },
}

history = []
if os.path.exists(out):
    with open(out) as f:
        history = json.load(f)
history.append(entry)
with open(out, "w") as f:
    json.dump(history, f, indent=2, sort_keys=True)
    f.write("\n")
print("recorded %s -> %s" % (", ".join(sorted(sums)), out))
PY
