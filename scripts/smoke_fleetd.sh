#!/usr/bin/env bash
# Smoke-test the fleetd /v1 API end to end: boot one worker and one
# coordinator, both on the committed model snapshot (nothing trains),
# create a run through the coordinator, wait for it, check the stats answer
# and the removed pre-/v1 /stats is a plain JSON 404, post the checked-in
# runtime spec (examples/specs/runtime.experiment.json, the README's own
# curl line) to the coordinator and check its paired report, post the
# checked-in run spec too, and cmp both artifacts with their goldens in
# examples/testdata (the two-process form of TestSpecs' sharded leg), run a
# continuous fleet (churn + injected OS upgrade) twice and check the drift
# report recomputes byte-identically, then fire a seeded
# loadgen burst at the worker's serving
# path (micro-batching enabled via -serve-max-batch) and check admission
# sheds with 429, batches actually form (mean executed batch > 1), and the
# per-class serve metrics pass the exposition lint. Used by CI and runnable
# locally:
#
#   ./scripts/smoke_fleetd.sh [bin]
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_DIR="$(dirname "$SCRIPT_DIR")"
BIN="${1:-}"
if [ -z "$BIN" ]; then
  BIN="$(mktemp -d)/fleetd"
  go build -o "$BIN" ./cmd/fleetd
fi
LOADGEN_BIN="$(dirname "$BIN")/loadgen"
go build -o "$LOADGEN_BIN" ./cmd/loadgen
WORKDIR="$(mktemp -d)"
MODEL="$REPO_DIR/bench/testdata/base.model"
[ -f "$MODEL" ] || { echo "missing $MODEL: the smoke runs the committed model, it does not train one" >&2; exit 1; }
WORKER_PORT=8471
COORD_PORT=8472

cleanup() {
  kill "${WORKER_PID:-}" "${COORD_PID:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_healthz() {
  for _ in $(seq 1 120); do
    if curl -fsS "localhost:$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 1
  done
  echo "instance on :$1 never became healthy" >&2
  return 1
}

# Worker first, then the coordinator that probes it. Serve micro-batching is
# on (batches of up to 8 per class) so the loadgen burst below exercises batch
# formation, not just admission.
"$BIN" -addr ":$WORKER_PORT" -model "$MODEL" -serve-max-batch 8 \
  >"$WORKDIR/worker.log" 2>&1 &
WORKER_PID=$!
wait_healthz "$WORKER_PORT"

"$BIN" -addr ":$COORD_PORT" -model "$MODEL" -peers "localhost:$WORKER_PORT" \
  >"$WORKDIR/coord.log" 2>&1 &
COORD_PID=$!
wait_healthz "$COORD_PORT"

BASE="localhost:$COORD_PORT"

# wait_done polls the resource at $BASE/$1 until it is neither pending nor
# running (at most $2 seconds, default 120) and fails unless it ended done.
wait_done() {
  local state=running
  for _ in $(seq 1 "${2:-120}"); do
    # Guarded so a crashed server yields the log dump below, not a bare
    # curl error swallowed by set -e.
    state=$(curl -fsS "$BASE/$1" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])') || {
      echo "$1: status poll failed" >&2
      tail -40 "$WORKDIR/worker.log" "$WORKDIR/coord.log" >&2
      exit 1
    }
    case "$state" in running | pending) sleep 1 ;; *) break ;; esac
  done
  if [ "$state" != done ]; then
    echo "$1 ended in state $state" >&2
    curl -sS "$BASE/$1" >&2 || true
    tail -40 "$WORKDIR/worker.log" "$WORKDIR/coord.log" >&2
    exit 1
  fi
}

echo "== create run"
curl -fsS -X POST "$BASE/v1/runs" \
  -d '{"devices":20,"items":1,"angles":[0],"seed":3,"workers":2}' | tee "$WORKDIR/create.json"
RUN_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORKDIR/create.json")

echo "== wait for run $RUN_ID"
wait_done "v1/runs/$RUN_ID"

echo "== stats"
curl -fsS "$BASE/v1/runs/$RUN_ID/stats" | python3 -c '
import json, sys
st = json.load(sys.stdin)
assert st["devices_done"] == 20, st["devices_done"]
assert st["records"] == 20, st["records"]
assert "cross_runtime" in st and "by_runtime" in st, sorted(st)
print("stats ok: records=%d accuracy=%.3f" % (st["records"], st["accuracy"]))
'

echo "== error envelope"
curl -sS "$BASE/v1/runs/999/stats" | python3 -c '
import json, sys
env = json.load(sys.stdin)
assert env["error"]["code"] == "not_found", env
print("envelope ok")
'

echo "== pre-/v1 surface is gone"
curl -sS "$BASE/stats" | python3 -c '
import json, sys
env = json.load(sys.stdin)
assert env["error"]["code"] == "not_found", env
print("GET /stats is not_found")
'

echo "== metrics exposition"
# Captures run on the worker (the coordinator only dispatches shards), so the
# capture instruments live in the worker's scrape; the coordinator's scrape
# carries the HTTP middleware and run lifecycle series. Both must pass the
# exposition lint.
curl -fsS "localhost:$WORKER_PORT/metrics" >"$WORKDIR/worker.metrics"
curl -fsS "localhost:$COORD_PORT/metrics" >"$WORKDIR/coord.metrics"
"$SCRIPT_DIR/lint_metrics.sh" "$WORKDIR/worker.metrics"
"$SCRIPT_DIR/lint_metrics.sh" "$WORKDIR/coord.metrics"
python3 - "$WORKDIR/worker.metrics" "$WORKDIR/coord.metrics" <<'PY'
import re, sys
worker = open(sys.argv[1]).read()
coord = open(sys.argv[2]).read()
m = re.search(r"^fleet_captures_total (\d+)$", worker, re.M)
assert m and int(m.group(1)) >= 20, "worker recorded no captures:\n" + worker
for stage in ("sensor", "isp", "codec", "inference"):
    s = re.search(r'^fleet_stage_seconds_count\{stage="%s"\} (\d+)$' % stage, worker, re.M)
    assert s and int(s.group(1)) >= 20, "worker missing %s stage histogram" % stage
assert re.search(r'^fleetd_shards_finished_total\{state="done"\} \d+$', worker, re.M), worker
assert re.search(r'^fleetd_http_requests_total\{code="201",route="/v1/runs"\} \d+$', coord, re.M), coord
assert re.search(r'^fleetd_runs_finished_total\{state="done"\} 1$', coord, re.M), coord
assert "# TYPE fleetd_http_request_seconds histogram" in coord
assert re.search(r"^go_goroutines \d+", coord, re.M), "runtime gauges absent"
print("metrics ok: worker captures=%s" % m.group(1))
PY

echo "== cross-process trace"
curl -fsS "$BASE/v1/runs/$RUN_ID/trace" >"$WORKDIR/trace.ndjson"
python3 - "$WORKDIR/trace.ndjson" <<'PY'
import json, sys
spans = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
names = sorted(s["name"] for s in spans)
for want in ("run", "run.admit", "run.probe", "run.merge", "shard.dispatch", "shard.execute"):
    assert want in names, "trace missing %s span: %s" % (want, names)
traces = {s["trace"] for s in spans}
assert len(traces) == 1, "spans span multiple traces: %s" % traces
by_id = {s["span"]: s for s in spans}
for s in spans:
    if s["name"] == "shard.execute":
        parent = by_id.get(s.get("parent"))
        assert parent and parent["name"] == "shard.dispatch", \
            "shard.execute not parented on a dispatch span"
print("trace ok: %d spans %s" % (len(spans), names))
PY

echo "== experiment (the checked-in runtime spec through the coordinator)"
curl -fsS -d @"$REPO_DIR/examples/specs/runtime.experiment.json" "$BASE/v1/experiments" \
  | tee "$WORKDIR/experiment.json"
EXP_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORKDIR/experiment.json")

echo "== wait for experiment $EXP_ID"
wait_done "v1/experiments/$EXP_ID" 180

echo "== experiment report"
curl -fsS "$BASE/v1/experiments/$EXP_ID/report" >"$WORKDIR/experiment.report"
python3 -c '
import json, sys
rep = json.load(sys.stdin)
arms = rep["arms"]
assert len(arms) == 3, arms
assert arms[0]["baseline"] and arms[0]["name"] == "runtime=float32", arms[0]
for arm in arms[1:]:
    paired = arm["paired"]
    assert paired["cells"] == 6000, (arm["name"], paired)
    assert paired["flips"] == paired["regressions"] + paired["improvements"], paired
    print("report ok: %d/%d cells flip float32->%s" % (paired["flips"], paired["cells"], arm["spec"]["runtime"]))
rates = rep["agreement"]["rates"]
assert len(rates) == 3 and all(len(r) == 3 for r in rates), rates
assert all(rates[i][j] == rates[j][i] for i in range(3) for j in range(3)), rates
' <"$WORKDIR/experiment.report"
cmp "$WORKDIR/experiment.report" "$REPO_DIR/examples/testdata/runtime.experiment.golden"
echo "report is runtime.experiment.golden byte for byte"

echo "== the checked-in run spec through the coordinator"
curl -fsS -d @"$REPO_DIR/examples/specs/fleet.run.json" "$BASE/v1/runs" | tee "$WORKDIR/spec-run.json"
SPEC_RUN_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORKDIR/spec-run.json")
wait_done "v1/runs/$SPEC_RUN_ID"
curl -fsS "$BASE/v1/runs/$SPEC_RUN_ID/stats" >"$WORKDIR/spec-run.stats"
cmp "$WORKDIR/spec-run.stats" "$REPO_DIR/examples/testdata/fleet.run.golden"
echo "stats are fleet.run.golden byte for byte"

echo "== continuous fleet (churn + cohort OS upgrade through the coordinator)"
FLEET_SPEC='{"devices":12,"items":1,"angles":[0],"seed":3,"workers":2,"windows":4,"churn":{"join_rate":0.2,"leave_rate":0.2},"events":[{"window":2,"device":0,"kind":"os_upgrade"}]}'
run_fleet() {
  # POSTs the fleet spec, waits for completion, leaves the id in FLEET_ID.
  curl -fsS -X POST "$BASE/v1/fleets" -d "$FLEET_SPEC" >"$WORKDIR/fleet.json"
  FLEET_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORKDIR/fleet.json")
  wait_done "v1/fleets/$FLEET_ID"
}
run_fleet
curl -fsS "$BASE/v1/fleets/$FLEET_ID/report" | python3 -c '
import json, sys
rep = json.load(sys.stdin)
assert rep["devices_done"] == 12, rep["devices_done"]
assert len(rep["windows"]) == 4, len(rep["windows"])
w2 = rep["windows"][2]
assert any(e["kind"] == "os_upgrade" for e in w2.get("events", [])), w2
assert w2["paired"]["cells"] > 0, w2
print("fleet report ok: %d windows, %d captures" % (len(rep["windows"]), rep["captures"]))
'
curl -fsS "$BASE/v1/fleets/$FLEET_ID/windows" >"$WORKDIR/fleet.windows"
curl -fsS "$BASE/v1/fleets/$FLEET_ID/drift" >"$WORKDIR/fleet.drift1"
python3 - "$WORKDIR/fleet.drift1" <<'PY'
import json, sys
drift = json.load(open(sys.argv[1]))
assert len(drift["rates"]) == 4, drift["rates"]
assert drift["rates"][0] == 0, drift["rates"]
assert len(drift["cohorts"]) == 5, len(drift["cohorts"])
print("fleet drift ok: rates=%s flags=%d" % (drift["rates"], len(drift.get("flags") or [])))
PY

echo "== fleet drift determinism (same spec recomputed, byte-identical)"
run_fleet
curl -fsS "$BASE/v1/fleets/$FLEET_ID/drift" >"$WORKDIR/fleet.drift2"
cmp "$WORKDIR/fleet.drift1" "$WORKDIR/fleet.drift2"
echo "drift recomputed byte-identical"

echo "== fleet metrics (lifecycle counters + flip-rate gauge, linted)"
curl -fsS "localhost:$WORKER_PORT/metrics" >"$WORKDIR/fleet-worker.metrics"
curl -fsS "localhost:$COORD_PORT/metrics" >"$WORKDIR/fleet-coord.metrics"
"$SCRIPT_DIR/lint_metrics.sh" "$WORKDIR/fleet-worker.metrics"
"$SCRIPT_DIR/lint_metrics.sh" "$WORKDIR/fleet-coord.metrics"
python3 - "$WORKDIR/fleet-worker.metrics" "$WORKDIR/fleet-coord.metrics" <<'PY'
import re, sys
worker = open(sys.argv[1]).read()
coord = open(sys.argv[2]).read()
# Windows execute on the worker (fleet shards), the resource lives on the
# coordinator (lifecycle counters + flip-rate gauge from the final report).
m = re.search(r"^fleet_windows_total (\d+)$", worker, re.M)
assert m and int(m.group(1)) > 0, "worker recorded no fleet windows"
assert re.search(r"^fleet_active_devices 0$", worker, re.M), "active-device gauge did not drain to 0"
assert re.search(r'^fleetd_fleets_finished_total\{state="done"\} 2$', coord, re.M), coord
assert re.search(r'^fleetd_fleet_window_flip_rate\{window="1"\} ', coord, re.M), coord
print("fleet metrics ok: worker windows=%s" % m.group(1))
PY

echo "== loadgen burst (seeded, over-rate: must shed with 429)"
# One cohort offered at 2000 req/s against the stock interactive class
# (200 req/s, burst 50): most of the burst must shed at the token bucket.
cat >"$WORKDIR/burst.json" <<'JSON'
{
  "name": "smoke-burst",
  "seed": 5,
  "cohorts": [
    {"name": "burst", "class": "interactive", "rate_per_sec": 2000, "requests": 300, "devices": 8, "items": 4}
  ]
}
JSON
"$LOADGEN_BIN" record -addr "localhost:$WORKER_PORT" -spec "$WORKDIR/burst.json" \
  -out "$WORKDIR/burst.trace" >"$WORKDIR/burst.report" 2>"$WORKDIR/loadgen.log"
python3 - "$WORKDIR/burst.report" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
rows = {r["class"]: r for r in rep["classes"]}
row = rows["interactive"]
assert row["requests"] == 300, row
assert row["served"] > 0, "nothing served: %s" % row
shed = row["shed_rate"] + row["shed_queue"]
assert shed > 0, "over-rate burst shed nothing: %s" % row
assert row["served"] + shed + row["errors"] == 300, row
print("loadgen ok: served=%d shed=%d (rate=%d queue=%d)"
      % (row["served"], shed, row["shed_rate"], row["shed_queue"]))
PY

echo "== loadgen report determinism (offline recompute, byte-identical)"
"$LOADGEN_BIN" report -trace "$WORKDIR/burst.trace" >"$WORKDIR/report1.json"
"$LOADGEN_BIN" report -trace "$WORKDIR/burst.trace" >"$WORKDIR/report2.json"
cmp "$WORKDIR/report1.json" "$WORKDIR/report2.json"
echo "report recomputed byte-identical"

echo "== serve metrics (per-class histograms + shed counters, linted)"
curl -fsS "localhost:$WORKER_PORT/metrics" >"$WORKDIR/serve.metrics"
"$SCRIPT_DIR/lint_metrics.sh" "$WORKDIR/serve.metrics"
python3 - "$WORKDIR/serve.metrics" <<'PY'
import re, sys
m = open(sys.argv[1]).read()
shed = re.search(r'^fleetd_serve_shed_total\{class="interactive",reason="rate"\} (\d+)$', m, re.M)
assert shed and int(shed.group(1)) > 0, "no rate sheds recorded:\n" + m
assert re.search(r'^fleetd_serve_requests_total\{class="interactive",code="429"\} \d+$', m, re.M), m
assert re.search(r'^fleetd_serve_requests_total\{class="interactive",code="200"\} \d+$', m, re.M), m
for name in ("fleetd_serve_seconds", "fleetd_serve_queue_wait_seconds"):
    assert "# TYPE %s histogram" % name in m, "missing %s family" % name
    assert re.search(r'^%s_bucket\{class="interactive",le="\+Inf"\} \d+$' % name, m, re.M), \
        "missing per-class %s histogram" % name
assert re.search(r'^fleetd_serve_queue_depth\{class="interactive"\} ', m, re.M), "missing queue depth gauge"
# Micro-batching: the batch-size histogram must be exposed, and with
# -serve-max-batch 8 the over-rate burst must have formed real batches.
assert "# TYPE fleetd_serve_batch_size histogram" in m, "missing batch-size family"
bsum = re.search(r'^fleetd_serve_batch_size_sum\{class="interactive"\} (\d+)$', m, re.M)
bcount = re.search(r'^fleetd_serve_batch_size_count\{class="interactive"\} (\d+)$', m, re.M)
assert bsum and bcount and int(bcount.group(1)) > 0, "batch-size histogram empty:\n" + m
mean = int(bsum.group(1)) / int(bcount.group(1))
assert mean > 1, "burst never batched: mean formed batch %.2f" % mean
print("serve metrics ok: rate sheds=%s mean batch=%.2f" % (shed.group(1), mean))
PY

echo "== live SLO report"
curl -fsS "localhost:$WORKER_PORT/v1/slo" | python3 -c '
import json, sys
rep = json.load(sys.stdin)
rows = {r["class"]: r for r in rep["classes"]}
assert set(rows) == {"interactive", "batch"}, sorted(rows)
row = rows["interactive"]
assert row["served"] > 0 and row["shed_rate"] > 0, row
assert 0 <= row["attainment"] <= 1, row
assert row["mean_batch"] > 1, "slo report never saw a formed batch: %s" % row
assert 0 < rep["fairness"] <= 1, rep
print("slo ok: served=%d shed_rate=%d attainment=%.3f mean_batch=%.2f fairness=%.3f"
      % (row["served"], row["shed_rate"], row["attainment"], row["mean_batch"], rep["fairness"]))
'

echo "== graceful shutdown"
kill -TERM "$COORD_PID"
for _ in $(seq 1 30); do
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 1
done
if kill -0 "$COORD_PID" 2>/dev/null; then
  echo "coordinator ignored SIGTERM" >&2
  exit 1
fi
grep -q "fleetd stopped" "$WORKDIR/coord.log"
echo "shutdown ok"

echo "fleetd smoke passed"
