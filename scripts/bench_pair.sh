#!/usr/bin/env bash
# Paired comparison of the working tree against a parent commit on one or
# more workloads of the repository benchmark — the protocol of bench/README.md
# ("Comparing two commits") as one command instead of a hand-typed loop.
#
#   ./scripts/bench_pair.sh <parent-ref> <workload>... [pairs=10]
#
# A last argument that is a number is the pair count. Both sides are built
# once; the workloads then run one after the other, each with its own table.
#
# The parent is exported with `git archive` under .bench_build/pair/ (removed
# on exit; nothing is registered in .git), each side is built once by a short
# discarded run of its own bench/run.sh, and then every pair runs both sides
# untraced on the same seed, alternating which side goes first so that a slow
# phase of the box lands on both. Printed per end-to-end metric: each side's
# median [q1–q3], the gap, the pairs the change won, and the verdict —
#
#   gain        change better in >= 90% of the pairs and the gap between the
#               medians exceeds the parent's own quartile spread
#   worse       the same test, mirrored
#   unresolved  anything else: say so, do not claim it
#
# Each table is also appended to BENCH_pairs.ndjson, one JSON object a line:
# both commits, seed, workload, pairs, seconds, and per metric both sides'
# median and quartiles, the wins and the verdict, plus the box-speed yardstick
# (box.calib_mops) each side's runs read — the trajectory of the repository's
# paired claims. PAIRS_FILE names another file; an empty PAIRS_FILE none.
#
# SEED picks the seed (default: a fresh one from the clock, printed, so a
# table can be re-run); SECONDS_PER_RUN the timed section (default: the
# run_seconds of BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: $0 <parent-ref> <workload>... [pairs=10]"
if [ $# -lt 2 ]; then
	echo "$usage" >&2
	exit 2
fi
parent_ref="$1"
shift
pairs=10
if [[ "${!#}" =~ ^[0-9]+$ ]]; then
	pairs="${!#}"
	set -- "${@:1:$#-1}"
fi
if [ $# -lt 1 ]; then
	echo "$usage" >&2
	exit 2
fi
workloads=("$@")
seed="${SEED:-$(($(date +%s) % 9000 + 1000))}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
parent_commit="$(git rev-parse --short "$parent_ref^{commit}")"
change_commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +dirty)"
pairs_file="${PAIRS_FILE-BENCH_pairs.ndjson}"

root="$PWD"
work="$root/.bench_build/pair"
rm -rf "$work"
mkdir -p "$work/parent"
trap 'rm -rf "$work"' EXIT
git archive "$parent_commit" | tar -x -C "$work/parent"

# run <dir> <workload> <seconds> prints the result object, the last line of a
# run, with the yardstick reading the run printed above it added as
# "calib_mops".
run() {
	(cd "$1" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds "$3" --trace 0) >"$work/run.out"
	local calib
	calib="$(sed -n 's/^(not reported) metric box\.calib_mops = \([0-9.e+-]*\) Mops$/\1/p' "$work/run.out" | tail -n 1)"
	tail -n 1 "$work/run.out" | sed "s/}\$/,\"calib_mops\":${calib:-null}}/"
}

echo "bench_pair: ${workloads[*]}, parent $parent_commit vs working tree ($change_commit), seed $seed, $pairs pairs of ${seconds}s a workload"
echo "bench_pair: building both sides"
run "$work/parent" "${workloads[0]}" 1 >/dev/null
run "$root" "${workloads[0]}" 1 >/dev/null

for workload in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then order="parent change"; else order="change parent"; fi
		for side in $order; do
			dir="$root"
			[ "$side" = parent ] && dir="$work/parent"
			run "$dir" "$workload" "$seconds" >>"$work/$workload.$side.ndjson"
		done
		echo "bench_pair: $workload pair $i/$pairs ($order): $(tail -qn 1 "$work/$workload.parent.ndjson" "$work/$workload.change.ndjson" |
			python3 -c 'import json,sys; print(" vs ".join("%.1f" % json.loads(l)["metrics"]["ops_per_s"]["value"] for l in sys.stdin), "ops/s")')"
	done
done

for workload in "${workloads[@]}"; do
	echo
	echo "== $workload"
	python3 - "$work/$workload.parent.ndjson" "$work/$workload.change.ndjson" \
		"$pairs_file" "$parent_commit" "$change_commit" "$seed" "$workload" "$seconds" <<'PY'
import datetime, json, math, sys

def load(path):
    runs = [json.loads(line) for line in open(path)]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    if bad:
        sys.exit("bench_pair: %s: %d run(s) not correct or with failed operations" % (path, len(bad)))
    return runs

def quantile(sorted_values, p):
    h = (len(sorted_values) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])

def summary(values):
    s = sorted(values)
    return quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)

parent, change = load(sys.argv[1]), load(sys.argv[2])
pairs_file, parent_commit, change_commit, seed, workload, seconds = sys.argv[3:9]
record = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "parent": parent_commit, "change": change_commit, "seed": int(seed), "workload": workload,
    "pairs": len(parent), "seconds": float(seconds), "metrics": {},
}
need = math.ceil(0.9 * len(parent))
spread = "%.4g [%.4g–%.4g]"
print("%-16s %-30s %-30s %8s %6s  %s" % ("metric", "parent median [q1–q3]", "change median [q1–q3]", "gap", "wins", "verdict"))
for metric in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    pm, pq1, pq3 = summary(p)
    cm, cq1, cq3 = summary(c)
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    losses = sum(sign * (y - x) < 0 for x, y in zip(p, c))
    gap = sign * (cm - pm)
    verdict = "unresolved"
    if wins >= need and gap > pq3 - pq1:
        verdict = "gain"
    elif losses >= need and -gap > pq3 - pq1:
        verdict = "worse"
    rel = "%+.1f%%" % (100 * (cm - pm) / pm) if pm else "n/a"
    print("%-16s %-30s %-30s %8s %3d/%-2d  %s" % (name, spread % (pm, pq1, pq3), spread % (cm, cq1, cq3), rel, wins, len(p), verdict))
    record["metrics"][name] = {
        "parent": {"median": pm, "q1": pq1, "q3": pq3}, "change": {"median": cm, "q1": cq1, "q3": cq3},
        "wins": wins, "losses": losses, "verdict": verdict,
    }
calib = {}
for side, runs in (("parent", parent), ("change", change)):
    readings = [r["calib_mops"] for r in runs if r.get("calib_mops") is not None]
    if readings:
        m, q1, q3 = summary(readings)
        calib[side] = {"median": m, "q1": q1, "q3": q3}
record["box.calib_mops"] = calib
if calib:
    print("box.calib_mops   " + "   ".join("%s %s" % (side, spread % (c["median"], c["q1"], c["q3"])) for side, c in calib.items()))
if pairs_file:
    with open(pairs_file, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
PY
done
