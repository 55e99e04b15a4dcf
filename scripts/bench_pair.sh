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

root="$PWD"
work="$root/.bench_build/pair"
rm -rf "$work"
mkdir -p "$work/parent"
trap 'rm -rf "$work"' EXIT
git archive "$parent_commit" | tar -x -C "$work/parent"

# run <dir> <workload> <seconds> prints the result object, the last line of a
# run.
run() {
	(cd "$1" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds "$3" --trace 0) | tail -n 1
}

echo "bench_pair: ${workloads[*]}, parent $parent_commit vs working tree ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +dirty)), seed $seed, $pairs pairs of ${seconds}s a workload"
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
	python3 - "$work/$workload.parent.ndjson" "$work/$workload.change.ndjson" <<'PY'
import json, math, sys

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
PY
done
