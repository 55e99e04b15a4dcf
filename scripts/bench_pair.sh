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
#
# LAYOUTS=k (default 1) makes code placement a paired factor. Where a
# function's loops fall within a 64-byte line moves a workload by itself:
# shifting the code of one package by 32 bytes has moved batch_fullres_int8
# and serve_hotcell by 6–11%, as large as the claims a table judges
# (Mytkowicz et al., ASPLOS 2009). With k > 1 both sides are exported k
# times, the working tree as it stands (untracked files included) like the
# parent, and build j adds to each package on the cell path (fleet, fleetd,
# nn, isp, codec, imaging, sensor) a generated file, named to sort first,
# of j empty functions that its init calls: amd64 aligns functions to 32
# bytes, so every function after them in the package moves by 32·j bytes.
# `go tool nm -n` checks that the padding was linked ahead of the package's
# functions and that they moved; nothing in the repository is edited. Pair i
# runs layout (i−1) mod k on both sides, the table adds each layout's
# medians and verdict, and the pooled verdict is a gain (or worse) only if
# every layout's is too. The JSON lines gain "layouts" and, with k > 1,
# "by_layout".
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
layouts="${LAYOUTS:-1}"
if ! [[ "$layouts" =~ ^[1-9][0-9]*$ ]]; then
	echo "bench_pair: LAYOUTS must be a positive whole number, not '$layouts'" >&2
	exit 2
fi
pad_pkgs=(fleet fleetd nn isp codec imaging sensor)
seed="${SEED:-$(($(date +%s) % 9000 + 1000))}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
parent_commit="$(git rev-parse --short "$parent_ref^{commit}")"
change_commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +dirty)"
pairs_file="${PAIRS_FILE-BENCH_pairs.ndjson}"

root="$PWD"
work="$root/.bench_build/pair"
rm -rf "$work"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT

# tree <side> <layout> prints the directory that runs a side's layout: with
# one layout the exported parent and the working tree itself.
tree() {
	if ((layouts == 1)); then
		if [ "$1" = parent ]; then echo "$work/parent"; else echo "$root"; fi
	else
		echo "$work/$1.$2"
	fi
}

# pad <dir> <j> writes layout j's padding file into each package of pad_pkgs.
pad() {
	local pkg k
	for pkg in "${pad_pkgs[@]}"; do
		{
			printf '// Code generated by scripts/bench_pair.sh for layout %d; DO NOT EDIT.\n\npackage %s\n' "$2" "$pkg"
			for ((k = 1; k <= $2; k++)); do
				printf '\n//go:noinline\nfunc layoutPad%d() {}\n' "$k"
			done
			printf '\nfunc init() {\n'
			for ((k = 1; k <= $2; k++)); do
				printf '\tlayoutPad%d()\n' "$k"
			done
			printf '}\n'
		} >"$1/internal/$pkg/000_layout_pad.go"
	done
}

# export_working_tree <dir> copies the working tree as it stands, tracked
# and untracked files that git does not ignore, into dir.
export_working_tree() {
	git ls-files -z --cached --others --exclude-standard |
		while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
		tar --null -T - -cf - | tar -x -C "$1"
}

if ((layouts == 1)); then
	mkdir -p "$work/parent"
	git archive "$parent_commit" | tar -x -C "$work/parent"
else
	for ((j = 0; j < layouts; j++)); do
		mkdir -p "$work/parent.$j" "$work/change.$j"
		git archive "$parent_commit" | tar -x -C "$work/parent.$j"
		export_working_tree "$work/change.$j"
		if ((j > 0)); then
			pad "$work/parent.$j" "$j"
			pad "$work/change.$j" "$j"
		fi
	done
fi

# check_layout <dir> <j> fails unless the binary built in dir (layout j > 0)
# links each package's padding ahead of the package's functions (its
# initialiser aside), and its first function sits elsewhere than in layout
# 0's binary.
check_layout() {
	go tool nm -n "$1/.bench_build/bench" >"$work/nm.padded"
	go tool nm -n "$(dirname "$1")/$(basename "$1" ".$2").0/.bench_build/bench" >"$work/nm.base"
	python3 - "$work/nm.base" "$work/nm.padded" "$2" "${pad_pkgs[@]}" <<'PY' || exit 1
import sys

def text(path):
    syms = {}
    for line in open(path):
        f = line.split()
        if len(f) >= 3 and f[1] in "Tt":
            syms[f[2]] = int(f[0], 16)
    return syms

base, padded, j = text(sys.argv[1]), text(sys.argv[2]), int(sys.argv[3])
for pkg in sys.argv[4:]:
    pre = "repro/internal/%s." % pkg
    pads = [a for s, a in padded.items() if s.startswith(pre + "layoutPad")]
    # The package's own functions: not the padding, not the package
    # initialiser and the closures it is compiled with (init, init.func*,
    # map.init.*), which the linker places first, not generic instances.
    own = sorted((a, s) for s, a in padded.items() if s.startswith(pre) and "[" not in s
                 and not s[len(pre):].startswith(("layoutPad", "init", "map.init")))
    if len(pads) != j or not own:
        sys.exit("bench_pair: layout %d: %d padding functions of %s linked, want %d" % (j, len(pads), pkg, j))
    if max(pads) > own[0][0]:
        sys.exit("bench_pair: layout %d: %s's padding is not ahead of %s" % (j, pkg, own[0][1]))
    if base.get(own[0][1]) == own[0][0]:
        sys.exit("bench_pair: layout %d: %s did not move" % (j, own[0][1]))
PY
}

# run <dir> <workload> <seconds> prints the result object, the last line of a
# run, with the yardstick reading the run printed above it added as
# "calib_mops".
run() {
	(cd "$1" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds "$3" --trace 0) >"$work/run.out"
	local calib
	calib="$(sed -n 's/^(not reported) metric box\.calib_mops = \([0-9.e+-]*\) Mops$/\1/p' "$work/run.out" | tail -n 1)"
	tail -n 1 "$work/run.out" | sed "s/}\$/,\"calib_mops\":${calib:-null}}/"
}

echo "bench_pair: ${workloads[*]}, parent $parent_commit vs working tree ($change_commit), seed $seed, $pairs pairs of ${seconds}s a workload, $layouts layout(s)"
echo "bench_pair: building both sides"
for ((j = 0; j < layouts; j++)); do
	for side in parent change; do
		dir="$(tree "$side" "$j")"
		if ((j > 0)); then
			# Only the padded packages and what imports them recompile.
			mkdir -p "$dir/.bench_build"
			cp -r "$(tree "$side" 0)/.bench_build/gocache" "$dir/.bench_build/"
		fi
		run "$dir" "${workloads[0]}" 1 >/dev/null
		((j == 0)) || check_layout "$dir" "$j"
	done
done

for workload in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then order="parent change"; else order="change parent"; fi
		layout=$(((i - 1) % layouts))
		for side in $order; do
			run "$(tree "$side" "$layout")" "$workload" "$seconds" >>"$work/$workload.$side.ndjson"
		done
		echo "$layout" >>"$work/$workload.layout"
		echo "bench_pair: $workload pair $i/$pairs ($order, layout $layout): $(tail -qn 1 "$work/$workload.parent.ndjson" "$work/$workload.change.ndjson" |
			python3 -c 'import json,sys; print(" vs ".join("%.1f" % json.loads(l)["metrics"]["ops_per_s"]["value"] for l in sys.stdin), "ops/s")')"
	done
done

for workload in "${workloads[@]}"; do
	echo
	echo "== $workload"
	python3 - "$work/$workload.parent.ndjson" "$work/$workload.change.ndjson" "$work/$workload.layout" \
		"$pairs_file" "$parent_commit" "$change_commit" "$seed" "$workload" "$seconds" "$layouts" <<'PY'
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
layout_of = [int(line) for line in open(sys.argv[3])]
pairs_file, parent_commit, change_commit, seed, workload, seconds, layouts = sys.argv[4:11]
layouts = int(layouts)
record = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "parent": parent_commit, "change": change_commit, "seed": int(seed), "workload": workload,
    "pairs": len(parent), "seconds": float(seconds), "layouts": layouts, "metrics": {},
}
spread = "%.4g [%.4g–%.4g]"
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def compare(metric, pairs):
    """One metric over (parent run, change run) pairs: both sides' median and
    quartiles, the pairs the change won and lost, and the verdict."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    p = [x["metrics"][name]["value"] for x, _ in pairs]
    c = [y["metrics"][name]["value"] for _, y in pairs]
    pm, pq1, pq3 = summary(p)
    cm, cq1, cq3 = summary(c)
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    losses = sum(sign * (y - x) < 0 for x, y in zip(p, c))
    gap = sign * (cm - pm)
    need = math.ceil(0.9 * len(pairs))
    verdict = "unresolved"
    if wins >= need and gap > pq3 - pq1:
        verdict = "gain"
    elif losses >= need and -gap > pq3 - pq1:
        verdict = "worse"
    return {
        "parent": {"median": pm, "q1": pq1, "q3": pq3}, "change": {"median": cm, "q1": cq1, "q3": cq3},
        "wins": wins, "losses": losses, "verdict": verdict,
    }

def row(label, r, n):
    pm, cm = r["parent"]["median"], r["change"]["median"]
    rel = "%+.1f%%" % (100 * (cm - pm) / pm) if pm else "n/a"
    print("%-16s %-30s %-30s %8s %3d/%-2d  %s" % (label, spread % (pm, r["parent"]["q1"], r["parent"]["q3"]),
                                                spread % (cm, r["change"]["q1"], r["change"]["q3"]), rel, r["wins"], n, r["verdict"]))

pairs = list(zip(parent, change))
by_layout = [[pr for pr, l in zip(pairs, layout_of) if l == j] for j in range(layouts)]
print("%-16s %-30s %-30s %8s %6s  %s" % ("metric", "parent median [q1–q3]", "change median [q1–q3]", "gap", "wins", "verdict"))
for metric in metrics:
    name = metric["name"]
    r = compare(metric, pairs)
    if layouts > 1:
        # A pooled gain or loss stands only where every layout shows it.
        per = [compare(metric, lp) for lp in by_layout if lp]
        if len(per) < layouts or any(x["verdict"] != r["verdict"] for x in per):
            r["verdict"] = "unresolved"
    row(name, r, len(pairs))
    record["metrics"][name] = r
if layouts > 1:
    record["by_layout"] = []
    for j, lp in enumerate(by_layout):
        entry = {"layout": j, "pairs": len(lp), "metrics": {}}
        print("-- layout %d (%d pairs)" % (j, len(lp)))
        for metric in metrics:
            if lp:
                r = compare(metric, lp)
                row(metric["name"], r, len(lp))
                entry["metrics"][metric["name"]] = r
        record["by_layout"].append(entry)
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
