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
# parent, and layout j places the code of every package on the cell path
# (fleet, fleetd, nn, isp, codec, imaging, sensor, and the harness, package
# main) 32·j bytes mod 64 from where layout 0 has it. amd64 aligns functions
# to 32 bytes, so a package moves by 32 bytes for each empty function put
# ahead of it, and by whatever moved the packages linked before it: each
# package gets a generated file, named to sort first, of as many such
# functions as that takes and an init that calls them. A first build with
# none reads every package's shift from `go tool nm -n`, the counts follow in
# link order, and every layout's build is read back the same way: the script
# fails unless each function of each package sits where its layout says,
# mod 64. Only the exported trees are padded; nothing in the repository is
# edited. Pair i runs layout (i−1) mod k on both sides, the table adds each
# layout's medians and verdict, and the pooled verdict is a gain (or worse)
# only if every layout's is too. The JSON lines gain "layouts" and, with
# k > 1, "by_layout".
#
# SHIFT="<package>..." (of those eight) compares code placement, not code:
# both sides are the parent, and for each package named, in turn, the change
# side is a build with that package's code 32 bytes mod 64 from where the
# parent side has it and every other one where it was; each gets its own
# tables, its "change" column the shifted build. Its lines are appended to
# PAIRS_FILE only when that is set.
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
# The padded packages, and the directory each one's source is in.
pad_pkgs=(fleet fleetd nn isp codec imaging sensor main)
pkg_dir() { if [ "$1" = main ]; then echo bench; else echo "internal/$1"; fi; }
read -ra shift_pkgs <<<"${SHIFT:-}"
shift_pkg="" # the package the running comparison shifts, in SHIFT mode
if ((${#shift_pkgs[@]})); then
	for pkg in "${shift_pkgs[@]}"; do
		if ! [[ " ${pad_pkgs[*]} " == *" $pkg "* ]]; then
			echo "bench_pair: SHIFT must name packages of ${pad_pkgs[*]}, not '$pkg'" >&2
			exit 2
		fi
	done
	if ((layouts != 1)); then
		echo "bench_pair: SHIFT compares one placement with another; it takes no LAYOUTS" >&2
		exit 2
	fi
fi
seed="${SEED:-$(($(date +%s) % 9000 + 1000))}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
parent_commit="$(git rev-parse --short "$parent_ref^{commit}")"
change_commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +dirty)"
pairs_file="${PAIRS_FILE-BENCH_pairs.ndjson}"
if ((${#shift_pkgs[@]})); then
	# A placement sweep is no figure of the tree: it goes to BENCH_pairs.ndjson,
	# whose newest line per workload is README's table, only when named.
	pairs_file="${PAIRS_FILE-}"
fi

root="$PWD"
work="$root/.bench_build/pair"
rm -rf "$work"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT

# tree <side> <layout> prints the directory that runs a side's layout: with
# one layout the exported parent and the working tree itself, and in SHIFT
# mode the parent and its build that moves shift_pkg.
tree() {
	if [ -n "$shift_pkg" ]; then
		if [ "$1" = parent ]; then echo "$work/parent.0"; else echo "$work/shift.$shift_pkg"; fi
	elif ((layouts == 1)); then
		if [ "$1" = parent ]; then echo "$work/parent"; else echo "$root"; fi
	else
		echo "$work/$1.$2"
	fi
}

# pad <dir> <pkg>=<count>... writes each package's padding file into dir: count
# empty functions, ahead of everything else the package compiles to, and an
# init of the same size whatever the count that calls them.
pad() {
	local dir="$1" spec pkg count k
	shift
	for spec in "$@"; do
		pkg="${spec%=*}"
		count="${spec#*=}"
		{
			printf '// Code generated by scripts/bench_pair.sh; DO NOT EDIT.\n\npackage %s\n' "$pkg"
			for ((k = 1; k <= count; k++)); do
				printf '\n//go:noinline\nfunc layoutPad%d() {}\n' "$k"
			done
			printf '\nvar layoutPads = [...]func(){'
			for ((k = 1; k <= count; k++)); do
				printf 'layoutPad%d, ' "$k"
			done
			printf '}\n\nfunc init() {\n\tfor _, f := range layoutPads {\n\t\tf()\n\t}\n}\n'
		} >"$dir/$(pkg_dir "$pkg")/000_layout_pad.go"
	done
}

# export_working_tree <dir> copies the working tree as it stands, tracked
# and untracked files that git does not ignore, into dir.
export_working_tree() {
	git ls-files -z --cached --others --exclude-standard |
		while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
		tar --null -T - -cf - | tar -x -C "$1"
}

# build <dir> [<from>] builds dir's benchmark binary the way bench/run.sh
# does (a one-second run it discards), starting from a copy of the Go cache
# of the tree from, when given: only the padded packages and what imports
# them recompile.
build() {
	if [ $# -gt 1 ]; then
		mkdir -p "$1/.bench_build"
		rm -rf "$1/.bench_build/gocache"
		cp -r "$2/.bench_build/gocache" "$1/.bench_build/"
	fi
	run "$1" "${workloads[0]}" 1 >/dev/null
}

# placement <mode> <base-binary> <binary> [args] reads, with `go tool nm -n`,
# where each padded package's functions sit in binary against base-binary:
#   shifts          prints each package's shift, in link order, as pkg=bytes
#   counts <j> [<pkg>]          from a build padded with no functions, prints
#                   the pkg=count arguments of pad that put each package at
#                   its target shift mod 64: 32·j for every package, or,
#                   when j is "shift", 32 for pkg and 0 for the others
#   check <j> [<pkg>]           fails unless every package sits at that target
# A package's shift is the one every function of it moved by, mod 64 (its
# padding and its initialisers aside); functions that moved by different
# amounts fail any mode.
placement() {
	go tool nm -n "$2" >"$work/nm.base"
	go tool nm -n "$3" >"$work/nm.padded"
	python3 - "$1" "$work/nm.base" "$work/nm.padded" "${@:4}" -- "${pad_pkgs[@]}" <<'PY'
import sys

mode, base_nm, padded_nm = sys.argv[1:4]
sep = sys.argv.index("--")
args, pkgs = sys.argv[4:sep], sys.argv[sep + 1:]

def text(path):
    syms = {}
    for line in open(path):
        f = line.split()
        if len(f) >= 3 and f[1] in "Tt":
            syms[f[2]] = int(f[0], 16)
    return syms

def prefix(pkg):
    return "main." if pkg == "main" else "repro/internal/%s." % pkg

base, padded = text(base_nm), text(padded_nm)
shifts, first = {}, {}
for pkg in pkgs:
    pre = prefix(pkg)
    own = [(a, s) for s, a in padded.items() if s.startswith(pre) and s in base and "[" not in s
           and not s[len(pre):].startswith(("layoutPad", "init", "map.init"))]
    moved = {(a - base[s]) % 64 for a, s in own}
    if len(moved) != 1:
        sys.exit("bench_pair: %s's functions moved by %s bytes mod 64, not by one amount" % (pkg, sorted(moved) or "no"))
    shifts[pkg], first[pkg] = moved.pop(), min(own)[0]
order = sorted(pkgs, key=first.get)
if mode == "shifts":
    print(" ".join("%s=%d" % (p, shifts[p]) for p in order))
    sys.exit(0)
j, target = args[0], {}
for p in pkgs:
    target[p] = 32 * int(j) % 64 if j != "shift" else (32 if p == args[1] else 0)
if mode == "counts":
    added, out = 0, []
    for p in order:
        n = (target[p] - shifts[p] - added) % 64 // 32
        added += 32 * n
        out.append("%s=%d" % (p, n))
    print(" ".join(out))
else:
    bad = ["%s at +%d, want +%d" % (p, shifts[p], target[p]) for p in order if shifts[p] != target[p]]
    if bad:
        sys.exit("bench_pair: misplaced: " + "; ".join(bad))
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

change_label="working tree ($change_commit)"
if ((${#shift_pkgs[@]})); then change_label="itself with each of ${shift_pkgs[*]} moved 32 bytes"; fi
echo "bench_pair: ${workloads[*]}, parent $parent_commit vs $change_label, seed $seed, $pairs pairs of ${seconds}s a workload, $layouts layout(s)"
echo "bench_pair: building both sides"
bin=.bench_build/bench
probe=() # pad's arguments for no functions in any package
for pkg in "${pad_pkgs[@]}"; do probe+=("$pkg=0"); done
if ((${#shift_pkgs[@]})); then
	# Both sides are the parent; each change side moves one package.
	for dir in parent.0 probe "${shift_pkgs[@]/#/shift.}"; do
		mkdir -p "$work/$dir"
		git archive "$parent_commit" | tar -x -C "$work/$dir"
	done
	base="$work/parent.0/$bin"
	build "$work/parent.0"
	pad "$work/probe" "${probe[@]}"
	build "$work/probe" "$work/parent.0"
	for shift_pkg in "${shift_pkgs[@]}"; do
		dir="$work/shift.$shift_pkg"
		read -ra counts <<<"$(placement counts "$base" "$work/probe/$bin" shift "$shift_pkg")"
		pad "$dir" "${counts[@]}"
		build "$dir" "$work/parent.0"
		placement check "$base" "$dir/$bin" shift "$shift_pkg"
		echo "bench_pair: $shift_pkg moved: $(placement shifts "$base" "$dir/$bin")"
	done
	rm -rf "$work/probe"
elif ((layouts == 1)); then
	mkdir -p "$work/parent"
	git archive "$parent_commit" | tar -x -C "$work/parent"
	for side in parent change; do build "$(tree "$side" 0)"; done
else
	for side in parent change; do
		for ((j = 0; j < layouts; j++)); do
			mkdir -p "$work/$side.$j"
			if [ "$side" = parent ]; then
				git archive "$parent_commit" | tar -x -C "$work/$side.$j"
			else
				export_working_tree "$work/$side.$j"
			fi
		done
		base="$work/$side.0/$bin"
		build "$work/$side.0"
		# Layout 1's tree, padded with no functions, is the probe every
		# layout's counts are read from; then each layout is padded and built.
		pad "$work/$side.1" "${probe[@]}"
		build "$work/$side.1" "$work/$side.0"
		for ((j = 1; j < layouts; j++)); do
			read -ra counts <<<"$(placement counts "$base" "$work/$side.1/$bin" "$j")"
			pad "$work/$side.$j" "${counts[@]}"
		done
		for ((j = 1; j < layouts; j++)); do
			build "$work/$side.$j" "$work/$side.0"
			placement check "$base" "$work/$side.$j/$bin" "$j"
			echo "bench_pair: $side layout $j: $(placement shifts "$base" "$work/$side.$j/$bin")"
		done
	done
fi

# compare runs the pairs of every workload and prints (and appends) their
# tables: once, or in SHIFT mode once for each package moved.
compare() {
	rm -f "$work"/*.ndjson "$work"/*.layout
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
}

if ((${#shift_pkgs[@]})); then
	for shift_pkg in "${shift_pkgs[@]}"; do
		echo
		echo "== $shift_pkg moved"
		change_commit="$parent_commit+shift:$shift_pkg"
		compare
	done
else
	compare
fi
