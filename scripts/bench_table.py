#!/usr/bin/env python3
"""Render README's table of current benchmark figures from BENCH_pairs.ndjson.

    python3 scripts/bench_table.py           rewrite README.md in place
    python3 scripts/bench_table.py --check   exit 1 if README.md is stale

The table sits between the two marker comments below. A row is the newest
entry (last line) of a workload in BENCH_pairs.ndjson — the change side of
that paired run, median [q1–q3] of each end-to-end metric, pooled over its
code layouts where it ran more than one (lines written before the
"layouts" field ran one) — in the workload order of BENCHMARK.json, so appending a run with scripts/bench_pair.sh and
re-rendering is all it takes to keep the README current, and CI's --check
fails when that was forgotten.
"""
import json
import os
import sys

BEGIN = "<!-- bench-table:begin (python3 scripts/bench_table.py) -->"
END = "<!-- bench-table:end -->"


def cell(metric, digits):
    side = metric["change"]
    return "%.*f [%.*f–%.*f]" % (digits, side["median"], digits, side["q1"], digits, side["q3"])


def render(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        order = [w["name"] for w in json.load(f)["workloads"]]
    newest = {}
    with open(os.path.join(root, "BENCH_pairs.ndjson")) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                newest[entry["workload"]] = entry
    lines = [
        "| workload | `ops_per_s` | `alloc_kb_per_op` | `retained_mem_mb` | `setup_s` | tree (parent), pairs × s, date |",
        "|---|---|---|---|---|---|",
    ]
    for name in order:
        e = newest.get(name)
        if e is None:
            continue
        m = e["metrics"]
        layouts = e.get("layouts", 1)
        lines.append("| `%s` | %s | %s | %s | %s | `%s` (`%s`), %d × %g%s, %s |" % (
            name, cell(m["ops_per_s"], 0), cell(m["alloc_kb_per_op"], 1), cell(m["retained_mem_mb"], 2),
            cell(m["setup_s"], 3), e["change"], e["parent"], e["pairs"], e["seconds"],
            " over %d layouts" % layouts if layouts > 1 else "", e["date"][:10]))
    return "\n".join(lines) + "\n"


def main():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    path = os.path.join(root, "README.md")
    with open(path) as f:
        readme = f.read()
    try:
        head, rest = readme.split(BEGIN + "\n", 1)
        _, tail = rest.split(END, 1)
    except ValueError:
        sys.exit("bench_table: README.md has no %s … %s block" % (BEGIN, END))
    fresh = head + BEGIN + "\n" + render(root) + END + tail
    if "--check" in sys.argv[1:]:
        if fresh != readme:
            sys.exit("bench_table: README.md's benchmark table is stale; run python3 scripts/bench_table.py")
        return
    with open(path, "w") as f:
        f.write(fresh)


if __name__ == "__main__":
    main()
