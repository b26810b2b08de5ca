#!/usr/bin/env python3
"""Alternating parent/change pairs of the perf ledger on one workload.

Usage:
    python3 ci/pairs.py PARENT CHANGE --workload campaign_alibaba \
        [--pairs 10] [--seconds 30 | --passes N] [--seed 42] [--json OUT]

PARENT and CHANGE are checkouts whose ledger is built
(`benchmark/target/release/ledger`, as `bash benchmark/run.sh` leaves it),
or directories that hold a `ledger` binary themselves. Each pair runs both
ledgers back to back on the same arguments, the parent first in even pairs
and the change first in odd ones, so that a box whose speed drifts between
minutes favours neither side. Every run must end in a summary line with
`"correct": true` and `"failed": 0`.

For each end-to-end metric of BENCHMARK.json it prints every run, both
medians, both interquartile ranges and in how many pairs the change was
better, and whether the change passes the gain rule: better in at least
nine pairs out of ten, with medians further apart than the parent's IQR
(quartiles by linear interpolation). The rule is a bar for claiming a
gain; a metric that fails it is reported as not improved, not as worse.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ledger_of(directory):
    """The ledger binary a directory holds, and the directory to run it in."""
    for candidate in (
        os.path.join(directory, "benchmark", "target", "release", "ledger"),
        os.path.join(directory, "ledger"),
    ):
        if os.access(candidate, os.X_OK):
            return candidate
    sys.exit(f"pairs: no built ledger under {directory} (run `bash benchmark/run.sh --help` there)")


def end_to_end(benchmark_json):
    with open(benchmark_json) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(ledger, cwd, args):
    out = subprocess.run(
        [ledger] + args, cwd=cwd, capture_output=True, text=True, check=False
    )
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        sys.exit(f"pairs: {ledger} exited {out.returncode}:\n{out.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    if summary.get("correct") is not True or summary.get("failed") != 0:
        sys.exit(f"pairs: {ledger} reported a failed run: {lines[-1][:400]}")
    return {name: m["value"] for name, m in summary["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    length = p.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float)
    length.add_argument("--passes", type=int)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    p.add_argument("--json", help="write every run's end-to-end metrics here")
    a = p.parse_args()

    args = ["--seed", str(a.seed), "--workload", a.workload]
    if a.passes is not None:
        args += ["--passes", str(a.passes)]
    else:
        args += ["--seconds", str(a.seconds if a.seconds is not None else 30)]
    sides = {
        "parent": (ledger_of(a.parent), os.path.abspath(a.parent)),
        "change": (ledger_of(a.change), os.path.abspath(a.change)),
    }
    metrics = end_to_end(a.benchmark)
    runs = {"parent": [], "change": []}
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            ledger, cwd = sides[side]
            runs[side].append(run_once(ledger, cwd, args))
        row = "  ".join(
            f"{name} {runs['parent'][i][name]:.6g} -> {runs['change'][i][name]:.6g}"
            for name, _ in metrics
        )
        print(f"pair {i + 1:2}/{a.pairs} ({order[0]} first): {row}", flush=True)

    print(f"\n{a.workload}, {a.pairs} pairs, ledger {' '.join(args)}")
    header = f"{'metric':14} {'parent median [IQR]':>30} {'change median [IQR]':>30} {'ratio':>7} {'wins':>6}  gain rule"
    print(header)
    needed = math.ceil(0.9 * a.pairs)
    for name, better in metrics:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        lower = better == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        mp, mc = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        iqr = p3 - p1
        gap = (mp - mc) if lower else (mc - mp)
        passes = wins >= needed and gap > iqr
        verdict = "passes" if passes else "not met"
        detail = f"(wins {wins} >= {needed}: {wins >= needed}; gap {gap:.4g} > parent IQR {iqr:.4g}: {gap > iqr})"
        ratio = mc / mp if mp else float("nan")
        print(
            f"{name:14} {mp:>12.6g} [{p1:.4g}, {p3:.4g}] {mc:>12.6g} [{c1:.4g}, {c3:.4g}] "
            f"{ratio:>7.3f} {wins:>3}/{a.pairs}  {verdict} {detail}"
        )
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"args": args, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
