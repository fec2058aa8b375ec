#!/usr/bin/env python3
"""Compare two checkouts of dualxp on one benchmark workload, in pairs.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload tree-large --seeds 401-410

For each seed it runs each checkout's own `perfbench/run.py` once, for the
run length its BENCHMARK.json sets, the two one right after the other, and
alternates which of them goes first.  Only the last line of a run's
standard output is read: the JSON summary with the end-to-end metrics.  It then prints one Markdown table row per metric
that the change's BENCHMARK.json lists: each side's median with its
quartiles, the change of the median, in how many pairs the change was the
better one, whether the medians differ by more than the distance between
the parent's quartiles, and whether the change's median is worse than the
parent's by more than the metric's `bound` (a share of the parent's median).
Progress goes to standard error.  A run that exits non-zero, reports wrong
answers (`correct` false) or has failed queries stops the script with a
non-zero exit before any table is printed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(spec: str) -> list[int]:
    """'401-410' or '401,403,405'."""
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"ab_pairs: {checkout} seed {seed} gave no JSON summary "
                 f"(exit {proc.returncode}):\n{proc.stderr}")
    if proc.returncode or not summary["correct"] or summary["failed"]:
        # a wrong or failing run measures something else: stop, take no medians
        sys.exit(f"ab_pairs: {checkout} seed {seed}: exit {proc.returncode}, "
                 f"correct {summary['correct']}, failed {summary['failed']}\n"
                 f"{proc.stderr}")
    return {m: v["value"] for m, v in summary["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed range such as 401-410, or a comma list")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            print(f"ab_pairs: seed {seed} {side}", file=sys.stderr)
            runs[side].append(run_once(sides[side], args.workload, seed))

    n = len(args.seeds)
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change | change wins | beyond parent IQR | worse beyond bound |")
    print("|---|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        beyond = "yes" if abs(cm - pm) > p3 - p1 else "no"
        worse_by = (cm - pm) if lower else (pm - cm)
        regressed = "yes" if worse_by > metric["bound"] * abs(pm) else "no"
        print(f"| {args.workload} | {name} | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
              f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {delta} | {wins}/{n} | {beyond} "
              f"| {regressed} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
