#!/usr/bin/env python3
"""Compare two checkouts of dualxp on one benchmark workload, in pairs.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload tree-large --seeds 401-410

`--workload all` runs, one after the other, every workload that the
change's BENCHMARK.json lists, and prints their rows in one table.  For
each workload and seed it runs each checkout's own `perfbench/run.py`
once, for the run length its BENCHMARK.json sets, the two one right after
the other, and alternates which of them goes first.  Only the last line of a run's
standard output is read: the JSON summary with the end-to-end metrics.  It then prints one Markdown table row per metric
that the change's BENCHMARK.json lists: each side's median with its
quartiles, the change of the median, in how many pairs the change was the
better one, whether the medians differ by more than the distance between
the parent's quartiles, whether that counts as a gain, and whether the
change's median is worse than the parent's by more than the metric's
`bound` (a share of the parent's median).  A gain needs the change to be
better in at least nine tenths of the pairs (ties count for neither) and
its median to be better than the parent's, in the metric's better
direction, by more than the distance between the parent's quartiles.
That last column reads `unresolved` instead of `no` when the parent's
quartiles lie further apart than the bound, so the runs cannot show a
change of that size, unless every run of the change is better than every
run of the parent.
A last row, `attempted`, gives each side's median number of queries
attempted, counted as higher is better and with no bound.  A run lasts as
long on both sides, so a faster change attempts more queries, and a metric
that grows with the instances a run completes, such as `peak_rss_mb`, can
be read against it.  Progress goes to standard error.  A run that exits non-zero, reports wrong
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
        sys.exit(f"ab_pairs: {checkout} {workload} seed {seed} gave no JSON summary "
                 f"(exit {proc.returncode}):\n{proc.stderr}")
    if proc.returncode or not summary["correct"] or summary["failed"]:
        # a wrong or failing run measures something else: stop, take no medians
        sys.exit(f"ab_pairs: {checkout} {workload} seed {seed}: exit {proc.returncode}, "
                 f"correct {summary['correct']}, failed {summary['failed']}\n"
                 f"{proc.stderr}")
    values = {m: v["value"] for m, v in summary["metrics"].items()}
    values["attempted"] = summary["attempted"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def table_rows(workload: str, spec: dict, runs: dict[str, list[dict]]) -> list[str]:
    """One table row per end-to-end metric of `spec`, then `attempted`."""
    n = len(runs["parent"])
    rows = []
    attempted = {"name": "attempted", "better": "higher", "bound": None}
    for metric in spec["end_to_end"] + [attempted]:
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
        gain = "yes" if 10 * wins >= 9 * n and -worse_by > p3 - p1 else "no"
        bound = None if metric["bound"] is None else metric["bound"] * abs(pm)
        all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        if bound is None:
            regressed = "n/a"
        elif worse_by > bound:
            regressed = "yes"
        elif p3 - p1 > bound and not all_better:
            regressed = "unresolved"
        else:
            regressed = "no"
        rows.append(f"| {workload} | {name} | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
                    f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {delta} | {wins}/{n} | {beyond} "
                    f"| {gain} | {regressed} |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all for every one in BENCHMARK.json")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed range such as 401-410, or a comma list")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])

    rows = []
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                print(f"ab_pairs: {workload} seed {seed} {side}", file=sys.stderr)
                runs[side].append(run_once(sides[side], workload, seed))
        rows += table_rows(workload, spec, runs)

    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change | change wins | beyond parent IQR | gain | worse beyond bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
