#!/usr/bin/env python3
"""End-to-end benchmark of dualxp: explanation latency and throughput.

    python3 perfbench/run.py --workload ensemble-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

A single-threaded closed loop with one client.  For each instance of the
seeded pool it issues three queries through the public library API, each
with a fresh Oracle, as `dualxp axp`, `dualxp cxp` and `dualxp enum` do per
row:

    axp   make_problem + extract_axp
    cxp   make_problem + extract_cxp + cxp_witness
    enum  make_problem + enumerate_all (mhs_budget = MHS_BUDGET)

The model text and instance CSV are generated by a child process
(workloads.py) before timing starts; the program sees only that text.
`--trace 0` runs instances for `--seconds`, parsing the inputs again at
intervals, and reports the end-to-end metrics.  A fixed probe runs between
each two instances, and every time is scaled by it to a reference host
speed (see Session.scale), so that a shared host's changing speed does not
show as a change of the program.
`--trace 1` runs a fixed number of instances twice, untraced and then with
spans around every layer boundary, and reports the per-layer split.  Each
instance's answers are checked between instances, outside the timed
queries; a mismatch makes the run fail.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, holding the metrics that
BENCHMARK.json lists.  Everything measured, with sample counts and the
host-speed probe, goes to .perfbench_out/ and to the lines before it.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
KINDS = ("axp", "cxp", "enum")
MIN_INSTANCES = 100     # p90 needs 100 samples of each query kind
HARD_STOP_S = 120.0     # wall-clock cap on the measuring loop
SETUP_REPEATS = 15      # set-up repeats spread evenly over the measuring loop
TRACE_SETUP_REPEATS = 7
PROBE_WINDOW = 2        # probes beyond the adjacent ones, on each side of an item, that set its speed
PROBE_REF_S = 0.25e-3   # probe time that defines the reference host speed
WARMUP_INSTANCES = 3
MAX_REPORTED_PROBLEMS = 20
FAILED = object()  # stands for the answer of a query that raised


class _ProbeNode:
    __slots__ = ("feature", "threshold", "low", "high")

    def __init__(self, feature, threshold, low, high):
        self.feature, self.threshold, self.low, self.high = feature, threshold, low, high


def _probe_tree(rng: random.Random, depth: int):
    if depth == 0:
        return rng.randrange(3)
    return _ProbeNode(rng.randrange(12), rng.randrange(4),
                      _probe_tree(rng, depth - 1), _probe_tree(rng, depth - 1))


_PROBE_RNG = random.Random(0)
PROBE_TREES = [_probe_tree(_PROBE_RNG, 6) for _ in range(30)]
PROBE_POINTS = [tuple(_PROBE_RNG.randrange(4) for _ in range(12)) for _ in range(24)]


def probe_s() -> float:
    """Time of a fixed walk of 30 small Python trees from 24 points (0.23
    to 0.44 ms on a shared 2-vCPU VM, as its speed changed).  Like the
    library's own work it is attribute lookups, comparisons and small
    dicts, so a host that slows the one slows the other by about as much."""
    t0 = time.perf_counter()
    votes: dict = {}
    for point in PROBE_POINTS:
        for node in PROBE_TREES:
            while type(node) is _ProbeNode:
                node = node.low if point[node.feature] <= node.threshold else node.high
            votes[node] = votes.get(node, 0) + 1
    return time.perf_counter() - t0


def host_probe_ms() -> float:
    """Median of five runs of a fixed integer loop: a host-speed diagnostic
    stored with each result, never a gate."""
    def loop() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(5)) * 1e3


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; failed queries are +inf and sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def failure_type(error: Exception) -> str:
    name = type(error).__name__
    return name if name in ("BudgetExceeded", "SearchSpaceExceeded") else "other:" + name


class Session:
    """One workload run: the generated inputs, the API the queries go
    through, what the queries cost, and what the checks found."""

    def __init__(self, dualxp, workload, seed: int):
        from workloads import DEFAULT_SEED, MHS_BUDGET, sha256

        self.lib = dualxp
        self.raw_predict = dualxp.oracle.raw_predict  # for checks, never traced
        self.workload = workload
        self.mhs_budget = MHS_BUDGET
        self.pin_digest = seed == DEFAULT_SEED
        # generated in a child process, so that ru_maxrss of this one covers
        # only what the program does with the text
        inputs = OUT_DIR / "inputs" / f"{workload.name}-seed{seed}"
        status = subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                                 workload.name, str(seed), str(inputs)]).returncode
        if status:
            sys.exit(status)
        self.model_text = (inputs / "model.json").read_text()
        self.pool_csv = (inputs / "pool.csv").read_text()
        if sha256(self.model_text) != workload.sha256:
            sys.exit(f"perfbench: workload changed: {inputs / 'model.json'} does not match its pin")
        self.tracer = None
        self.problems: list[str] = []
        self.digest_families: dict[int, tuple] = {}
        self.reset()

    def reset(self) -> None:
        # per instance: seconds per query kind, which of them succeeded, the
        # explanations enum reported, and its slot: the index of the probe
        # just before it
        self.samples: list[tuple[tuple[float, ...], tuple[bool, ...], int, int]] = []
        self.setups: list[tuple[float, int]] = []  # timed set-up repeats: seconds, slot
        self.probes = [probe_s()]                  # one before and one after each item
        self.failures: Counter = Counter()      # (kind, failure type)
        self.enum_ok = 0
        self.axps = 0
        self.cxps = 0
        self.iterations = 0

    def setup(self) -> float:
        """Parse the model and the instance pool.  Returns the time taken."""
        self.classifier = self.instances = None
        gc.collect()
        t0 = time.perf_counter()
        self.classifier = self.lib.parse_model(self.model_text)
        self.instances = self.lib.parse_instances(self.pool_csv, self.classifier.space)
        return time.perf_counter() - t0

    # the three queries

    def _problem(self, instance):
        return self.lib.make_problem(self.lib.Oracle(self.classifier), instance)

    def query_axp(self, instance):
        return self.lib.extract_axp(self._problem(instance)).features

    def query_cxp(self, instance):
        problem = self._problem(instance)
        cxp = self.lib.extract_cxp(problem)
        if cxp is None:
            return None
        witness = self.lib.cxp_witness(problem, cxp)
        return cxp.features, witness.replacement, problem.targets

    def query_enum(self, instance):
        problem = self._problem(instance)
        state = self.lib.EnumerationState()
        axps, cxps = self.lib.enumerate_all(
            problem, mhs_budget=self.mhs_budget, state=state)
        return [a.features for a in axps], [c.features for c in cxps], state.iterations

    def scale(self, slot: int) -> float:
        """Reference over local host speed for the item after probe `slot`:
        PROBE_REF_S over the median of the probes just before and just
        after the item and PROBE_WINDOW more on each side."""
        window = self.probes[max(0, slot - PROBE_WINDOW):slot + PROBE_WINDOW + 2]
        return PROBE_REF_S / statistics.median(window)

    def timed_setup(self) -> None:
        slot = len(self.probes) - 1
        self.setups.append((self.setup(), slot))
        self.probes.append(probe_s())

    def run_instance(self, index: int) -> None:
        """The three queries on one pool instance, then their checks and a
        probe."""
        slot = len(self.probes) - 1
        index %= len(self.instances)
        instance = self.instances[index]
        answers = {}
        times = []
        for kind in KINDS:
            with self.tracer.query(kind) if self.tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    answers[kind] = getattr(self, "query_" + kind)(instance)
                    elapsed = time.perf_counter() - t0
                except Exception as error:  # counted per type; the run goes on
                    elapsed = time.perf_counter() - t0
                    if not self.failures:
                        traceback.print_exc(file=sys.stderr)
                    self.failures[kind, failure_type(error)] += 1
                    answers[kind] = FAILED
            times.append(elapsed)
        explanations = 0
        if answers["enum"] is not FAILED:
            explanations = self.check(index, instance, answers)
        ok = tuple(answers[kind] is not FAILED for kind in KINDS)
        self.samples.append((tuple(times), ok, explanations, slot))
        self.probes.append(probe_s())

    def check(self, index: int, instance, answers: dict) -> int:
        """This instance's answers against its enumerated families, and its
        CXp witness by re-prediction.  Returns the explanations enumerated."""
        axps, cxps, iterations = answers["enum"]
        self.enum_ok += 1
        self.axps += len(axps)
        self.cxps += len(cxps)
        self.iterations += iterations
        if self.pin_digest:
            self.digest_families.setdefault(index, (axps, cxps))
        axp, cxp = answers["axp"], answers["cxp"]
        problems = []
        if axp is not FAILED and axp not in axps:
            problems.append(f"axp {sorted(axp)} is not in its AXp family")
        if cxp is None and cxps:
            problems.append("no cxp returned, but the CXp family is non-empty")
        elif cxp is not None and cxp is not FAILED:
            features, replacement, targets = cxp
            if features not in cxps:
                problems.append(f"cxp {sorted(features)} is not in its CXp family")
            values = list(instance.values)
            for lit in replacement.literals:
                values[lit.feature] = lit.value
            if self.raw_predict(self.classifier, tuple(values)) not in targets:
                problems.append("cxp witness does not reach the target classes")
        self.problems += [f"instance {index}: {p}" for p in problems]
        return len(axps) + len(cxps)

    def digest_problems(self) -> list[str]:
        """With the default seed: the families digest against its pin."""
        from workloads import DIGEST_INSTANCES, families_digest

        if not self.pin_digest:
            return []
        first = [self.digest_families.get(i) for i in range(DIGEST_INSTANCES)]
        digest = "incomplete" if None in first else families_digest(first)
        if digest == self.workload.digest:
            return []
        return [f"families digest of the first {DIGEST_INSTANCES} instances is "
                f"{digest}, pinned {self.workload.digest}"]

    def measure(self, seconds: float) -> None:
        """The closed loop: instances in pool order, with a probe between
        each two, for `seconds` (longer if fewer than MIN_INSTANCES ran, up
        to HARD_STOP_S).  Set-up repeats SETUP_REPEATS times, spread evenly
        over the loop so that it meets the same host as the queries do."""
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (
                    elapsed >= seconds and len(self.samples) >= MIN_INSTANCES):
                break
            if len(self.setups) * seconds <= elapsed * SETUP_REPEATS:
                self.timed_setup()
            self.run_instance(len(self.samples))

    def run_fixed(self, count: int) -> None:
        """`count` instances from the start of the pool."""
        for n in range(count):
            self.run_instance(n)

    def warm_up(self) -> None:
        for n in range(WARMUP_INSTANCES):
            self.run_instance(len(self.instances) - 1 - n)
        self.reset()
        gc.collect()


def e2e_metrics(session: Session) -> dict:
    """name -> (value, unit, sample count).  Every time is scaled to the
    reference host speed by the probes around it (Session.scale)."""
    n = len(session.samples)
    if n < MIN_INSTANCES:
        sys.exit(f"perfbench: only {n} instances ran in {HARD_STOP_S:.0f} s, "
                 f"{MIN_INSTANCES} needed for p90; no figures reported")
    setup_times = [t * session.scale(slot) for t, slot in session.setups]
    out = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))}
    scales = [session.scale(slot) for *_, slot in session.samples]
    for i, kind in enumerate(KINDS):
        lat = [times[i] * k if ok[i] else math.inf
               for (times, ok, _, _), k in zip(session.samples, scales)]
        out[f"{kind}_ms_p50"] = (quantile(lat, 0.5) * 1e3, "ms", n)
        out[f"{kind}_ms_p90"] = (quantile(lat, 0.9) * 1e3, "ms", n)
    # failed queries' time included
    enum_time = sum(times[2] * k for (times, *_), k in zip(session.samples, scales))
    out["enum_per_s"] = (sum(ok[2] for _, ok, _, _ in session.samples) / enum_time, "1/s", n)
    out["expl_per_s"] = (sum(e for _, _, e, _ in session.samples) / enum_time, "1/s", n)
    attempted = len(KINDS) * n
    out["failed_frac"] = (sum(session.failures.values()) / attempted, "fraction", attempted)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    out["host_scale"] = (statistics.median(scales), "x", n)
    return out


def layer_metrics(session: Session, tracer, overhead: float) -> dict:
    """name -> (value, unit, sample count), from the traced pass."""
    from tracing import END, INFO, LAYERS, NAME, QID, START

    calls: Counter = Counter()          # span name -> calls within queries
    busy: Counter = Counter()           # span name -> inclusive seconds
    self_by: Counter = Counter()        # (query kind, layer) -> self seconds
    query_s: Counter = Counter()        # query kind -> seconds in its queries
    mhs_calls_by: Counter = Counter()   # query kind -> hitting-set calls
    enum_oracle_calls = 0
    mhs = []
    parse = {"modelio.parse_model": [], "modelio.parse_instances": []}
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, duration = span[NAME], span[END] - span[START]
        if name in parse:
            parse[name].append(duration)
            continue
        kind = tracer.query_kinds[span[QID]]
        if name.startswith("query."):
            query_s[kind] += duration
            continue
        layer = LAYERS[name]
        calls[name] += 1
        busy[name] += duration
        self_by[kind, layer] += own
        if layer == "hitting":
            mhs_calls_by[kind] += 1
            mhs.append((duration, span[INFO] or {}))
        elif layer == "oracle" and kind == "enum":
            enum_oracle_calls += 1
    n = len(session.samples)
    explanations = session.axps + session.cxps
    sized = [info for _, info in mhs if "to_hit" in info]
    out = {
        "modelio.parse_model_s": (statistics.median(parse["modelio.parse_model"]), "s", len(parse["modelio.parse_model"])),
        "modelio.parse_instances_s": (statistics.median(parse["modelio.parse_instances"]), "s", len(parse["modelio.parse_instances"])),
        "oracle.predict_calls": (calls["oracle.predict"], "count", n),
        "oracle.entails_calls": (calls["oracle.entails"], "count", n),
        "oracle.witness_calls": (calls["oracle.find_counterexample"], "count", n),
        "oracle.entails_s": (busy["oracle.entails"], "s", calls["oracle.entails"]),
        "oracle.witness_s": (busy["oracle.find_counterexample"], "s", calls["oracle.find_counterexample"]),
        "oracle.model_evals": (tracer.model_evals, "count", n),
        "oracle.calls_per_expl": (enum_oracle_calls / explanations, "ratio", explanations),
        "hitting.mhs_calls": (len(mhs), "count", n),
        "hitting.mhs_s": (sum(d for d, _ in mhs), "s", len(mhs)),
        "hitting.mhs_ms_max": (max((d for d, _ in mhs), default=0.0) * 1e3, "ms", len(mhs)),
        "hitting.to_hit_mean": (statistics.fmean([i["to_hit"] for i in sized] or [0]), "sets", len(sized)),
        "hitting.blocked_mean": (statistics.fmean([i["blocked"] for i in sized] or [0]), "sets", len(sized)),
        "hitting.budget_exceeded": (sum(i.get("error") == "BudgetExceeded" for _, i in mhs), "count", len(mhs)),
        "explain.axp_self_s": (self_by["axp", "explain"], "s", n),
        "explain.cxp_self_s": (self_by["cxp", "explain"], "s", n),
        "dual.iterations": (session.iterations, "count", session.enum_ok),
        "dual.axps": (session.axps, "count", session.enum_ok),
        "dual.cxps": (session.cxps, "count", session.enum_ok),
        "dual.self_s": (self_by["enum", "dual"], "s", session.enum_ok),
        "trace.overhead_frac": (overhead, "fraction", n),
    }
    # share of each query kind's time spent in a layer's own code
    for kind, layers in (("axp", ("oracle", "explain")), ("cxp", ("oracle", "explain")),
                         ("enum", ("oracle", "hitting", "dual"))):
        out[f"{kind}.mhs_calls"] = (mhs_calls_by[kind], "count", n)
        for layer in layers:
            out[f"{kind}.{layer}_self_frac"] = (self_by[kind, layer] / query_s[kind], "fraction", n)
    return out


def run_untraced(session: Session, seconds: float) -> dict:
    session.setup()
    session.warm_up()
    session.measure(seconds)
    return e2e_metrics(session)


def run_traced(session: Session) -> tuple[dict, object]:
    """The trace_instances prefix untraced, then again with spans."""
    from tracing import Tracer

    count = session.workload.trace_instances
    session.setup()
    session.warm_up()
    session.run_fixed(count)
    untraced = [sum(times) * session.scale(slot) for times, _, _, slot in session.samples]

    tracer = Tracer()
    with tracer.installed():
        for _ in range(TRACE_SETUP_REPEATS):
            session.setup()
        gc.collect()
        session.reset()
        session.tracer = tracer
        session.run_fixed(count)
        session.tracer = None
    # per instance, traced over untraced query time, both at reference speed
    traced = [sum(times) * session.scale(slot) for times, _, _, slot in session.samples]
    overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    return layer_metrics(session, tracer, overhead), tracer


def report(name: str, seed: int, trace: int, metrics: dict, problems: list[str],
           session: Session, host_probes: tuple[float, float], spec: dict) -> int:
    attempted = len(KINDS) * len(session.samples)
    failed = sum(session.failures.values())
    print(f"{name} seed={seed} trace={trace} instances={len(session.samples)} "
          f"queries={attempted} failed={failed}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"  {metric:28s} {value:14.6g} {unit:9s} n={samples}")
    for (kind, error), n in sorted(session.failures.items()):
        print(f"  failures {kind} {error}: {n}")
    print(f"  host_probe_ms before={host_probes[0]:.2f} after={host_probes[1]:.2f}")
    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if len(problems) > MAX_REPORTED_PROBLEMS:
        print(f"CHECK FAILED: ... {len(problems)} problems in all", file=sys.stderr)

    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        sys.exit(f"perfbench: BENCHMARK.json lists metrics this run did not measure: {missing}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "instances": len(session.samples), "attempted": attempted, "failed": failed,
        "failures": {f"{k}/{e}": n for (k, e), n in sorted(session.failures.items())},
        "host_probe_ms": {"before": host_probes[0], "after": host_probes[1]},
        "metrics": {m: {"value": v, "unit": u, "samples": s} for m, (v, u, s) in metrics.items()},
        "check_failures": problems,
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in wanted},
    }))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ensemble-deep, ensemble-wide, tree-large, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="query time to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        status = 0
        for w in spec["workloads"]:
            status |= subprocess.run([
                sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]).returncode
        return status

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    before = host_probe_ms()
    session = Session(workloads.dualxp, workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, tracer = run_traced(session)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = run_untraced(session, seconds)
    after = host_probe_ms()
    problems = session.problems + session.digest_problems()
    return report(args.workload, args.seed, args.trace, metrics, problems,
                  session, (before, after), spec)


if __name__ == "__main__":
    sys.exit(main())
