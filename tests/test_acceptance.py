"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
import time

import pytest

from conftest import A, L, READS, SKIPS, T, make_corpus
from dualxp.bundled import _read, poole_instance, poole_model, \
    synthetic_ensemble_model, synthetic_instances_csv
from dualxp.cli import main
from dualxp.dual import (
    brute_force_corrections,
    brute_force_explanations,
    enumerate_all,
    verify_duality,
)
from dualxp.explain import (
    TargetUnreachable,
    check_cxp,
    extract_axp,
    extract_cxp,
    make_problem,
    targeted_cxp,
)
from dualxp.hitting import minimal_hitting_sets
from dualxp.model import Instance
from dualxp.modelio import parse_instances, parse_model, serialize_model
from dualxp.oracle import Oracle
from dualxp.reporting import collect_stats


@pytest.fixture(scope="module")
def corpus():
    # 200 random trees x 5 instances, <= 6 features, domains 2..3, >= 2 classes
    return make_corpus(200, instances_per_model=5, seed=2024)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_running_example_goldens():
    poole = poole_model()
    e1 = poole_instance(poole.space, A="known", T="new", L="long", W="home")
    e2 = poole_instance(poole.space, A="known", T="new", L="short", W="work")
    e3 = e1  # the worked skips-instance is the same point as e1

    checks = []
    times = []

    def timed(fn):
        out = fn()
        times.append(_best_time(fn))
        return out

    checks.append(timed(lambda: Oracle(poole).predict(e1)) == SKIPS)
    checks.append(timed(lambda: Oracle(poole).predict(e2)) == READS)

    def axp_e3():
        return extract_axp(make_problem(Oracle(poole), e3)).features

    def cxp_e3():
        return extract_cxp(make_problem(Oracle(poole), e3)).features

    def cxp_e2():
        return extract_cxp(make_problem(Oracle(poole), e2)).features

    def axp_e2():
        return extract_axp(make_problem(Oracle(poole), e2)).features

    checks.append(timed(axp_e3) == frozenset({L}))
    checks.append(timed(cxp_e3) == frozenset({L}))
    checks.append(timed(cxp_e2) == frozenset({L}))
    checks.append(timed(axp_e2) == frozenset({L, T}))

    slowest = max(times)
    _report("criterion 1: running-example goldens",
            all(checks) and slowest < 1e-3,
            f"slowest {slowest * 1e6:.0f} us")


def test_criterion_2_brute_force_equivalence(corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for tree, instance in corpus:
        problem = make_problem(Oracle(tree), instance)
        axps, cxps = enumerate_all(problem)
        bf_axps, bf_cxps = brute_force_explanations(tree, instance)
        if {a.features for a in axps} != set(bf_axps):
            mismatches += 1
        elif {c.features for c in cxps} != set(bf_cxps):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 2: brute-force equivalence on random corpus",
            mismatches == 0 and elapsed < 60,
            f"{len(corpus)} problems, {elapsed:.1f}s, {mismatches} mismatches")


def test_criterion_3_duality(corpus):
    violations = 0
    for tree, instance in corpus:
        problem = make_problem(Oracle(tree), instance)
        axps, cxps = enumerate_all(problem)
        report = verify_duality([a.features for a in axps],
                                [c.features for c in cxps])
        violations += len(report.violations)
    _report("criterion 3: hitting-set duality on every enumeration",
            violations == 0, f"{violations} violations")


def test_criterion_4_oracle_call_budgets(corpus):
    # the +1 on both bounds is the documented precondition query: the
    # deletion loop's check that all features are sufficient, and the grow
    # loop's check that the empty set admits a target completion
    ok = True
    for tree, instance in corpus:
        n = instance.n_features
        oracle = Oracle(tree)
        problem = make_problem(oracle, instance)

        before = oracle.stats.entailment_calls
        extract_axp(problem)
        if oracle.stats.entailment_calls - before != n + 1:
            ok = False

        before = oracle.stats.witness_calls
        extract_cxp(problem)
        if oracle.stats.witness_calls - before > n + 1:
            ok = False
    _report("criterion 4: oracle-call budgets", ok)


def test_criterion_5_targeted_cxps(corpus, three_class_tree):
    ok = True
    tau = Instance((0, 0))
    for targets in [{1}, {2}, {1, 2}]:
        problem = make_problem(Oracle(three_class_tree), tau, targets=targets)
        cxp = targeted_cxp(problem)
        family = brute_force_corrections(three_class_tree, tau,
                                         frozenset(targets))
        if cxp.features not in family or check_cxp(problem, cxp):
            ok = False

    checked = 0
    for tree, instance in corpus:
        if tree.n_classes != 2:
            continue
        oracle = Oracle(tree)
        pi = oracle.predict(instance)
        problem = make_problem(oracle, instance, targets={1 - pi})
        try:
            cxp = targeted_cxp(problem)
        except TargetUnreachable:
            continue
        checked += 1
        if check_cxp(problem, cxp):
            ok = False
    _report("criterion 5: targeted contrastive explanations", ok,
            f"{checked} binary-class checks")


def test_criterion_6_mhs_exactness():
    import itertools
    import random

    rng = random.Random(99)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 12)
        universe = tuple(range(n))
        to_hit = tuple(
            frozenset(rng.sample(universe, rng.randint(1, n)))
            for _ in range(rng.randint(1, 10))
        )
        # the search driven as the enumeration loop drives it on an
        # ensemble: it starts from no set, and each answer that misses a set
        # to hit is followed by appending the first one it misses; element e
        # has position e, so its bit in a mask is 1 << e
        masks = [sum(1 << e for e in s) for s in to_hit]
        sets, found = [], []
        for h in minimal_hitting_sets(n, sets):
            missed = [m for m in masks if not m & h]
            if missed:
                sets.append(missed[0])
            else:
                found.append(frozenset(e for e in universe if h >> e & 1))
        got = set(found)
        hitting = [
            frozenset(c)
            for r in range(n + 1)
            for c in itertools.combinations(universe, r)
            if all(frozenset(c) & s for s in to_hit)
        ]
        expected = {h for h in hitting if not any(o < h for o in hitting)}
        if got != expected or len(found) != len(got):
            ok = False
    _report("criterion 6: exact minimal-hitting-set enumeration", ok)


def test_criterion_7_scale_smoke():
    ensemble = synthetic_ensemble_model()
    instances = parse_instances(synthetic_instances_csv(), ensemble.space)
    assert len(instances) == 100
    t0 = time.perf_counter()
    report = collect_stats(ensemble, instances)
    elapsed = time.perf_counter() - t0
    size_tendency = report.avg_cxp_size <= report.avg_axp_size
    _report("criterion 7: desk-scale ensemble statistics",
            elapsed < 300 and len(report.rows) == 100 and size_tendency,
            f"{elapsed:.1f}s, avg axp {report.avg_axp_size:.2f}, "
            f"avg cxp {report.avg_cxp_size:.2f}, "
            f"oracle calls {report.total_oracle_calls}")


def test_criterion_8_round_trip_and_determinism(tmp_path, capsys):
    poole_text = _read("poole.json")
    round_trip_ok = serialize_model(parse_model(poole_text)) == poole_text
    ens_text = _read("synth_ensemble.json")
    round_trip_ok &= serialize_model(parse_model(ens_text)) == ens_text

    model = tmp_path / "poole.json"
    model.write_text(poole_text)
    inst = tmp_path / "rows.csv"
    inst.write_text("A,T,L,W\nknown,new,short,work\nknown,new,long,home\n")

    stable = True
    for argv in (
        ["predict", "-m", str(model), "-i", str(inst)],
        ["axp", "-m", str(model), "-i", str(inst)],
        ["cxp", "-m", str(model), "-i", str(inst)],
        ["enum", "-m", str(model), "-i", str(inst), "--mode", "all"],
    ):
        outputs = []
        for _ in range(2):
            code = main(argv)
            outputs.append(capsys.readouterr().out)
            if code != 0:
                stable = False
        if outputs[0] != outputs[1]:
            stable = False

    stats_outputs = []
    for run in range(2):
        out_csv = tmp_path / f"stats{run}.csv"
        code = main(["stats", "-m", str(model), "-i", str(inst),
                     "-o", str(out_csv)])
        capsys.readouterr()
        stats_outputs.append(out_csv.read_text())
        if code != 0:
            stable = False
    if stats_outputs[0] != stats_outputs[1]:
        stable = False

    with capsys.disabled():
        _report("criterion 8: round-trip and byte-stable output",
                round_trip_ok and stable)
