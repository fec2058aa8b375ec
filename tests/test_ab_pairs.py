"""scripts/ab_pairs.py on two stub checkouts whose perfbench/run.py prints a
fixed summary per seed, or per workload and seed, so no benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]

STUB = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
seed = sys.argv[sys.argv.index("--seed") + 1]
workload = sys.argv[sys.argv.index("--workload") + 1]
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {workload} {seed}\\n")
print("a progress line before the summary")
summaries = json.loads((here / "summaries.json").read_text())
print(json.dumps(summaries.get(workload, summaries)[seed]))
'''


def _load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(tmp_path, side, summaries, spec=SPEC):
    """A stub checkout: `spec` as its BENCHMARK.json, and a run.py printing
    `summaries[workload][seed]`, or `summaries[seed]` for any workload."""
    root = tmp_path / side
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / "perfbench" / "run.py").write_text(STUB)
    (root / "summaries.json").write_text(json.dumps(summaries))
    return root


def _summary(value, attempted, correct=True, failed=0, **values):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": values.get(m, value), "unit": "x"}
                        for m in METRICS}}


def _rows(out):
    """Table rows by metric name, as lists of their cells after the name."""
    rows = {}
    for line in out.splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[1]] = cells[2:]
    return rows


def test_medians_wins_and_attempted_row(tmp_path, capsys):
    ab_pairs = _load_ab_pairs()
    # setup_s and axp_ms_p50 spread wider than their bound at the parent
    parent = _checkout(tmp_path, "parent", {
        "1": _summary(10.0, 100, setup_s=6.0, axp_ms_p50=14.0),
        "2": _summary(10.0, 100, setup_s=10.0, axp_ms_p50=20.0),
        "3": _summary(10.0, 100, setup_s=14.0, axp_ms_p50=30.0),
    })
    change = _checkout(tmp_path, "change", {
        "1": _summary(8.0, 120, peak_rss_mb=12.0),
        "2": _summary(9.0, 90, peak_rss_mb=12.0),
        "3": _summary(12.0, 130, peak_rss_mb=12.0),
    })
    assert ab_pairs.main([str(parent), str(change), "--workload", "w",
                          "--seeds", "1-3"]) == 0
    out = capsys.readouterr().out
    rows = _rows(out)
    assert list(rows) == METRICS + ["attempted"]
    assert all(line.startswith("| w |") for line in out.splitlines()[2:])
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for name in METRICS:
        if name == "peak_rss_mb":
            # 12 against 10 is worse by more than its bound of 10%
            assert rows[name] == ["10 [10, 10]", "12 [12, 12]", "+20.0%", "0/3",
                                  "yes", "no", "yes"]
        elif name == "setup_s":
            # 6, 10 and 14: quartiles 4 apart against a bound of 2.5, and
            # the change is not better in every run, so no verdict
            assert rows[name] == ["10 [8, 12]", "9 [8.5, 10.5]", "-10.0%", "2/3",
                                  "no", "no", "unresolved"]
        elif name == "axp_ms_p50":
            # 14, 20 and 30 spread as widely, but every change run is better:
            # a gain
            assert rows[name] == ["20 [17, 25]", "9 [8.5, 10.5]", "-55.0%", "3/3",
                                  "yes", "yes", "no"]
        else:
            # 8, 9 and 12 against 10: the lower the better wins two pairs
            wins = "2/3" if better[name] == "lower" else "1/3"
            assert rows[name] == ["10 [10, 10]", "9 [8.5, 10.5]", "-10.0%", wins,
                                  "yes", "no", "no"]
    assert rows["attempted"] == ["100 [100, 100]", "120 [105, 125]", "+20.0%",
                                 "2/3", "yes", "no", "n/a"]
    # the side that runs first alternates from one seed to the next
    assert (tmp_path / "order.log").read_text().split("\n") == [
        "parent w 1", "change w 1", "change w 2", "parent w 2", "parent w 3",
        "change w 3", ""]


def test_all_runs_every_workload_of_the_change_into_one_table(tmp_path, capsys):
    ab_pairs = _load_ab_pairs()
    # the change lists workloads the parent's BENCHMARK.json does not
    spec = dict(SPEC, workloads=[{"name": "a"}, {"name": "b"}])
    parent = _checkout(tmp_path, "parent", {
        w: {str(s): _summary(10.0, 100) for s in (1, 2)} for w in ("a", "b")},
        spec=dict(SPEC, workloads=[]))
    change = _checkout(tmp_path, "change", {
        "a": {str(s): _summary(8.0, 100) for s in (1, 2)},
        "b": {str(s): _summary(12.0, 100) for s in (1, 2)}}, spec=spec)
    assert ab_pairs.main([str(parent), str(change), "--workload", "all",
                          "--seeds", "1,2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("| workload | metric |") and lines[1].startswith("|---")
    # one header, then each workload's rows in the order the spec lists them
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]
    names = METRICS + ["attempted"]
    assert [r[:2] for r in rows] == [[w, m] for w in ("a", "b") for m in names]
    for workload, change_median in (("a", "8"), ("b", "12")):
        assert {r[3] for r in rows if r[0] == workload and r[1] != "attempted"} == {
            f"{change_median} [{change_median}, {change_median}]"}
    # each workload runs its pairs in turn, alternating the side that goes first
    assert (tmp_path / "order.log").read_text().split("\n") == [
        "parent a 1", "change a 1", "change a 2", "parent a 2",
        "parent b 1", "change b 1", "change b 2", "parent b 2", ""]


def test_gain_needs_nine_tenths_of_the_pairs_in_the_better_direction(tmp_path, capsys):
    ab_pairs = _load_ab_pairs()
    seeds = range(1, 11)
    # the parent reads 10 in every run but on axp_ms_p50, which spreads
    parent = _checkout(tmp_path, "parent", {
        str(s): _summary(10.0, 100, axp_ms_p50=v)
        for s, v in zip(seeds, (9, 10, 10, 10, 10, 11, 11, 11, 12, 12))})
    # the change reads 8 in nine runs of ten, but 8 only in eight on
    # setup_s, and 9.5 in every run on axp_ms_p50
    change = _checkout(tmp_path, "change", {
        str(s): _summary(8.0 if s < 10 else 12.0, 100,
                         setup_s=8.0 if s < 9 else 12.0, axp_ms_p50=9.5)
        for s in seeds})
    assert ab_pairs.main([str(parent), str(change), "--workload", "w",
                          "--seeds", "1-10"]) == 0
    rows = _rows(capsys.readouterr().out)
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for name in METRICS:
        wins, beyond, gain = rows[name][3:6]
        if name == "setup_s":
            # 8 of 10 pairs is too few, though the medians lie far apart
            assert (wins, beyond, gain) == ("8/10", "yes", "no")
        elif name == "axp_ms_p50":
            # 9 of 10 pairs, but the medians lie within the parent's spread
            assert (wins, beyond, gain) == ("9/10", "no", "no")
        elif better[name] == "lower":
            assert (wins, beyond, gain) == ("9/10", "yes", "yes")
        else:
            # 8 against 10 is worse where higher is better: beyond the
            # parent's spread, but no gain
            assert (wins, beyond, gain) == ("1/10", "yes", "no")


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 2}])
def test_a_wrong_or_failing_run_stops_before_any_table(tmp_path, capsys, bad):
    ab_pairs = _load_ab_pairs()
    parent = _checkout(tmp_path, "parent", {
        str(seed): _summary(10.0, 100) for seed in (1, 2)})
    change = _checkout(tmp_path, "change", {
        "1": _summary(8.0, 120), "2": _summary(8.0, 120, **bad)})
    with pytest.raises(SystemExit) as stopped:
        ab_pairs.main([str(parent), str(change), "--workload", "w",
                       "--seeds", "1,2"])
    assert stopped.value.code not in (0, None)
    assert "seed 2" in str(stopped.value.code)
    assert capsys.readouterr().out == ""
