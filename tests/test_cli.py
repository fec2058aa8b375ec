import json
import os

import pytest

from dualxp.bundled import _read
from dualxp.cli import main
from dualxp.model import PartialAssignment


@pytest.fixture
def poole_file(tmp_path):
    path = tmp_path / "poole.json"
    path.write_text(_read("poole.json"))
    return str(path)


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.csv"
    path.write_text("A,T,L,W\nknown,new,short,work\n")
    return str(path)


@pytest.fixture
def all16_file(tmp_path):
    rows = ["A,T,L,W"]
    for a in ("known", "unknown"):
        for t in ("new", "followUp"):
            for l in ("long", "short"):
                for w in ("home", "work"):
                    rows.append(f"{a},{t},{l},{w}")
    path = tmp_path / "all16.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_predict(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "predict", "-m", poole_file, "-i", e2_file)
    assert code == 0
    assert out == "reads\n"


def test_axp(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "axp", "-m", poole_file, "-i", e2_file)
    assert code == 0
    assert out == "reads: {T=new, L=short}\n"


def test_axp_order_flag(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "axp", "-m", poole_file, "-i", e2_file,
                       "--order", "T,A,L,W")
    assert code == 0
    assert out == "reads: {A=known, L=short}\n"


def test_cxp_with_witness(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "cxp", "-m", poole_file, "-i", e2_file)
    assert code == 0
    assert out == "reads: {L=short} -> {L=long} (skips)\n"


def test_cxp_targeted(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "cxp", "-m", poole_file, "-i", e2_file,
                       "--target", "skips")
    assert code == 0
    assert out == "reads: {L=short} -> {L=long} (skips)\n"


def test_enum_all_records(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "enum", "-m", poole_file, "-i", e2_file,
                       "--mode", "all")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    axps = [r for r in records if r["kind"] == "axp"]
    cxps = [r for r in records if r["kind"] == "cxp"]
    assert {frozenset(r["literals"]) for r in axps} == {
        frozenset({"L", "T"}), frozenset({"L", "A"})
    }
    assert {frozenset(r["literals"]) for r in cxps} == {
        frozenset({"L"}), frozenset({"T", "A"})
    }
    for r in records:
        assert r["class"] == "reads"
        assert r["row"] == 0


def test_enum_cxp_mode_sorted(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "enum", "-m", poole_file, "-i", e2_file,
                       "--mode", "cxp", "--sort-size")
    records = [json.loads(line) for line in out.splitlines()]
    sizes = [len(r["literals"]) for r in records]
    assert sizes == sorted(sizes)
    assert all(r["kind"] == "cxp" for r in records)


def test_enum_limit(capsys, poole_file, e2_file):
    code, out, _ = run(capsys, "enum", "-m", poole_file, "-i", e2_file,
                       "--limit", "1")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_verify_all16(capsys, poole_file, all16_file):
    code, out, _ = run(capsys, "verify", "-m", poole_file, "-i", all16_file)
    assert code == 0
    assert len(out.splitlines()) == 16
    assert all("ok" in line for line in out.splitlines())


def test_verify_checks_each_explanation(capsys, monkeypatch, poole_file, e2_file):
    # {L} alone does not entail e2's prediction, yet the two one-set
    # families are exact duals: only the per-explanation checks see it
    from dualxp.explain import AXp, CXp

    L = 2

    def wrong(problem, **kwargs):
        return [AXp(frozenset({L}))], [CXp(frozenset({L}), problem.targets)]

    monkeypatch.setattr("dualxp.cli.enumerate_all", wrong)
    code, out, _ = run(capsys, "verify", "-m", poole_file, "-i", e2_file)
    assert code == 1
    assert out == "row 0: AXp {2}: not sufficient for the prediction\n"


def test_stats(capsys, tmp_path, poole_file, all16_file):
    out_csv = tmp_path / "stats.csv"
    code, out, _ = run(capsys, "stats", "-m", poole_file, "-i", all16_file,
                       "-o", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("row,prediction,n_axps")
    assert len(lines) == 18  # header + 16 instances + aggregate
    assert "total axps" in out


def test_parse_error_exit_code(capsys, tmp_path, e2_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "predict", "-m", str(bad), "-i", e2_file)
    assert code == 3
    assert "error" in err


def test_validation_error_exit_code(capsys, tmp_path, e2_file, poole_file):
    import json as j
    obj = j.loads(_read("poole.json"))
    for node in obj["nodes"]:
        if node.get("feature") == "L":
            node["children"]["short"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(j.dumps(obj))
    code, _, err = run(capsys, "axp", "-m", bad.as_posix(), "-i", e2_file)
    assert code == 3


def test_usage_error_exit_code(capsys, poole_file):
    with pytest.raises(SystemExit) as exc:
        main(["axp", "-m", poole_file])
    assert exc.value.code == 2
    capsys.readouterr()


def test_budget_exit_code(capsys, tmp_path, monkeypatch):
    from dualxp.bundled import synthetic_instances_csv

    model = tmp_path / "ens.json"
    model.write_text(_read("synth_ensemble.json"))
    inst = tmp_path / "inst.csv"
    inst.write_text(synthetic_instances_csv())
    monkeypatch.setenv("XDUAL_BUDGET", "4")
    code, _, err = run(capsys, "axp", "-m", str(model), "-i", str(inst))
    assert code == 4


def test_budget_reaches_hitting_set_solver(capsys, monkeypatch, poole_file,
                                           e2_file):
    monkeypatch.setenv("XDUAL_BUDGET", "1")
    for argv in (["verify"], ["enum", "--mode", "cxp"], ["enum", "--mode", "all"]):
        code, _, err = run(capsys, *argv, "-m", poole_file, "-i", e2_file)
        assert code == 4, argv
        assert "exceeded 1 nodes" in err


def test_enum_negative_limit_is_usage_error(capsys, poole_file, e2_file):
    with pytest.raises(SystemExit) as exc:
        main(["enum", "-m", poole_file, "-i", e2_file, "--limit", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_deep_split_chain_is_a_validation_error(capsys, tmp_path):
    # 3,000 nested splits on one feature: validation must report the
    # repeats instead of overflowing the Python stack
    depth = 3000
    nodes = []
    for i in range(depth):
        nodes.append({"feature": "X", "children": {"a": 2 * i + 2, "b": 2 * i + 1}})
        nodes.append({"class": "yes"})
    nodes.append({"class": "no"})
    model = tmp_path / "chain.json"
    model.write_text(json.dumps({
        "format_version": 1, "kind": "tree",
        "features": [{"name": "X", "domain": ["a", "b"]}],
        "classes": ["yes", "no"], "root": 0, "nodes": nodes,
    }))
    inst = tmp_path / "x.csv"
    inst.write_text("X\na\n")
    code, _, err = run(capsys, "predict", "-m", str(model), "-i", str(inst))
    assert code == 3
    assert err.count("repeats on the path") == depth - 1


def test_deep_chain_of_one_value_features(capsys, tmp_path):
    # a valid tree deeper than Python's recursion limit: 3,000 splits on
    # distinct one-value features, then one binary split on x
    depth = 3000
    features = [{"name": f"f{i}", "domain": ["a"]} for i in range(depth)]
    features.append({"name": "x", "domain": ["a", "b"]})
    nodes = [{"feature": f"f{i}", "children": {"a": i + 1}} for i in range(depth)]
    nodes.append({"feature": "x", "children": {"a": depth + 1, "b": depth + 2}})
    nodes += [{"class": "c0"}, {"class": "c1"}]
    model = tmp_path / "chain.json"
    model.write_text(json.dumps({
        "format_version": 1, "kind": "tree", "features": features,
        "classes": ["c0", "c1"], "root": 0, "nodes": nodes,
    }))
    inst = tmp_path / "row.csv"
    inst.write_text(",".join(f["name"] for f in features) + "\n"
                    + ",".join(["a"] * (depth + 1)) + "\n")
    argv = ["-m", str(model), "-i", str(inst)]
    assert run(capsys, "axp", *argv) == (0, "c0: {x=a}\n", "")
    assert run(capsys, "cxp", *argv) == (0, "c0: {x=a} -> {x=b} (c1)\n", "")
    code, out, _ = run(capsys, "enum", *argv)
    assert code == 0
    assert sorted(json.loads(line)["kind"] for line in out.splitlines()) == [
        "axp", "cxp"]


def test_internal_error_exit_code(capsys, monkeypatch, poole_file, e2_file):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr("dualxp.cli.extract_axp", broken)
    code, out, err = run(capsys, "axp", "-m", poole_file, "-i", e2_file)
    assert code == 5
    assert out == ""
    assert "Traceback" in err and "RuntimeError: simulated defect" in err


def _python_m_dualxp(*argv):
    """`python -m dualxp` with this checkout's package first on the path,
    as a running subprocess.Popen with piped, text-mode output."""
    import subprocess
    import sys
    from pathlib import Path

    import dualxp

    package = Path(dualxp.__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "dualxp", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _bundled_ensemble_argv(command):
    from pathlib import Path

    import dualxp

    data = Path(dualxp.__file__).resolve().parent / "data"
    return [command, "-m", str(data / "synth_ensemble.json"),
            "-i", str(data / "synth_instances.csv")]


def test_python_m_dualxp(capsys):
    argv = _bundled_ensemble_argv("predict")
    proc = _python_m_dualxp(*argv)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out == run(capsys, *argv)[1]


def test_closed_output_pipe_exits_quietly():
    # about 150 kB of records, more than a pipe holds, so the writer meets
    # the closed pipe after the reader stops at the first line
    proc = _python_m_dualxp(*_bundled_ensemble_argv("enum"))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert json.loads(first)["row"] == 0
    assert err == ""


def test_byte_stability(capsys, poole_file, all16_file):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "enum", "-m", poole_file, "-i", all16_file,
                        "--mode", "all")
        outputs.append(out)
    assert outputs[0] == outputs[1]
