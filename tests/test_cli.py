import hashlib
import json
import os
import subprocess

import pytest

from dualxp.bundled import _read
from dualxp.cli import main


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


def test_cxp_target_of_a_row_predicted_into_it(capsys, poole_file, tmp_path):
    # row 1 is already predicted skips: the rows before it are printed,
    # and the error names the row
    path = tmp_path / "two.csv"
    path.write_text("A,T,L,W\nknown,new,short,work\nknown,new,long,home\n")
    code, out, err = run(capsys, "cxp", "-m", poole_file, "-i", str(path),
                         "--target", "skips")
    assert code == 3
    assert out == "reads: {L=short} -> {L=long} (skips)\n"
    assert err == "error: row 1: target classes must exclude the predicted class\n"


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


def test_stats_timing_column(capsys, tmp_path, poole_file, all16_file):
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    for path, flags in ((plain, []), (timed, ["--timing"])):
        code, _, _ = run(capsys, "stats", "-m", poole_file, "-i", all16_file,
                         "-o", str(path), *flags)
        assert code == 0
    plain_rows = plain.read_bytes().splitlines()
    timed_rows = timed.read_bytes().splitlines()
    assert timed_rows[0].endswith(b",wall_ms")
    assert len(timed_rows) == len(plain_rows) == 18
    for p, t in zip(plain_rows, timed_rows):
        assert t.count(b",") == p.count(b",") + 1
    for t in timed_rows[1:]:
        assert float(t.rsplit(b",", 1)[1]) >= 0
    # without the last column the timed CSV is the untimed one, byte for byte
    assert b"".join(t.rsplit(b",", 1)[0] + b"\n" for t in timed_rows) == plain.read_bytes()


def test_parse_error_exit_code(capsys, tmp_path, e2_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "predict", "-m", str(bad), "-i", e2_file)
    assert code == 3
    assert "error" in err


def test_input_not_utf8_exit_code(capsys, tmp_path, poole_file, e2_file):
    bad = tmp_path / "latin1.bin"
    bad.write_bytes("A,T,L,W\nknown,new,short,w\xf6rk\n".encode("latin-1"))
    for model, instances, what in ((str(bad), e2_file, "model"),
                                   (poole_file, str(bad), "instance")):
        code, _, err = run(capsys, "predict", "-m", model, "-i", instances)
        assert code == 3
        assert err.startswith(f"error: cannot read {what} file: ")
        assert err.count("\n") == 1


def test_instance_csv_with_byte_order_mark(capsys, tmp_path, poole_file):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbfA,T,L,W\nknown,new,short,work\n")
    code, out, err = run(capsys, "predict", "-m", poole_file, "-i", str(bom))
    assert (code, out, err) == (0, "reads\n", "")


def test_model_with_byte_order_mark(capsys, tmp_path, e2_file):
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + _read("poole.json").encode("utf-8"))
    code, out, err = run(capsys, "axp", "-m", str(bom), "-i", e2_file)
    assert (code, out, err) == (0, "reads: {T=new, L=short}\n", "")


def test_deeply_nested_model_json_exit_code(capsys, tmp_path, e2_file):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    code, _, err = run(capsys, "predict", "-m", str(bad), "-i", e2_file)
    assert code == 3
    assert err == "error: invalid JSON: nested too deeply\n"


def test_csv_cell_over_field_limit_exit_code(capsys, tmp_path, poole_file):
    bad = tmp_path / "wide.csv"
    bad.write_text("A,T,L,W\n" + "k" * 200_000 + ",new,short,work\n")
    code, _, err = run(capsys, "predict", "-m", poole_file, "-i", str(bad))
    assert code == 3
    assert err.startswith("error: instance CSV line 2: field larger than")
    assert err.count("\n") == 1


def test_stats_output_into_missing_directory_exit_code(capsys, tmp_path,
                                                       poole_file, e2_file):
    target = tmp_path / "missing" / "stats.csv"
    code, out, err = run(capsys, "stats", "-m", poole_file, "-i", e2_file,
                         "-o", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot write output file: ")
    assert err.count("\n") == 1


def test_stats_output_checked_before_enumeration(capsys, monkeypatch, tmp_path,
                                                 poole_file, e2_file):
    def enumerated(*args, **kwargs):
        raise AssertionError("collect_stats ran before the output was checked")

    monkeypatch.setattr("dualxp.cli.collect_stats", enumerated)
    target = tmp_path / "missing" / "stats.csv"
    code, out, err = run(capsys, "stats", "-m", poole_file, "-i", e2_file,
                         "-o", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot write output file: ")


def test_stats_budget_exceeded_leaves_output_alone(capsys, tmp_path, monkeypatch):
    from dualxp.bundled import synthetic_instances_csv

    model = tmp_path / "ens.json"
    model.write_text(_read("synth_ensemble.json"))
    inst = tmp_path / "inst.csv"
    inst.write_text(synthetic_instances_csv())
    monkeypatch.setenv("XDUAL_BUDGET", "3")
    new = tmp_path / "new.csv"
    old = tmp_path / "old.csv"
    old.write_text("kept\n")
    for target in (new, old):
        code, out, err = run(capsys, "stats", "-m", str(model), "-i", str(inst),
                             "-o", str(target))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")
    assert not new.exists()
    assert old.read_text() == "kept\n"


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


@pytest.mark.parametrize("command", ["predict", "axp", "cxp", "enum", "verify", "stats"])
def test_bad_budget_rejected_with_no_rows(capsys, monkeypatch, tmp_path, poole_file,
                                          command):
    # XDUAL_BUDGET is read once per command, not once per row
    header_only = tmp_path / "header.csv"
    header_only.write_text("A,T,L,W\n")
    output = tmp_path / "stats.csv"
    extra = ["-o", str(output)] if command == "stats" else []
    monkeypatch.setenv("XDUAL_BUDGET", "abc")
    code, out, err = run(capsys, command, "-m", poole_file, "-i", str(header_only),
                         *extra)
    assert code == 3
    assert out == ""
    assert err == "error: XDUAL_BUDGET must be a positive integer, got 'abc'\n"
    assert not output.exists()


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
    reverse = ",".join(f["name"] for f in reversed(features))
    assert run(capsys, "axp", "--order", reverse, *argv) == (0, "c0: {x=a}\n", "")
    assert run(capsys, "cxp", *argv) == (0, "c0: {x=a} -> {x=b} (c1)\n", "")
    code, out, _ = run(capsys, "enum", *argv)
    assert code == 0
    assert sorted(json.loads(line)["kind"] for line in out.splitlines()) == [
        "axp", "cxp"]
    assert run(capsys, "verify", *argv) == (0, "row 0: ok (1 axps, 1 cxps)\n", "")


def test_shared_split_chain(tmp_path):
    # 60 binary splits, each with both children on the next one: 2^59
    # paths, so neither validation nor enumeration may walk each path
    from conftest import shared_chain
    from dualxp.modelio import serialize_model

    model = tmp_path / "chain.json"
    model.write_text(serialize_model(shared_chain(60)))
    inst = tmp_path / "row.csv"
    inst.write_text(",".join(f"x{i}" for i in range(60)) + "\n"
                    + ",".join(["a"] * 60) + "\n")
    proc = _python_m_dualxp("enum", "-m", str(model), "-i", str(inst))
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["literals"] for r in records if r["kind"] == "cxp"] == [{"x59": "a"}]


def test_tree_cxp_mode_stops_at_the_first_axp(capsys, tmp_path):
    # AND over 17 pairs of (a_i OR b_i), 34 splits sharing children: an
    # all-1 row has the 17 CXps {a_i, b_i} and 2^17 AXps, more than an
    # enumeration may report, and a tree lists every CXp before any AXp
    pairs = 17
    features = [{"name": f"{x}{i}", "domain": ["0", "1"]}
                for i in range(pairs) for x in "ab"]
    no, yes = 2 * pairs, 2 * pairs + 1
    nodes = []
    for i in range(pairs):
        after = 2 * i + 2 if i + 1 < pairs else yes
        nodes.append({"feature": f"a{i}", "children": {"0": 2 * i + 1, "1": after}})
        nodes.append({"feature": f"b{i}", "children": {"0": no, "1": after}})
    nodes += [{"class": "no"}, {"class": "yes"}]
    model = tmp_path / "pairs.json"
    model.write_text(json.dumps({
        "format_version": 1, "kind": "tree", "features": features,
        "classes": ["no", "yes"], "root": 0, "nodes": nodes,
    }))
    inst = tmp_path / "row.csv"
    inst.write_text(",".join(f["name"] for f in features) + "\n"
                    + ",".join(["1"] * 2 * pairs) + "\n")
    code, out, err = run(capsys, "enum", "--mode", "cxp", "-m", str(model),
                         "-i", str(inst))
    assert (code, err) == (0, "")
    assert [json.loads(line)["literals"] for line in out.splitlines()] == [
        {f"a{i}": "1", f"b{i}": "1"} for i in range(pairs)]


def test_internal_error_exit_code(capsys, monkeypatch, poole_file, e2_file):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr("dualxp.cli.extract_axp", broken)
    code, out, err = run(capsys, "axp", "-m", poole_file, "-i", e2_file)
    assert code == 5
    assert out == ""
    assert "Traceback" in err and "RuntimeError: simulated defect" in err


def test_missing_cxp_witness_is_an_internal_error(capsys, monkeypatch,
                                                  poole_file, e2_file):
    # a valid CXp always has a witness, so a search that finds none is a
    # defect in dualxp, not a bad input: exit 5 with the traceback
    monkeypatch.setattr("dualxp.oracle.Oracle.find_counterexample",
                        lambda *args: None)
    code, out, err = run(capsys, "cxp", "-m", poole_file, "-i", e2_file)
    assert code == 5
    assert out == ""
    assert "Traceback" in err and "internal defect" in err


def _python_m_dualxp(*argv):
    """`python -m dualxp` with this checkout's package first on the path,
    as a running subprocess.Popen with piped, text-mode output."""
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
    # a permuted order moves the features' positions in the hitting-set
    # search, and so the order of the AXp and CXp records
    code, out, err = run(capsys, "enum", "-m", poole_file, "-i", all16_file,
                         "--mode", "all", "--order", "W,L,T,A")
    assert (code, err) == (0, "")
    assert out != outputs[0]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4f828fc118d5d4321b7794dc8b3bf0a5db58ac105e817d313ef7fd8e4c0b9301")


# sha256 of each command's output on the first 20 bundled ensemble rows;
# for `stats`, of its standard output followed by the CSV it writes.
# `enum` pins the discovery order; `enum --sort-size` pins the families
# whatever that order; the `--order` and `--smallest` runs pin how the
# features' positions steer the hitting-set search
BUNDLED_ENSEMBLE_DIGESTS = {
    "axp": "6902ef53d857ad4c0a00b049c20bdc8a01048b434a07cf336785d339a7dcce9d",
    "cxp": "50f1d017e672f0b36d6375bdb771070b12258ec206772f20af9f5975f23e3964",
    "enum": "d65f01ef82364d5348bdfa65415bcf23e0acfa623a2dce0ba199a444057e0c24",
    "enum --sort-size":
        "99e7525f6650228ce2eeb976e6fac58086e63659ef20863da5450369a98ef3e7",
    "enum --order reversed":
        "fb78480e6617218a290f03984112f835e96210e307be65976c20ec6efd1e436d",
    "enum --smallest":
        "d384a4be26baa9f17b23143e6d53a9408f15bf11b4fb008c26da840317acf435",
    "enum --smallest --order reversed":
        "80dc4db80a3de31ff3a0f9ca40521d28ac051bef5db82bc35d579bb520158694",
    "verify": "a627c9ce72ceed92203d156ef0621bbf8f8cba910ea51c970ff3604b4d261050",
    "stats": "c88d0a9c7865ffd946f388788241275db2a024e97326e17d0b40e2c5111a7701",
}


def test_bundled_ensemble_output_is_pinned(capsys, tmp_path):
    model = tmp_path / "ensemble.json"
    model.write_text(_read("synth_ensemble.json"))
    rows = tmp_path / "rows.csv"
    rows.write_text("".join(_read("synth_instances.csv").splitlines(True)[:21]))
    files = ["-m", str(model), "-i", str(rows)]
    out_csv = tmp_path / "stats.csv"
    reversed_order = ["--order", ",".join(f"f{i}" for i in range(9, -1, -1))]
    argvs = {"axp": ["axp"], "cxp": ["cxp"], "enum": ["enum", "--mode", "all"],
             "enum --sort-size": ["enum", "--mode", "all", "--sort-size"],
             "enum --order reversed": ["enum", "--mode", "all", *reversed_order],
             "enum --smallest": ["enum", "--mode", "all", "--smallest"],
             "enum --smallest --order reversed":
                 ["enum", "--mode", "all", "--smallest", *reversed_order],
             "verify": ["verify"], "stats": ["stats", "-o", str(out_csv)]}
    digests = {}
    for name, argv in argvs.items():
        code, out, err = run(capsys, *argv, *files)
        assert (code, err) == (0, "")
        data = out.encode() + (out_csv.read_bytes() if name == "stats" else b"")
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == BUNDLED_ENSEMBLE_DIGESTS
