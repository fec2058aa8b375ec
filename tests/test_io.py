import json

import pytest

from dualxp.bundled import _read, poole_model, synthetic_ensemble_model
from dualxp.model import AdditiveEnsemble, DecisionTree, Instance
from dualxp.modelio import (
    ParseError,
    parse_instances,
    parse_model,
    serialize_instances,
    serialize_model,
)


def test_bundled_poole_parses(poole):
    assert isinstance(poole, DecisionTree)
    assert poole.space.names == ("A", "T", "L", "W")
    assert poole.classes == ("reads", "skips")


def test_bundled_data_regenerates_byte_for_byte():
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_bundled_data.py"
    spec = importlib.util.spec_from_file_location("gen_bundled_data", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    files = gen.bundled_files()
    assert sorted(files) == ["poole.json", "synth_ensemble.json",
                             "synth_instances.csv"]
    for name, text in files.items():
        assert _read(name) == text, name


def test_bundled_ensemble_parses():
    model = synthetic_ensemble_model()
    assert isinstance(model, AdditiveEnsemble)
    assert model.space.n_features == 10
    assert model.scale == 100000


def test_model_round_trip(poole):
    text = serialize_model(poole)
    assert serialize_model(parse_model(text)) == text
    # bundled file is stored in canonical form
    assert _read("poole.json") == text


def test_ensemble_round_trip():
    model = synthetic_ensemble_model()
    text = serialize_model(model)
    assert parse_model(text) == model
    assert serialize_model(parse_model(text)) == text


def test_unknown_kind():
    obj = json.loads(_read("poole.json"))
    obj["kind"] = "forest"
    with pytest.raises(ParseError, match="kind"):
        parse_model(json.dumps(obj))


def test_non_integer_score():
    obj = json.loads(_read("synth_ensemble.json"))
    obj["trees"][0][0]["nodes"][-1] = {"score": 1.5}
    with pytest.raises(ParseError, match="score"):
        parse_model(json.dumps(obj))


def test_missing_child_rejected():
    obj = json.loads(_read("poole.json"))
    for node in obj["nodes"]:
        if node.get("feature") == "L":
            del node["children"]["short"]
    with pytest.raises(ParseError, match="children"):
        parse_model(json.dumps(obj))


def test_bad_format_version():
    obj = json.loads(_read("poole.json"))
    obj["format_version"] = 99
    with pytest.raises(ParseError, match="format_version"):
        parse_model(json.dumps(obj))


def test_invalid_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_model("{")


def test_parse_instances_golden(poole, e2):
    got = parse_instances("A,T,L,W\nknown,new,short,work\n", poole.space)
    assert got == [e2]


def test_parse_instances_reordered_header(poole, e2):
    got = parse_instances("L,W,A,T\nshort,work,known,new\n", poole.space)
    assert got == [e2]


def test_parse_instances_empty_body(poole):
    assert parse_instances("A,T,L,W\n", poole.space) == []


def test_parse_instances_unknown_category(poole):
    with pytest.raises(ParseError, match=r"unknown category 'LONG' \(row 1, col L\)"):
        parse_instances("A,T,L,W\nknown,new,LONG,work\n", poole.space)


def test_parse_instances_unknown_feature(poole):
    with pytest.raises(ParseError, match="unknown feature"):
        parse_instances("A,T,L,Z\nknown,new,short,work\n", poole.space)


def test_parse_instances_repeated_column(poole):
    # every feature is there, so only the repeat can explain the mismatch
    with pytest.raises(ParseError, match=r"^instance CSV header: repeated column\(s\) \['A'\]$"):
        parse_instances("A,A,T,L,W\nknown,known,new,short,work\n", poole.space)
    with pytest.raises(ParseError, match=r"missing feature\(s\) \['T'\]; repeated column\(s\) \['A'\]"):
        parse_instances("A,A,L,W\nknown,known,short,work\n", poole.space)


def test_parse_instances_missing_cell(poole):
    with pytest.raises(ParseError, match="row 1"):
        parse_instances("A,T,L,W\nknown,new,short\n", poole.space)


def test_instances_round_trip(poole):
    instances = [Instance((0, 0, 1, 1)), Instance((1, 1, 0, 0))]
    text = serialize_instances(instances, poole.space)
    assert parse_instances(text, poole.space) == instances
