import gc
import json
import random
import re
import tracemalloc

import pytest

from conftest import random_shared_tree
from dualxp.bundled import _read, poole_model, synthetic_ensemble_model
from dualxp.model import AdditiveEnsemble, DecisionTree, Instance, Leaf
from dualxp.modelio import (
    ParseError,
    _build_classifier,
    _load_json,
    _stream_ensemble,
    parse_instances,
    parse_model,
    serialize_instances,
    serialize_model,
)
from dualxp.synth import random_space, random_tree, synthetic_ensemble


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


def _shared_parts(classifier) -> list[tuple[int, int]]:
    """For the leaves and for the children tuples of the splits: the number
    of distinct objects and of distinct values."""
    trees = ([classifier.tree] if isinstance(classifier, DecisionTree)
             else [t for group in classifier.trees for t in group])
    nodes = [n for t in trees for n in t.nodes]
    leaves = [n for n in nodes if isinstance(n, Leaf)]
    children = [n.children for n in nodes if not isinstance(n, Leaf)]
    return [(len({id(n) for n in leaves}), len({n.value for n in leaves})),
            (len({id(c) for c in children}), len(set(children)))]


def test_random_models_round_trip():
    rng = random.Random(11)
    models = []
    for _ in range(30):
        space = random_space(rng, rng.randint(1, 7), (1, 4))
        models.append(random_tree(rng, space, rng.randint(2, 4),
                                  max_depth=rng.randint(1, 6)))
        models.append(random_shared_tree(rng, space, rng.randint(2, 4),
                                         rng.randint(1, 25)))
    for seed in range(6):
        models.append(synthetic_ensemble(
            seed=seed, n_features=rng.randint(2, 8), trees_per_class=3,
            depth=rng.randint(1, 4), n_classes=rng.randint(2, 3)))
    for model in models:
        text = serialize_model(model)
        parsed = parse_model(text)
        assert parsed == model
        assert serialize_model(parsed) == text
        (leaf_objects, leaf_values), (tuples, children) = _shared_parts(parsed)
        assert leaf_objects == leaf_values and tuples == children
        if isinstance(parsed, DecisionTree):
            assert leaf_objects <= len(parsed.classes)


def test_parse_peak_stays_near_the_json_document():
    """The JSON document is released as the model is built, so parsing peaks
    barely above decoding the same text alone."""
    rng = random.Random(2)
    space = random_space(rng, 14, (2, 3))
    text = serialize_model(random_tree(rng, space, 3, max_depth=11, leaf_prob=0.1))

    def traced(parse):
        gc.collect()
        tracemalloc.start()
        try:
            result = parse(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept, peak

    _, _, json_peak = traced(json.loads)
    model, model_kept, parse_peak = traced(parse_model)
    assert len(model.tree.nodes) > 9000
    assert parse_peak - json_peak < model_kept / 2


def test_streamed_ensemble_parse_peaks_near_the_model():
    """An ensemble in the canonical layout is decoded one tree at a time, so
    its parse never holds the whole decoded document."""
    text = serialize_model(synthetic_ensemble(n_features=10, trees_per_class=20,
                                              depth=6))

    def peak(parse):
        gc.collect()
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_model) < peak(json.loads) / 2


def _whole_document_parse(text):
    """What `parse_model` gives or raises when it decodes the whole text."""
    try:
        classifier = _build_classifier(_load_json(text))
    except ParseError as error:
        return str(error)
    return classifier


def test_streamed_ensemble_parse_matches_the_whole_document():
    # a text in another layout, or one the whole-document parse rejects, is
    # left to that parse, which reports the error it always did
    rng = random.Random(41)
    for _ in range(8):
        model = synthetic_ensemble(
            seed=rng.randrange(1000), n_features=rng.randint(2, 6),
            trees_per_class=rng.randint(1, 4), depth=rng.randint(1, 3),
            n_classes=rng.randint(2, 3))
        text = serialize_model(model)
        obj = json.loads(text)
        head = [(k, v) for k, v in obj.items() if k != "trees"]
        trees = [("trees", obj["trees"])]
        streamed = [text, json.dumps(obj, separators=(",", ":")),
                    json.dumps(dict(head[::-1] + trees)), " \n" + text + "\n\n"]
        for layout in streamed:
            assert _stream_ensemble(layout) == _whole_document_parse(layout) == model
        end = text.rstrip().rindex("}")
        left = [json.dumps(dict(trees + head)),               # trees not last
                text[:end] + ', "scale": 2}',                   # a key repeated
                text[:end] + ', "note": 1}',                    # a key after trees
                text[:end] + "} {}",                            # extra data
                text.replace('"scale"', '"scale": 0, "scale"', 1),
                json.dumps(dict(head + [("trees", obj["trees"][:-1])])),
                json.dumps(dict(head + [("trees", obj["trees"] + [[]])])),
                text.replace('"score": ', '"score": 0.5 + ', 1),
                text.replace('"score": ', '"score": "', 1),
                text.replace('"ensemble"', '"tree"', 1),
                text.replace('"format_version": 1', '"format_version": 2', 1)]
        left += [text[:cut] for cut in sorted(rng.sample(range(end), 6))]
        for layout in left:
            assert _stream_ensemble(layout) is None
            expected = _whole_document_parse(layout)
            if isinstance(expected, str):
                with pytest.raises(ParseError, match=re.escape(expected)):
                    parse_model(layout)


def test_tree_text_is_decoded_once(poole, monkeypatch):
    # the streamed parse gives up on a decision tree before its nodes, so
    # only the whole-document parse decodes them
    decoded = []
    raw_decode = json.JSONDecoder.raw_decode

    def recording(self, text, pos=0):
        value, end = raw_decode(self, text, pos)
        decoded.append(value)
        return value, end

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", recording)
    text = serialize_model(poole)
    assert _stream_ensemble(text) is None
    assert decoded and not any(isinstance(value, list) and any(
        isinstance(node, dict) and "feature" in node for node in value)
        for value in decoded)


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
    with pytest.raises(ParseError, match=r"unknown category 'LONG' \(row 0, col L\)"):
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
    with pytest.raises(ParseError, match=r"^row 0: expected 4 cells, got 3$"):
        parse_instances("A,T,L,W\nknown,new,short\n", poole.space)


def test_instances_round_trip(poole):
    instances = [Instance((0, 0, 1, 1)), Instance((1, 1, 0, 0))]
    text = serialize_instances(instances, poole.space)
    assert parse_instances(text, poole.space) == instances


def _tree_with(node_id: int, node) -> str:
    obj = json.loads(_read("poole.json"))
    obj["nodes"][node_id] = node
    return json.dumps(obj)


def _ensemble_with(node_id: int, node) -> str:
    obj = json.loads(_read("synth_ensemble.json"))
    obj["trees"][0][0]["nodes"][node_id] = node
    return json.dumps(obj)


def test_node_parse_messages_are_pinned():
    # one malformed node per check of the node parser, with its full message
    full_map = {"long": 1, "short": 2}
    cases = [
        (_tree_with(1, ["class", "skips"]), "tree: nodes[1] must be an object"),
        (_tree_with(1, {"class": 1}), "tree: nodes[1].class must be a class name"),
        (_tree_with(1, {"class": True}), "tree: nodes[1].class must be a class name"),
        (_tree_with(1, {"class": "naps"}),
         "tree: nodes[1].class 'naps' is not a declared class"),
        (_ensemble_with(0, {"score": 1.5}),
         "trees[0][0]: nodes[0].score must be an integer"),
        (_ensemble_with(0, {"score": True}),
         "trees[0][0]: nodes[0].score must be an integer"),
        (_ensemble_with(0, {"score": "7"}),
         "trees[0][0]: nodes[0].score must be an integer"),
        (_tree_with(0, {"feature": "Q", "children": full_map}),
         "tree: nodes[0].feature 'Q' is not a declared feature"),
        (_tree_with(0, {"feature": 3, "children": full_map}),
         "tree: nodes[0].feature '3' is not a declared feature"),
        (_tree_with(0, {"feature": "L", "children": [1, 2]}),
         "tree: nodes[0].children must be an object"),
        (_tree_with(0, {"feature": "L"}), "tree: nodes[0].children must be an object"),
        (_tree_with(0, {"feature": "L", "children": {"long": 1}}),
         "tree: nodes[0].children must map exactly the domain of 'L' "
         "(['long', 'short'])"),
        (_tree_with(0, {"feature": "L", "children": {**full_map, "medium": 2}}),
         "tree: nodes[0].children must map exactly the domain of 'L' "
         "(['long', 'short'])"),
        (_tree_with(0, {"feature": "L", "children": {"short": 2, "long": "1"}}),
         "tree: nodes[0].children['long'] must be a node id"),
        (_tree_with(0, {"feature": "L", "children": {"long": 1, "short": True}}),
         "tree: nodes[0].children['short'] must be a node id"),
        (_tree_with(0, {"feature": "L", "children": {"long": 1, "short": 2.0}}),
         "tree: nodes[0].children['short'] must be a node id"),
        (_tree_with(1, {}), "tree: nodes[1] must carry either 'class' or 'feature'"),
        (_ensemble_with(0, {"class": "c0"}),
         "trees[0][0]: nodes[0] must carry either 'score' or 'feature'"),
    ]
    obj = json.loads(_read("poole.json"))
    for nodes in ([], {}, None):
        obj["nodes"] = nodes
        cases.append((json.dumps(obj), "tree: field 'nodes' must be a non-empty list"))
    obj = json.loads(_read("synth_ensemble.json"))
    obj["trees"][1][2]["root"] = True
    cases.append((json.dumps(obj), "trees[1][2]: field 'root' must be an integer"))
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_model(text)
        assert str(info.value) == message
