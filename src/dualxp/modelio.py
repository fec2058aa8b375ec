"""Model JSON and instance CSV parsing, plus canonical serialization.

The model format is a single JSON object; see docs/formats.md.  Serialization
is canonical (fixed key order, two-space indent, trailing newline) so that
parse/serialize round-trips are byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
from typing import Union

from .model import (
    AdditiveEnsemble,
    Classifier,
    DecisionTree,
    FeatureSpace,
    Instance,
    Leaf,
    ModelError,
    Node,
    Split,
    TreeStructure,
    validate,
)

FORMAT_VERSION = 1


class ParseError(ModelError):
    """Malformed model or instance input; the message names the location."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _parse_space(obj: dict) -> FeatureSpace:
    feats = obj.get("features")
    _expect(isinstance(feats, list) and feats, "field 'features' must be a non-empty list")
    names, domains = [], []
    for i, f in enumerate(feats):
        _expect(isinstance(f, dict), f"features[{i}] must be an object")
        _expect(isinstance(f.get("name"), str), f"features[{i}].name must be a string")
        dom = f.get("domain")
        _expect(isinstance(dom, list) and dom and all(isinstance(c, str) for c in dom),
                f"features[{i}].domain must be a non-empty list of strings")
        names.append(f["name"])
        domains.append(tuple(dom))
    try:
        return FeatureSpace(tuple(names), tuple(domains))
    except ModelError as e:
        raise ParseError(f"invalid feature space: {e}") from e


def _parse_nodes(obj: dict, space: FeatureSpace, feature_ids: dict[str, int],
                 where: str, class_ids: dict[str, int] | None) -> TreeStructure:
    """`feature_ids` and `class_ids` map each declared name to its index;
    a regressor tree has no classes and reads integer scores."""
    leaf_key = "class" if class_ids is not None else "score"
    nodes_json = obj.get("nodes")
    _expect(isinstance(nodes_json, list) and nodes_json,
            f"{where}: field 'nodes' must be a non-empty list")
    root = obj.get("root", 0)
    _expect(isinstance(root, int) and not isinstance(root, bool),
            f"{where}: field 'root' must be an integer")
    nodes: list[Node] = []
    for i, nj in enumerate(nodes_json):
        _expect(isinstance(nj, dict), f"{where}: nodes[{i}] must be an object")
        if leaf_key in nj:
            val = nj[leaf_key]
            if class_ids is not None:
                _expect(isinstance(val, str), f"{where}: nodes[{i}].class must be a class name")
                ci = class_ids.get(val)
                _expect(ci is not None,
                        f"{where}: nodes[{i}].class '{val}' is not a declared class")
                nodes.append(Leaf(ci))
            else:
                _expect(isinstance(val, int) and not isinstance(val, bool),
                        f"{where}: nodes[{i}].score must be an integer")
                nodes.append(Leaf(val))
        elif "feature" in nj:
            fname = nj["feature"]
            fi = feature_ids.get(fname) if isinstance(fname, str) else None
            _expect(fi is not None,
                    f"{where}: nodes[{i}].feature '{fname}' is not a declared feature")
            children = nj.get("children")
            _expect(isinstance(children, dict),
                    f"{where}: nodes[{i}].children must be an object")
            dom = space.domains[fi]
            _expect(set(children) == set(dom),
                    f"{where}: nodes[{i}].children must map exactly the domain of "
                    f"'{fname}' ({list(dom)})")
            ids = []
            for cat in dom:
                cid = children[cat]
                _expect(isinstance(cid, int) and not isinstance(cid, bool),
                        f"{where}: nodes[{i}].children['{cat}'] must be a node id")
                ids.append(cid)
            nodes.append(Split(fi, tuple(ids)))
        else:
            raise ParseError(
                f"{where}: nodes[{i}] must carry either '{leaf_key}' or 'feature'"
            )
    return TreeStructure(tuple(nodes), root)


def parse_model(text: str) -> Classifier:
    """Parse and fully validate a model file."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    _expect(isinstance(obj, dict), "model file must contain a JSON object")
    version = obj.get("format_version")
    _expect(version == FORMAT_VERSION,
            f"field 'format_version' must be {FORMAT_VERSION}")
    kind = obj.get("kind")
    _expect(kind in ("tree", "ensemble"),
            f"field 'kind' must be 'tree' or 'ensemble', got {kind!r}")
    space = _parse_space(obj)
    classes = obj.get("classes")
    _expect(isinstance(classes, list) and len(classes) >= 2
            and all(isinstance(c, str) for c in classes),
            "field 'classes' must list at least two class names")
    _expect(len(set(classes)) == len(classes), "duplicate class names")
    feature_ids = {name: f for f, name in enumerate(space.names)}

    if kind == "tree":
        tree = _parse_nodes(obj, space, feature_ids, "tree",
                            {name: c for c, name in enumerate(classes)})
        classifier: Classifier = DecisionTree(space, tuple(classes), tree)
    else:
        scale = obj.get("scale")
        _expect(isinstance(scale, int) and not isinstance(scale, bool) and scale >= 1,
                "field 'scale' must be a positive integer")
        groups_json = obj.get("trees")
        _expect(isinstance(groups_json, list) and len(groups_json) == len(classes),
                "field 'trees' must hold one list of trees per class")
        groups = []
        for ci, group in enumerate(groups_json):
            _expect(isinstance(group, list) and group,
                    f"trees[{ci}] must be a non-empty list")
            parsed = []
            for ti, t in enumerate(group):
                _expect(isinstance(t, dict), f"trees[{ci}][{ti}] must be an object")
                parsed.append(
                    _parse_nodes(t, space, feature_ids, f"trees[{ci}][{ti}]", None)
                )
            groups.append(tuple(parsed))
        classifier = AdditiveEnsemble(space, tuple(classes), tuple(groups), scale)

    problems = validate(classifier)
    if problems:
        raise ParseError("model validation failed: " + "; ".join(problems))
    return classifier


def _nodes_to_json(space: FeatureSpace, tree: TreeStructure, classes=None) -> list:
    out = []
    for node in tree.nodes:
        if isinstance(node, Leaf):
            if classes is not None:
                out.append({"class": classes[node.value]})
            else:
                out.append({"score": node.value})
        else:
            dom = space.domains[node.feature]
            out.append({
                "feature": space.names[node.feature],
                "children": {cat: cid for cat, cid in zip(dom, node.children)},
            })
    return out


def serialize_model(classifier: Classifier) -> str:
    """Canonical JSON text; parse(serialize(m)) reproduces m exactly."""
    space = classifier.space
    obj: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "tree" if isinstance(classifier, DecisionTree) else "ensemble",
        "features": [
            {"name": n, "domain": list(d)} for n, d in zip(space.names, space.domains)
        ],
        "classes": list(classifier.classes),
    }
    if isinstance(classifier, DecisionTree):
        obj["root"] = classifier.tree.root
        obj["nodes"] = _nodes_to_json(space, classifier.tree, classifier.classes)
    else:
        obj["scale"] = classifier.scale
        obj["trees"] = [
            [{"root": t.root, "nodes": _nodes_to_json(space, t)} for t in group]
            for group in classifier.trees
        ]
    return json.dumps(obj, indent=2) + "\n"


def parse_instances(text: str, space: FeatureSpace) -> list[Instance]:
    """CSV with a header of feature names (any order), one instance per row."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except csv.Error as e:
        raise ParseError(f"instance CSV line {reader.line_num}: {e}") from None
    if not rows:
        raise ParseError("instance CSV has no header row")
    header = [h.strip() for h in rows[0]]
    if sorted(header) != sorted(space.names):
        unknown = [h for h in header if h not in space.names]
        missing = [n for n in space.names if n not in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        parts = [f"{kind} {names}" for kind, names in (
            ("unknown feature(s)", unknown), ("missing feature(s)", missing),
            ("repeated column(s)", repeated)) if names]
        raise ParseError("instance CSV header: " + "; ".join(parts))
    columns = [space.feature_index(h) for h in header]
    instances = []
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ParseError(
                f"row {r}: expected {len(header)} cells, got {len(row)}"
            )
        values: list[int] = [0] * space.n_features
        for cell, fi in zip(row, columns):
            cat = cell.strip()
            dom = space.domains[fi]
            if cat not in dom:
                raise ParseError(
                    f"unknown category '{cat}' (row {r}, col {space.names[fi]})"
                )
            values[fi] = dom.index(cat)
        instances.append(Instance(tuple(values)))
    return instances


def serialize_instances(instances: list[Instance], space: FeatureSpace) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(space.names)
    for inst in instances:
        writer.writerow([space.domains[f][v] for f, v in enumerate(inst.values)])
    return out.getvalue()
