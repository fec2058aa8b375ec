"""Model JSON and instance CSV parsing, plus canonical serialization.

The model format is a single JSON object; see docs/formats.md.  Serialization
is canonical (fixed key order, two-space indent, trailing newline) so that
parse/serialize round-trips are byte-identical.

`parse_model` builds the model in one pass over the decoded document.  Each
node check is a plain test that formats its message only when it fails; each
node's JSON object is released once converted, and the whole document before
validation, so a parse peaks barely above the document itself.  An ensemble
written as `serialize_model` writes it, with its trees last, is decoded one
tree object at a time instead (`_stream_ensemble`), so its parse peaks near
the model it builds: about 1 MB, not 4 MB, for the benchmark's
ensemble-deep model.  Within one
model, leaves with equal values share one `Leaf` object and splits with equal
child ids share one `children` tuple.  The trees of an ensemble often repeat
child-id tuples (63 distinct ones among the 6,300 splits of the benchmark's
ensemble-deep model), so sharing them saves memory, and only that: a
decision tree's walks follow its linked nodes (`TreeStructure.linked`), and
an ensemble predicts through code compiled from its nodes
(`AdditiveEnsemble.scorer`), whatever tuple objects the splits hold.
"""
from __future__ import annotations

import csv
import io
import json
import re
from typing import Optional

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


_ABSENT = object()  # a missing key, told apart from JSON null


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


def _parse_nodes(obj: dict, features: dict[str, tuple], where: str,
                 leaf_key: str, leaves: dict, children_ids: dict) -> TreeStructure:
    """Convert `obj["nodes"]`, releasing each node's JSON object once it is
    converted.  `features` maps each declared feature name to its index,
    domain and the domain as a set.  `leaves` maps a leaf's JSON value to its
    shared `Leaf`: for a classifier tree ("class" leaves) it holds every
    declared class name; for a regressor tree ("score" leaves) it starts
    empty and gains each integer score as it is first read.  `children_ids`
    likewise maps each tuple of child ids read so far to its shared copy."""
    # json.loads gives exact built-in types, so `type(x) is int` also turns
    # away JSON true and false
    nodes_json = obj.get("nodes")
    if type(nodes_json) is not list or not nodes_json:
        raise ParseError(f"{where}: field 'nodes' must be a non-empty list")
    root = obj.get("root", 0)
    if type(root) is not int:
        raise ParseError(f"{where}: field 'root' must be an integer")
    by_class = leaf_key == "class"
    nodes: list[Node] = []
    for i, nj in enumerate(nodes_json):
        if type(nj) is not dict:
            raise ParseError(f"{where}: nodes[{i}] must be an object")
        val = nj.get(leaf_key, _ABSENT)
        if val is not _ABSENT:
            if by_class:
                if type(val) is not str:
                    raise ParseError(f"{where}: nodes[{i}].class must be a class name")
                leaf = leaves.get(val)
                if leaf is None:
                    raise ParseError(
                        f"{where}: nodes[{i}].class '{val}' is not a declared class")
            else:
                if type(val) is not int:
                    raise ParseError(f"{where}: nodes[{i}].score must be an integer")
                leaf = leaves.get(val)
                if leaf is None:
                    leaf = leaves[val] = Leaf(val)
            nodes.append(leaf)
        elif "feature" in nj:
            fname = nj["feature"]
            try:
                fi, dom, keys = features[fname]
            except (KeyError, TypeError):
                raise ParseError(f"{where}: nodes[{i}].feature '{fname}' is not "
                                 "a declared feature") from None
            children = nj.get("children")
            if type(children) is not dict:
                raise ParseError(f"{where}: nodes[{i}].children must be an object")
            if children.keys() != keys:
                raise ParseError(f"{where}: nodes[{i}].children must map exactly "
                                 f"the domain of '{fname}' ({list(dom)})")
            ids = []
            for cat in dom:
                cid = children[cat]
                if type(cid) is not int:
                    raise ParseError(
                        f"{where}: nodes[{i}].children['{cat}'] must be a node id")
                ids.append(cid)
            ids = tuple(ids)
            nodes.append(Split(fi, children_ids.setdefault(ids, ids)))
        else:
            raise ParseError(
                f"{where}: nodes[{i}] must carry either '{leaf_key}' or 'feature'")
        nodes_json[i] = None
    return TreeStructure(tuple(nodes), root)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _parse_header(obj) -> tuple[str, FeatureSpace, list, dict]:
    """The kind, feature space and class names of a decoded model document,
    and per feature name its index, domain and domain as a set."""
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
    features = {name: (f, dom, frozenset(dom))
                for f, (name, dom) in enumerate(zip(space.names, space.domains))}
    return kind, space, classes, features


def _parse_scale(obj: dict) -> int:
    scale = obj.get("scale")
    _expect(isinstance(scale, int) and not isinstance(scale, bool) and scale >= 1,
            "field 'scale' must be a positive integer")
    return scale


def _build_classifier(obj) -> Classifier:
    """The classifier of a decoded model document, not yet validated."""
    kind, space, classes, features = _parse_header(obj)
    if kind == "tree":
        class_leaves = {name: Leaf(c) for c, name in enumerate(classes)}
        tree = _parse_nodes(obj, features, "tree", "class", class_leaves, {})
        return DecisionTree(space, tuple(classes), tree)
    else:
        scale = _parse_scale(obj)
        groups_json = obj.get("trees")
        _expect(isinstance(groups_json, list) and len(groups_json) == len(classes),
                "field 'trees' must hold one list of trees per class")
        score_leaves: dict = {}
        children_ids: dict = {}
        groups = []
        for ci, group in enumerate(groups_json):
            _expect(isinstance(group, list) and group,
                    f"trees[{ci}] must be a non-empty list")
            parsed = []
            for ti, t in enumerate(group):
                _expect(isinstance(t, dict), f"trees[{ci}][{ti}] must be an object")
                parsed.append(_parse_nodes(t, features, f"trees[{ci}][{ti}]",
                                           "score", score_leaves, children_ids))
            groups.append(tuple(parsed))
        return AdditiveEnsemble(space, tuple(classes), tuple(groups), scale)


_SPACE = re.compile(r"[ \t\n\r]*")  # JSON whitespace


def _stream_ensemble(text: str) -> Optional[AdditiveEnsemble]:
    """The ensemble of a model text decoded one tree object at a time, each
    converted by `_parse_nodes` before the next is decoded, so the decoded
    document never exists whole.  None unless the text is one JSON object
    of kind "ensemble" whose "trees" field comes last, after the others, as
    `serialize_model` writes it, with no key repeated and nothing in it
    malformed: `_build_classifier` then parses the whole document and
    reports what is wrong, in the order it checks."""
    decode = json.JSONDecoder().raw_decode
    space = _SPACE.match
    try:
        pos = space(text).end()
        if not text.startswith("{", pos):
            return None
        head: dict = {}
        while True:
            pos = space(text, pos + 1).end()
            key, pos = decode(text, pos)
            pos = space(text, pos).end()
            if type(key) is not str or key in head or not text.startswith(":", pos):
                return None
            pos = space(text, pos + 1).end()
            if key == "trees":
                break
            if key == "nodes":  # a decision tree's: decode it once, whole
                return None
            head[key], pos = decode(text, pos)
            pos = space(text, pos).end()
            if not text.startswith(",", pos):
                return None
        kind, fspace, classes, features = _parse_header(head)
        if kind != "ensemble":
            return None
        scale = _parse_scale(head)
        leaves: dict = {}
        children_ids: dict = {}
        groups = []
        if not text.startswith("[", pos):
            return None
        while True:  # one group of trees per turn, after its "[" or ","
            pos = space(text, pos + 1).end()
            if not text.startswith("[", pos):
                return None
            parsed = []
            while True:  # one tree per turn, after its "[" or ","
                tree, pos = decode(text, space(text, pos + 1).end())
                if type(tree) is not dict:
                    return None
                parsed.append(_parse_nodes(
                    tree, features, f"trees[{len(groups)}][{len(parsed)}]",
                    "score", leaves, children_ids))
                pos = space(text, pos).end()
                if not text.startswith(",", pos):
                    break
            if not text.startswith("]", pos):
                return None
            groups.append(tuple(parsed))
            pos = space(text, pos + 1).end()
            if not text.startswith(",", pos):
                break
        if not text.startswith("]", pos):
            return None
        pos = space(text, pos + 1).end()
        if (not text.startswith("}", pos) or space(text, pos + 1).end() != len(text)
                or len(groups) != len(classes)):
            return None
        return AdditiveEnsemble(fspace, tuple(classes), tuple(groups), scale)
    except (ParseError, ValueError, RecursionError):
        return None


def parse_model(text: str) -> Classifier:
    """Parse and fully validate a model file.  An ensemble in the layout
    `serialize_model` writes is decoded one tree at a time
    (`_stream_ensemble`); any other text is decoded whole, and no reference
    to the document outlives `_build_classifier`, so it is freed before
    validation."""
    classifier = _stream_ensemble(text) or _build_classifier(_load_json(text))
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
    """CSV with a header of feature names (any order), one instance per row.
    Errors number the data rows from 0, as `verify` and `enum` do, and skip
    blank lines, as the parse does."""
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
    # per column: its feature index and a map from category to value index
    columns = []
    for h in header:
        fi = space.feature_index(h)
        columns.append((fi, {cat: v for v, cat in enumerate(space.domains[fi])}))
    instances = []
    for r, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ParseError(
                f"row {r}: expected {len(header)} cells, got {len(row)}"
            )
        values: list[int] = [0] * space.n_features
        for cell, (fi, value_of) in zip(row, columns):
            v = value_of.get(cell.strip())
            if v is None:
                raise ParseError(f"unknown category '{cell.strip()}' "
                                 f"(row {r}, col {space.names[fi]})")
            values[fi] = v
        instances.append(Instance(tuple(values)))
    return instances


def serialize_instances(instances: list[Instance], space: FeatureSpace) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(space.names)
    for inst in instances:
        writer.writerow([space.domains[f][v] for f, v in enumerate(inst.values)])
    return out.getvalue()
