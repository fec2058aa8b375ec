#!/usr/bin/env python3
"""Regenerate the bundled data files (book-recommendation tree, synthetic
ensemble, synthetic instances) in canonical serialized form."""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualxp.model import DecisionTree, FeatureSpace, Leaf, Split, TreeStructure, validated
from dualxp.modelio import serialize_instances, serialize_model
from dualxp.synth import synthetic_ensemble, synthetic_instances

DATA = Path(__file__).resolve().parents[1] / "src" / "dualxp" / "data"


def poole_tree() -> DecisionTree:
    space = FeatureSpace(
        ("A", "T", "L", "W"),
        (("known", "unknown"), ("new", "followUp"), ("long", "short"),
         ("home", "work")),
    )
    # skips iff L=long, or L=short and T=followUp and A=unknown; W vacuous
    nodes = (
        Split(2, (1, 2)),        # 0: on L: long -> 1, short -> 2
        Leaf(1),                 # 1: skips
        Split(1, (3, 4)),        # 2: on T: new -> 3, followUp -> 4
        Leaf(0),                 # 3: reads
        Split(0, (5, 6)),        # 4: on A: known -> 5, unknown -> 6
        Leaf(0),                 # 5: reads
        Leaf(1),                 # 6: skips
    )
    return validated(DecisionTree(space, ("reads", "skips"),
                                  TreeStructure(nodes, 0)))


def bundled_files() -> dict[str, str]:
    """The canonical text of each bundled data file, by file name."""
    ensemble = validated(synthetic_ensemble())
    instances = synthetic_instances(ensemble.space, 100)
    return {
        "poole.json": serialize_model(poole_tree()),
        "synth_ensemble.json": serialize_model(ensemble),
        "synth_instances.csv": serialize_instances(instances, ensemble.space),
    }


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    files = bundled_files()
    for name, text in files.items():
        (DATA / name).write_text(text)
    print(f"wrote {DATA}/{', '.join(files)}")


if __name__ == "__main__":
    main()
