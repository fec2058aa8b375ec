"""Bundled models: the book-recommendation tree used throughout the test
suite and docs, plus the synthetic ensemble for the statistics harness."""
from __future__ import annotations

from importlib import resources

from .model import Classifier, DecisionTree, FeatureSpace, Instance
from .modelio import parse_model


def _read(name: str) -> str:
    return resources.files("dualxp.data").joinpath(name).read_text()


def poole_model() -> DecisionTree:
    """Four features (Author, Thread, Length, WhereRead), two classes
    (reads, skips); the prediction is skips iff the item is long, or short
    with a follow-up thread from an unknown author.  WhereRead is vacuous."""
    model = parse_model(_read("poole.json"))
    assert isinstance(model, DecisionTree)
    return model


def poole_instance(space: FeatureSpace, **assignments: str) -> Instance:
    values = [
        space.value_index(f, assignments[space.names[f]])
        for f in range(space.n_features)
    ]
    return Instance(tuple(values))


def synthetic_ensemble_model() -> Classifier:
    return parse_model(_read("synth_ensemble.json"))


def synthetic_instances_csv() -> str:
    return _read("synth_instances.csv")
