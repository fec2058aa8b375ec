"""The benchmark workloads: fixed models, seeded instance pools, and pins.

Each model is fixed by its generator parameters and a model seed; the
benchmark seed draws only the instances.  A workload is pinned by the
sha256 and node count of its canonical model text, so a change to the
generators shows as "workload changed" rather than as different numbers.

Run as a program, it writes one workload's inputs for run.py, so that the
measuring process never holds the generator's objects:

    python3 perfbench/workloads.py <workload> <seed> <out-dir>

writes <out-dir>/model.json and <out-dir>/pool.csv, and exits with 1 and
"workload changed" if the model no longer matches its pin.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

ROOT = Path(__file__).resolve().parent.parent


def load_library():
    """Import dualxp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dualxp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dualxp sources under {src}")
    sys.path.insert(0, str(src))
    import dualxp
    if Path(dualxp.__file__).resolve().parent != (src / "dualxp").resolve():
        sys.exit(f"perfbench: imported dualxp from {dualxp.__file__}, not {src}")
    return dualxp


dualxp = load_library()
from dualxp import synth  # noqa: E402
from dualxp.model import Classifier, DecisionTree, Instance  # noqa: E402
from dualxp.modelio import serialize_instances, serialize_model  # noqa: E402

# Node budget of every hitting-set call in an `enum` query (what
# XDUAL_BUDGET sets in the CLI).  Identical on every workload and commit.
MHS_BUDGET = 10 ** 6

# Instances drawn per seed.  A run that gets through the pool cycles it.
POOL_SIZE = 4000

# The pinned families digest covers the first instances of this seed.
DEFAULT_SEED = 1
DIGEST_INSTANCES = 100


@dataclass(frozen=True)
class Workload:
    """A model and its pins; BENCHMARK.json says why each workload is there."""

    name: str
    build: Callable[[], Classifier]
    sha256: str        # of serialize_model(build())
    nodes: int         # tree nodes summed over the model
    digest: str        # families_digest of the first DIGEST_INSTANCES, DEFAULT_SEED
    trace_instances: int  # instances in a traced run (fixed, so counts repeat)


def _ensemble(n_features: int, trees_per_class: int, depth: int,
              model_seed: int) -> Callable[[], Classifier]:
    return lambda: synth.synthetic_ensemble(
        seed=model_seed, n_features=n_features,
        trees_per_class=trees_per_class, depth=depth)


def _tree(n_features: int, domains: tuple[int, int], max_depth: int,
          leaf_prob: float, model_seed: int) -> Callable[[], Classifier]:
    def build() -> Classifier:
        rng = random.Random(model_seed)
        space = synth.random_space(rng, n_features, domains)
        return synth.random_tree(rng, space, 2, max_depth=max_depth,
                                 leaf_prob=leaf_prob)
    return build


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ensemble-deep",
        build=_ensemble(10, 50, 6, 1),
        sha256="5a3b18a7eb09c0bc4dcb18cebc617d7342b49365a0da819b9361f7c90beecb88",
        nodes=12700,
        digest="f6073ba543b6ccf9dba5fb590bed5d138b12b17043620a1350dad4e75cd77e80",
        trace_instances=900,
    ),
    Workload(
        name="ensemble-wide",
        build=_ensemble(12, 10, 5, 1),
        sha256="7cd099098e003fec1cf3525f1bd1ae0942e11ffdacde9246a6e44824fcd81942",
        nodes=1260,
        digest="a38f62f2154430d5f2c237d4062d812ac9f10ef7023d7a45137768a8a99e48c5",
        trace_instances=750,
    ),
    Workload(
        name="tree-large",
        build=_tree(16, (2, 4), 10, 0.05, 2),
        sha256="5249f51a7130fcbb484510cd2f57ee6ff7e3dca43ecee10c6dc4ff417972c0ec",
        nodes=42407,
        digest="c5a3abe440719cd7b0f71a0844a33979c0aafce30b5547afdaf96e3785192326",
        trace_instances=850,
    ),
)}


def node_count(classifier: Classifier) -> int:
    if isinstance(classifier, DecisionTree):
        return len(classifier.tree.nodes)
    return sum(len(t.nodes) for group in classifier.trees for t in group)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def instance_pool(classifier: Classifier, workload: str, seed: int) -> list[Instance]:
    rng = random.Random(f"{workload}/{seed}")
    return [synth.random_instance(rng, classifier.space) for _ in range(POOL_SIZE)]


def families_digest(families: list) -> str:
    """sha256 over instances in pool order of each instance's AXp and CXp
    families, each sorted, so the order of enumeration does not matter."""
    h = hashlib.sha256()
    for axps, cxps in families:
        h.update(json.dumps([sorted(sorted(a) for a in axps),
                             sorted(sorted(c) for c in cxps)]).encode())
        h.update(b"\n")
    return h.hexdigest()


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    """The model text and the instance CSV of one run, checked against the
    workload's pins."""
    model = workload.build()
    text = serialize_model(model)
    got = (sha256(text), node_count(model))
    if got != (workload.sha256, workload.nodes):
        sys.exit(f"perfbench: workload changed: {workload.name} model has "
                 f"sha256 {got[0]} and {got[1]} nodes, pinned "
                 f"{workload.sha256} and {workload.nodes}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(text)
    (out / "pool.csv").write_text(serialize_instances(
        instance_pool(model, workload.name, seed), model.space))


if __name__ == "__main__":
    name, seed, out = sys.argv[1:]
    write_inputs(WORKLOADS[name], int(seed), Path(out))
