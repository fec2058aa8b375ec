"""The benchmark harness (perfbench/run.py) drives the library through its
public names from outside the library, so it breaks when one of them moves:
run its queries and checks on the bundled models."""
import itertools
import sys
import types
from pathlib import Path

import dualxp
import dualxp.hitting
import dualxp.oracle
from dualxp.bundled import poole_model, synthetic_ensemble_model, synthetic_instances_csv
from dualxp.model import Instance
from dualxp.modelio import parse_instances

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _run_module():
    # compiled by hand, so no bytecode cache is written next to the source;
    # the module turns bytecode writing off for the whole process
    module = types.ModuleType("run")
    module.__file__ = str(RUN)
    dont_write = sys.dont_write_bytecode
    try:
        exec(compile(RUN.read_text(), str(RUN), "exec"), module.__dict__)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _session(run, classifier, instances):
    # only the fields run_instance reads: no generated inputs, no digest pin
    session = object.__new__(run.Session)
    session.lib = dualxp
    session.raw_predict = dualxp.oracle.raw_predict
    session.mhs_budget = dualxp.hitting.DEFAULT_NODE_BUDGET
    session.pin_digest = False
    session.tracer = None
    session.problems = []
    session.digest_families = {}
    session.reset()
    session.classifier = classifier
    session.instances = instances
    return session


def test_harness_queries_and_checks_pass_on_bundled_models():
    run = _run_module()
    poole = poole_model()
    ensemble = synthetic_ensemble_model()
    cases = [
        (poole, [Instance(v) for v in itertools.product(
            *(range(len(d)) for d in poole.space.domains))]),
        (ensemble, parse_instances(synthetic_instances_csv(), ensemble.space)[:10]),
    ]
    for classifier, instances in cases:
        session = _session(run, classifier, instances)
        session.run_fixed(len(instances))
        assert not session.failures
        assert session.problems == []
        assert session.enum_ok == len(instances)
