"""The benchmark's span tracer (perfbench/tracing.py) patches library names
from outside the library, so it breaks when one of them moves."""
import types
from pathlib import Path

import dualxp
import dualxp.dual
import dualxp.hitting
import dualxp.oracle
from dualxp.bundled import poole_instance, poole_model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # compiled by hand, so no bytecode cache is written next to the source
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_patches_and_restores_every_name():
    owners = (dualxp, dualxp.dual, dualxp.hitting, dualxp.oracle, dualxp.oracle.Oracle)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _tracing_module().Tracer()
    with tracer.installed():
        during = [dict(vars(owner)) for owner in owners]
        model = poole_model()
        instance = poole_instance(model.space, A="known", T="new", L="short", W="work")
        problem = dualxp.make_problem(dualxp.Oracle(model), instance)
        axps, cxps = dualxp.enumerate_all(problem)
    after = [dict(vars(owner)) for owner in owners]
    patched = {(owner, name) for owner, b, d in zip(owners, before, during)
               for name in b if d[name] is not b[name]}
    assert (dualxp, "enumerate_all") in patched
    assert (dualxp.dual, "minimal_hitting_set") in patched
    assert axps and cxps
    assert "dual.enumerate_all" in {span[0] for span in tracer.spans}
    for b, a in zip(before, after):
        assert all(a[name] is b[name] for name in b)
