"""Span tracing around the dualxp entry points, installed from outside the
library.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span, and the
id of the benchmark query that caused it.  Spans are kept in memory and
written out once, after the run.  ``raw_predict`` is only counted: it is
called once per prediction-cache miss, far too often for a span each.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Iterator, Optional

# span record fields
NAME, START, END, PARENT, QID, INFO = range(6)

# span name -> layer
LAYERS = {
    "modelio.parse_model": "modelio",
    "modelio.parse_instances": "modelio",
    "oracle.predict": "oracle",
    "oracle.entails": "oracle",
    "oracle.find_counterexample": "oracle",
    "hitting.minimal_hitting_set": "hitting",
    "explain.extract_axp": "explain",
    "explain.extract_cxp": "explain",
    "explain.cxp_witness": "explain",
    "dual.enumerate_all": "dual",
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.model_evals = 0  # raw_predict calls
        self.query_kinds: dict[int, str] = {-1: "setup"}  # query id -> kind
        self._qid = -1  # query in flight
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._qid, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        index = self._open(name)
        try:
            yield self.spans[index]
        except BaseException as e:
            self.spans[index][INFO] = {**(self.spans[index][INFO] or {}),
                                       "error": type(e).__name__}
            raise
        finally:
            self._close(index)

    @contextlib.contextmanager
    def query(self, kind: str) -> Iterator[None]:
        """Root span of one benchmark query; spans inside carry its id."""
        self._qid = len(self.query_kinds) - 1
        self.query_kinds[self._qid] = kind
        try:
            with self.span("query." + kind):
                yield
        finally:
            self._qid = -1

    def wrap(self, fn: Callable, name: str,
             info: Optional[Callable] = None) -> Callable:
        """`fn` with a span around every call; `info(*args, **kwargs)`
        gives extra fields stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if info is not None:
                    record[INFO] = info(*args, **kwargs)
                return fn(*args, **kwargs)

        return traced

    def count(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.model_evals += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the library's entry points and layer boundaries, and restore
        them on exit.  The benchmark calls the entry points on the dualxp
        package, so they are wrapped there.  minimal_hitting_set is wrapped
        in every module that calls it, so iterate_minimal_hitting_sets gets
        a span per set it produces."""
        import dualxp
        import dualxp.dual
        import dualxp.hitting
        import dualxp.oracle

        oracle_cls = dualxp.oracle.Oracle
        mhs = self.wrap(dualxp.hitting.minimal_hitting_set,
                        "hitting.minimal_hitting_set", _mhs_info)
        patches = [
            (dualxp, name, self.wrap(getattr(dualxp, name), span))
            for name, span in (("parse_model", "modelio.parse_model"),
                               ("parse_instances", "modelio.parse_instances"),
                               ("extract_axp", "explain.extract_axp"),
                               ("extract_cxp", "explain.extract_cxp"),
                               ("cxp_witness", "explain.cxp_witness"),
                               ("enumerate_all", "dual.enumerate_all"))
        ] + [
            (dualxp.hitting, "minimal_hitting_set", mhs),
            (dualxp.dual, "minimal_hitting_set", mhs),
            (dualxp.oracle, "raw_predict", self.count(dualxp.oracle.raw_predict)),
        ] + [
            (oracle_cls, name, self.wrap(getattr(oracle_cls, name), "oracle." + name))
            for name in ("predict", "entails", "find_counterexample")
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "query": s[QID], "info": s[INFO],
                }) + "\n")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Spans nest (one thread), so children of one parent never overlap."""
        self_t = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                self_t[s[PARENT]] -= s[END] - s[START]
        return self_t


def _mhs_info(instance, *args, **kwargs) -> dict:
    return {"to_hit": len(instance.to_hit), "blocked": len(instance.blocked)}
