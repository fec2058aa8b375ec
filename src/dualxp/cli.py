"""Command-line surface: predict / axp / cxp / enum / verify / stats.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 parse or
validation error or a file that cannot be read or written, 4 budget
exceeded, 5 internal error (the traceback goes to standard error), 141
standard output closed by its reader (no message).
The XDUAL_BUDGET environment variable overrides both the ensemble
completion cap (the completions one ensemble search visits) and the
hitting-set node budget.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .dual import BudgetExceeded, _format_set, enumerate_all, iterate_explanations, verify_duality
from .explain import (AXp, CXp, check_axp, check_cxp, cxp_witness, extract_axp,
                      extract_cxp, make_problem, targeted_cxp)
from .hitting import DEFAULT_NODE_BUDGET
from .model import Classifier, FeatureSpace, Instance, ModelError
from .modelio import ParseError, parse_instances, parse_model
from .oracle import DEFAULT_COMPLETION_CAP, Oracle
from .reporting import collect_stats

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5
EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a program the signal ended


def _budgets() -> tuple[int, int]:
    """The ensemble completion cap (the completions one ensemble search
    visits) and the hitting-set node budget: XDUAL_BUDGET for both when
    set, else their defaults.  Each command reads it once, so a bad value
    fails even when there is no row to explain."""
    raw = os.environ.get("XDUAL_BUDGET")
    if raw is None:
        return DEFAULT_COMPLETION_CAP, DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
        return value, value
    except ValueError:
        raise ParseError(f"XDUAL_BUDGET must be a positive integer, got {raw!r}")


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


def _load(args) -> tuple[Classifier, list[Instance]]:
    try:
        model_text = Path(args.model).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read model file: {e}")
    classifier = parse_model(model_text)
    try:
        csv_text = Path(args.instances).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read instance file: {e}")
    instances = parse_instances(csv_text, classifier.space)
    return classifier, instances


def _parse_order(spec: Optional[str], space: FeatureSpace) -> Optional[list[int]]:
    if spec is None:
        return None
    names = [s.strip() for s in spec.split(",")]
    if sorted(names) != sorted(space.names):
        raise ParseError(
            f"--order must be a permutation of the feature names {list(space.names)}"
        )
    return [space.feature_index(n) for n in names]


def _parse_targets(spec: Optional[str], classifier: Classifier) -> Optional[frozenset[int]]:
    if spec is None:
        return None
    out = set()
    for name in (s.strip() for s in spec.split(",")):
        if name not in classifier.classes:
            raise ParseError(f"unknown class '{name}' in --target")
        out.add(classifier.classes.index(name))
    return frozenset(out)


def _literals(features: frozenset[int], values: Mapping[int, int] | Sequence[int],
              space: FeatureSpace) -> dict[str, str]:
    """Feature name to category name for each of `features`, in feature
    order, with the value of feature f read as `values[f]`."""
    return {
        space.names[f]: space.domains[f][values[f]]
        for f in range(space.n_features) if f in features
    }


def _braced(literals: dict[str, str]) -> str:
    return "{" + ", ".join(f"{n}={v}" for n, v in literals.items()) + "}"


def cmd_predict(args) -> int:
    classifier, instances = _load(args)
    cap, _ = _budgets()
    oracle = Oracle(classifier, completion_cap=cap)
    for instance in instances:
        print(classifier.classes[oracle.predict(instance)])
    return EXIT_OK


def cmd_axp(args) -> int:
    classifier, instances = _load(args)
    space = classifier.space
    order = _parse_order(args.order, space)
    cap, _ = _budgets()
    for instance in instances:
        problem = make_problem(Oracle(classifier, completion_cap=cap), instance)
        axp = extract_axp(problem, order=order)
        print(f"{classifier.classes[problem.predicted]}: "
              f"{_braced(_literals(axp.features, instance.values, space))}")
    return EXIT_OK


def cmd_cxp(args) -> int:
    classifier, instances = _load(args)
    space = classifier.space
    order = _parse_order(args.order, space)
    targets = _parse_targets(args.target, classifier)
    cap, _ = _budgets()
    for row, instance in enumerate(instances):
        try:
            problem = make_problem(Oracle(classifier, completion_cap=cap),
                                   instance, targets=targets)
        except ModelError as e:
            raise ModelError(f"row {row}: {e}") from None
        if targets is None:
            cxp = extract_cxp(problem, order=order)
        else:
            cxp = targeted_cxp(problem, order=order)
        if cxp is None:
            print(f"{classifier.classes[problem.predicted]}: none")
            continue
        witness = cxp_witness(problem, cxp)
        replaced = {l.feature: l.value for l in witness.replacement.literals}
        print(f"{classifier.classes[problem.predicted]}: "
              f"{_braced(_literals(cxp.features, instance.values, space))}"
              f" -> {_braced(_literals(cxp.features, replaced, space))}"
              f" ({classifier.classes[witness.witness_class]})")
    return EXIT_OK


def _kind(explanation) -> str:
    return "axp" if isinstance(explanation, AXp) else "cxp"


def cmd_enum(args) -> int:
    classifier, instances = _load(args)
    order = _parse_order(args.order, classifier.space)
    space = classifier.space
    cap, mhs_budget = _budgets()
    for row, instance in enumerate(instances):
        problem = make_problem(Oracle(classifier, completion_cap=cap), instance)
        found = iterate_explanations(problem, order=order, smallest=args.smallest,
                                     mhs_budget=mhs_budget)
        if args.mode == "cxp":
            found = (e for e in found if isinstance(e, CXp))
        records = itertools.islice(found, args.limit or None)
        if args.sort_size:
            records = sorted(records, key=lambda e: (
                len(e.features), _kind(e), sorted(e.features)))
        for explanation in records:
            print(json.dumps({
                "row": row,
                "kind": _kind(explanation),
                "class": classifier.classes[problem.predicted],
                "literals": _literals(explanation.features, instance.values, space),
            }))
    return EXIT_OK


def cmd_verify(args) -> int:
    classifier, instances = _load(args)
    order = _parse_order(args.order, classifier.space)
    cap, mhs_budget = _budgets()
    failed = False
    for row, instance in enumerate(instances):
        problem = make_problem(Oracle(classifier, completion_cap=cap), instance)
        axps, cxps = enumerate_all(problem, order=order, mhs_budget=mhs_budget)
        problems = verify_duality(
            [a.features for a in axps], [c.features for c in cxps]
        ).violations
        problems += [f"AXp {_format_set(a.features)}: {p}"
                     for a in axps for p in check_axp(problem, a)]
        problems += [f"CXp {_format_set(c.features)}: {p}"
                     for c in cxps for p in check_cxp(problem, c)]
        if not problems:
            print(f"row {row}: ok ({len(axps)} axps, {len(cxps)} cxps)")
        else:
            failed = True
            for p in problems:
                print(f"row {row}: {p}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_stats(args) -> int:
    classifier, instances = _load(args)
    order = _parse_order(args.order, classifier.space)
    cap, mhs_budget = _budgets()
    output = Path(args.output)
    created = not output.exists()
    try:
        # opened for append before the enumeration: a path that cannot be
        # written fails at once, and no file is emptied before there is a
        # report to write (only a regular file is emptied: /dev/null cannot be)
        with output.open("a") as out:
            try:
                report = collect_stats(classifier, instances, order=order,
                                       completion_cap=cap, mhs_budget=mhs_budget)
            except BaseException:
                if created:
                    output.unlink()
                raise
            if output.is_file():
                out.truncate(0)
            out.write(report.to_csv(timing=args.timing))
    except OSError as e:
        print(f"error: cannot write output file: {e}", file=sys.stderr)
        return EXIT_PARSE
    print(f"instances: {len(report.rows)}")
    print(f"total axps: {report.total_axps}")
    print(f"total cxps: {report.total_cxps}")
    print(f"avg axp size: {report.avg_axp_size:.4f}")
    print(f"avg cxp size: {report.avg_cxp_size:.4f}")
    print(f"oracle calls: {report.total_oracle_calls}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualxp",
        description="Formally rigorous abductive and contrastive explanations "
                    "for tree-based classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-m", "--model", required=True, help="model JSON file")
        p.add_argument("-i", "--instances", required=True, help="instance CSV file")
        p.add_argument("--order", help="comma-separated feature permutation "
                                       "used as the literal processing order")

    p = sub.add_parser("predict", help="print the predicted class per row")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("axp", help="one abductive explanation per row")
    common(p)
    p.set_defaults(func=cmd_axp)

    p = sub.add_parser("cxp", help="one (targeted) contrastive explanation "
                                   "plus witness per row")
    common(p)
    p.add_argument("--target", help="comma-separated target class names")
    p.set_defaults(func=cmd_cxp)

    p = sub.add_parser("enum", help="stream explanations as JSON lines")
    common(p)
    p.add_argument("--mode", choices=["cxp", "all"], default="all")
    p.add_argument("--limit", type=_count, default=0,
                   help="stop after N explanations per row (0 = no limit)")
    p.add_argument("--sort-size", action="store_true",
                   help="sort each row's output by explanation size")
    p.add_argument("--smallest", action="store_true",
                   help="enumerate AXps as minimum-cardinality hitting "
                        "sets, smallest first")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("verify", help="enumerate everything, check the "
                                      "hitting-set duality and each "
                                      "explanation")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="write a per-instance statistics CSV")
    common(p)
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.add_argument("--timing", action="store_true",
                   help="include a wall-clock column (not byte-stable)")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early, as `dualxp enum ... | head` does: not a
        # defect.  Point stdout at devnull so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE_CLOSED
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except Exception:
        # a defect, not a verdict: keep it apart from exit 1
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
