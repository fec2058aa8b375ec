#!/usr/bin/env python3
"""Check the growing-family hitting-set search against Berge's algorithm on
every clutter over N elements.

    python3 scripts/check_dualization.py 5

A clutter is a family of nonempty sets none of which holds another, the
empty family included.  It plays an ensemble's complete CXp family.  For
each clutter, with `smallest` False and then True,
`hitting.minimal_hitting_sets` starts from no set, as
`dual.iterate_explanations` runs it on an ensemble: an answer that hits
every set of the clutter is kept, as an AXp is, and otherwise one set of
the clutter that the answer misses is appended, as a CXp is.  Every choice
of that set, at every answer, is run.  A run passes when it keeps each
minimal transversal that `dual.minimal_transversals` (Berge) gives exactly
once and nothing else, in non-decreasing size with `smallest`, and has
appended every set of the clutter.  The script prints the counts and exits
0, or prints the first run that fails and exits 1.  N=4 takes well under a
second, N=5 about half a minute.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterator, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualxp.dual import minimal_transversals
from dualxp.hitting import minimal_hitting_sets


def clutters(n: int) -> Iterator[tuple[int, ...]]:
    """Every clutter over `n` elements once, as masks in ascending order."""
    def extend(family: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        yield family
        for m in range(start, 1 << n):
            if all(a & m not in (a, m) for a in family):
                yield from extend(family + (m,), m + 1)

    return extend((), 1)


def runs(n: int, clutter: tuple[int, ...], smallest: bool,
         ) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """`(choices, kept, appended)` for every sequence of choices, where
    `choices[i]` is the index, among the clutter's sets that the i-th
    rejected answer misses, of the one appended."""
    pending: list[tuple[int, ...]] = [()]
    while pending:
        prefix = pending.pop()
        choices: list[int] = []
        sets: list[int] = []
        kept: list[int] = []
        for answer in minimal_hitting_sets(n, sets, smallest):
            missed = [s for s in clutter if not s & answer]
            if not missed:
                kept.append(answer)
                continue
            if len(choices) < len(prefix):
                pick = prefix[len(choices)]
            else:
                pick = 0
                pending.extend((*choices, i) for i in range(1, len(missed)))
            choices.append(pick)
            sets.append(missed[pick])
        yield choices, kept, sets


def _elements(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def first_failure(n: int, clutter: tuple[int, ...], smallest: bool,
                  ) -> tuple[int, Optional[str]]:
    """The number of runs made and the first failing one, described, or None."""
    expected = minimal_transversals([_elements(m) for m in clutter])
    made = 0
    for choices, kept, appended in runs(n, clutter, smallest):
        made += 1
        sizes = [k.bit_count() for k in kept]
        if (len(kept) != len(set(kept)) or {_elements(k) for k in kept} != expected
                or sorted(appended) != list(clutter)
                or (smallest and sizes != sorted(sizes))):
            return made, (f"clutter {list(clutter)}, smallest={smallest}, "
                          f"choices {choices}: kept {kept}, appended {appended}")
    return made, None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("n", type=int, help="number of elements (at least 1)")
    n = parser.parse_args(argv).n
    if n < 1:
        parser.error("n must be at least 1")
    families = made = 0
    for clutter in clutters(n):
        families += 1
        for smallest in (False, True):
            count, failure = first_failure(n, clutter, smallest)
            made += count
            if failure is not None:
                print(f"FAIL: {failure}")
                return 1
    print(f"n={n}: {families} clutters, {made} runs, all match Berge")
    return 0


if __name__ == "__main__":
    sys.exit(main())
