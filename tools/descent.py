"""Match every closed hyperplane of the catalog's instances back into the
catalog, the descent sweep of completeness.

    python3 tools/descent.py

Run from the root of a source checkout.  Every solvable subalgebra of
dimension k - 1 is, up to conjugacy, a closed hyperplane of one of dimension
k (a flag of ideals with 1-dimensional steps), so each such hyperplane of a
row instance should match exactly one row.  The sweep takes every default
sample of every row of dimension >= 2 and the closed hyperplanes ker f of
each, for the forms f with entries in {-2, ..., 2} in the echelon basis
(one form of each +- pair; a space met twice counts once), and runs
`match_catalog` on each.  It needs every sample: of the default ones,
`d3_Tm31_Xa_Xab` is reached only through `d4_Ta1_np` at a = -3, the fifth.

It prints the counts of distinct hyperplanes, of those that match one row,
no row or several rows, and of those refused with an error, and the rows
reached: how many of the rows of dimension <= 5 some hyperplane matches,
over their number.  Then it prints the sha256 over one line per
hyperplane: its matches as a JSON list of [row, param], or the class and
message of its error.  `tests/test_outputs.py` calls
`report()` and compares the lines with those recorded in
`tests/outputs.json`.
"""

from __future__ import annotations

import hashlib
import json
import sys

from sigdigest import hyperplanes  # it puts the checkout's src on sys.path

from sp4solvable.catalog import load_catalog  # noqa: E402
from sp4solvable.rational import format_rational  # noqa: E402
from sp4solvable.structure import Subalgebra  # noqa: E402
from sp4solvable.verify import match_catalog  # noqa: E402


def sweep():
    """The distinct closed hyperplanes, in catalog, sample and form order."""
    seen = set()
    for e in load_catalog():
        if e.dim >= 2:
            for a in e.samples():
                for h in hyperplanes(e.space_at(a), range(-2, 3)):
                    if h not in seen:
                        seen.add(h)
                        yield h


def report() -> list[str]:
    """The two lines: the counts, then the sha256 over the matches."""
    digest = hashlib.sha256()
    counts = dict.fromkeys(("hyperplanes", "one_row", "no_row", "several_rows", "refused"), 0)
    reached = set()
    for h in sweep():
        counts["hyperplanes"] += 1
        try:
            matches = match_catalog(Subalgebra(h))
        except Exception as exc:  # the refusal is part of what is compared
            line = f"{type(exc).__name__}: {exc}"
            counts["refused"] += 1
        else:
            line = json.dumps([[row, None if a is None else format_rational(a)]
                               for row, a in matches])
            counts["one_row" if len(matches) == 1 else "several_rows" if matches
                   else "no_row"] += 1
            reached.update(row for row, _ in matches)
        digest.update(line.encode() + b"\n")
    counts["rows_reached"] = f"{len(reached)}/{sum(e.dim <= 5 for e in load_catalog())}"
    return [" ".join(f"{k}={v}" for k, v in counts.items()), digest.hexdigest()]


def main() -> int:
    print("\n".join(report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
