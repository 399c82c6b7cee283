"""sha256 digests of the invariant signatures and catalog matches of a fixed
sweep of subalgebras, and of the labels of a fixed sweep of elements.

    python3 tools/sigdigest.py [SEED]

Run from the root of a source checkout.  It computes `signature` of

* every catalog instance (each row at each of its default samples);
* each instance conjugated by a word of one to three factors from W, A, J,
  AJ and the root shears by 1, -1 and 2, drawn by `random.Random(SEED)`
  (default 1) in catalog order;
* each closed hyperplane of the first sample of every row of dimension
  >= 2, cut out by a linear form with coefficients in {-1, 0, 1} in the
  echelon basis (one form of each +- pair; a space met twice counts once),

and prints the sha256 over one line per subalgebra: its signature JSON
(sorted keys), or the class and message of the error it raised.

A second line is the sha256 over `classify_element` of a second sweep,
drawn by its own `random.Random(SEED)`: one line per element, its label
JSON (sorted keys) or the class and message of its error.  The elements are

* representatives of the table rows (T(a,b), T(a,0), T(a,+-a), the three
  nilpotent orbits, T(a,0)+X_alpha, T(a,a)+X_beta) with random rational
  a, b, each conjugated by a word as above;
* random Borel elements with small rational coordinates;
* Levi elements diag(A, -A^t) for random small int 2x2 blocks A, most with
  irrational or complex eigenvalues;
* random 4x4 int grids, almost all outside sp(4);
* zero.

A third line is the sha256 over `match_catalog` of the first sweep: one
line per subalgebra, its matches as a JSON list of [row, param], or the
class and message of the error it raised.

Two checkouts with the same digests give the same signatures, labels and
catalog matches on the sweeps, so a change that claims to keep them can be
checked against its parent in a few seconds.  `tests/test_outputs.py` calls
`digest_lines(1)` and compares the lines with those recorded in
`tests/outputs.json`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import combinations, product
from operator import mul
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sp4solvable.catalog import load_catalog  # noqa: E402
from sp4solvable.invariants import signature  # noqa: E402
from sp4solvable.jordan import classify_element  # noqa: E402
from sp4solvable.linalg import Mat4, Subspace  # noqa: E402
from sp4solvable.rational import Q, format_rational  # noqa: E402
from sp4solvable.sp4 import (A_MAT, AJ_MAT, J_FORM, W_MAT, X_ALPHA, X_BETA, T,  # noqa: E402
                             conjugate, conjugate_subalgebra, element, shear)
from sp4solvable.structure import Subalgebra  # noqa: E402
from sp4solvable.verify import match_catalog  # noqa: E402

ATOMS = [W_MAT, A_MAT, J_FORM, AJ_MAT] + [
    shear(gamma, z) for gamma in ("alpha", "beta", "alpha_plus_beta", "alpha_plus_2beta")
    for z in (1, -1, 2)]


def hyperplanes(space, values=(-1, 0, 1)):
    """The closed hyperplanes {sum c_i b_i : sum f_i c_i = 0} of the echelon
    basis b of a subalgebra for the forms f in values^d whose first nonzero
    entry is positive, each space once, in the order of `itertools.product`.
    ker f is closed iff f vanishes on the bracket of every two of its
    coordinate rows, tested in the space's bracket table before the
    hyperplane is echelonized."""
    basis, seen = space.basis, set()
    sc = Subalgebra(space).constants
    d = len(basis)
    for f in product(values, repeat=d):
        if not any(f) or f[next(i for i, c in enumerate(f) if c)] < 0:
            continue
        k = max(i for i, c in enumerate(f) if c)
        # the coordinate rows of f_k b_i - f_i b_k for i != k
        rows = [[f[k] * (j == i) - f[i] * (j == k) for j in range(d)] for i in range(d) if i != k]
        if any(sum(map(mul, f, sc._bracket_num(u, v))) for u, v in combinations(rows, 2)):
            continue
        h = Subspace([b * f[k] - basis[k] * f[i] for i, b in enumerate(basis) if i != k])
        if h not in seen:
            seen.add(h)
            yield h


def word(rng) -> Mat4:
    """A product of one to three of the ATOMS."""
    g = Mat4.identity()
    for _ in range(rng.randint(1, 3)):
        g = g * rng.choice(ATOMS)
    return g


def sweep(seed: int):
    """The (group, space) pairs of the sweep, in a fixed order."""
    rng = random.Random(seed)
    entries = load_catalog()
    for e in entries:
        for a in e.samples():
            space = e.space_at(a)
            yield "catalog", space
            yield "conjugate", conjugate_subalgebra(word(rng), space)
    for e in entries:
        space = e.space_at(e.samples()[0])
        if space.dim >= 2:
            for h in hyperplanes(space):
                yield "hyperplane", h


def elements(seed: int):
    """The (group, element) pairs of the classify sweep, in a fixed order."""
    rng = random.Random(seed)

    def q():
        return Q(rng.randint(-9, 9) or 1, rng.randint(1, 4))

    for _ in range(60):
        a, b = q(), q()
        for x in (T(a, b), T(a, 0), T(a, a), T(a, -a), X_ALPHA * a, X_BETA * a,
                  X_ALPHA + X_BETA * a, T(a, 0) + X_ALPHA * b, T(a, a) + X_BETA * b):
            yield "rows", conjugate(word(rng), x)
    for _ in range(300):
        yield "borel", element(*[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)])
    for _ in range(300):
        p, r, s, t = (rng.randint(-4, 4) for _ in range(4))
        yield "levi", Mat4([[p, r, 0, 0], [s, t, 0, 0], [0, 0, -p, -s], [0, 0, -r, -t]])
    for _ in range(100):
        yield "grid", Mat4([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
    yield "zero", Mat4.zero()


def digest_line(items, compute) -> str:
    """The sha256 over compute's JSON value (sorted keys) or error line for
    each (group, item), then the count of each group and of the refusals."""
    digest, counts = hashlib.sha256(), {}
    for group, item in items:
        try:
            line = json.dumps(compute(item), sort_keys=True)
        except Exception as exc:  # the refusal is part of what is compared
            line = f"{type(exc).__name__}: {exc}"
            counts["refused"] = counts.get("refused", 0) + 1
        counts[group] = counts.get(group, 0) + 1
        digest.update(line.encode() + b"\n")
    return " ".join([digest.hexdigest()] + [f"{k}={v}" for k, v in counts.items()])


def digest_lines(seed: int = 1) -> list[str]:
    """The three lines: signatures, element labels, catalog matches."""
    return [digest_line(sweep(seed), lambda space: signature(Subalgebra(space)).to_json()),
            digest_line(elements(seed), lambda x: classify_element(x).to_json()),
            digest_line(sweep(seed), lambda space: [
                [row, None if a is None else format_rational(a)]
                for row, a in match_catalog(Subalgebra(space))])]


def main(argv: list[str]) -> int:
    print("\n".join(digest_lines(int(argv[0]) if argv else 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
