"""One sha256 over the invariant signatures of a fixed sweep of subalgebras.

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
(sorted keys), or the class and message of the error it raised.  Two
checkouts with the same digest give the same signatures on the sweep, so a
change that claims to keep every signature can be checked against its
parent in a few seconds.  It is opt-in and outside the suite's `testpaths`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sp4solvable.catalog import load_catalog  # noqa: E402
from sp4solvable.invariants import signature  # noqa: E402
from sp4solvable.linalg import Mat4, echelon_span  # noqa: E402
from sp4solvable.sp4 import (A_MAT, AJ_MAT, J_FORM, W_MAT, conjugate_subalgebra,  # noqa: E402
                             shear)
from sp4solvable.structure import Subalgebra, is_closed  # noqa: E402

ATOMS = [W_MAT, A_MAT, J_FORM, AJ_MAT] + [
    shear(gamma, z) for gamma in ("alpha", "beta", "alpha_plus_beta", "alpha_plus_2beta")
    for z in (1, -1, 2)]


def hyperplanes(space):
    """The closed hyperplanes {sum c_i b_i : sum f_i c_i = 0} of the echelon
    basis b for the forms f in {-1, 0, 1}^d whose first nonzero entry is 1."""
    basis, seen = space.basis, set()
    for f in product((-1, 0, 1), repeat=len(basis)):
        if not any(f) or f[next(i for i, c in enumerate(f) if c)] != 1:
            continue
        k = max(i for i, c in enumerate(f) if c)
        # b_i - (f_i / f_k) b_k for i != k, and f_k = +-1
        h = echelon_span([b - basis[k] * (f[i] * f[k]) for i, b in enumerate(basis) if i != k])
        if h not in seen and is_closed(h):
            seen.add(h)
            yield h


def sweep(seed: int):
    """The (group, space) pairs of the sweep, in a fixed order."""
    rng = random.Random(seed)
    entries = load_catalog()
    for e in entries:
        for a in e.samples():
            space = e.space_at(a)
            yield "catalog", space
            g = Mat4.identity()
            for _ in range(rng.randint(1, 3)):
                g = g * rng.choice(ATOMS)
            yield "conjugate", conjugate_subalgebra(g, space)
    for e in entries:
        space = e.space_at(e.samples()[0])
        if space.dim >= 2:
            for h in hyperplanes(space):
                yield "hyperplane", h


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 1
    digest, counts = hashlib.sha256(), {}
    for group, space in sweep(seed):
        try:
            line = json.dumps(signature(Subalgebra(space)).to_json(), sort_keys=True)
        except Exception as exc:  # the refusal is part of what is compared
            line = f"{type(exc).__name__}: {exc}"
            counts["refused"] = counts.get("refused", 0) + 1
        counts[group] = counts.get(group, 0) + 1
        digest.update(line.encode() + b"\n")
    print(digest.hexdigest(), " ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
