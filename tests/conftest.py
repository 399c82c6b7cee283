import json
import random

import pytest
from hypothesis import strategies as st

from sp4solvable import invariants, verify
from sp4solvable.catalog import CATALOG_FILE
from sp4solvable.linalg import Mat4
from sp4solvable.rational import Q
from sp4solvable.sp4 import (A_MAT, AJ_MAT, J_FORM, ROOT_LABELS, T, W_MAT, X_A2B, X_AB,
                             X_ALPHA, X_BETA, shear)

ROOTS = (X_ALPHA, X_BETA, X_AB, X_A2B)
# the abelian radical of the Siegel parabolic, [[0, S], [0, 0]] with S symmetric
SIEGEL = [Mat4.unit(1, 3), Mat4.unit(2, 4), Mat4.unit(1, 4) + Mat4.unit(2, 3)]


def shipped_dicts() -> list[dict]:
    """The row dicts of the shipped `catalog.json`, read anew on each call."""
    with open(CATALOG_FILE, encoding="utf-8") as fh:
        return json.load(fh)


_value = st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(1, 4)).map(str)
_atoms = st.one_of(
    st.sampled_from(["W", "A", "J", "AJ", "WA", "identity"]),
    st.tuples(st.sampled_from(ROOT_LABELS), _value).map("shear:{0[0]}:{0[1]}".format),
    st.tuples(_value, _value).map("diag:{0[0]},{0[1]},1/({0[0]}),1/({0[1]})".format),
    st.tuples(_value, _value, _value).map("block:{0[0]},{0[1]},{0[2]},"
                                          "(1+({0[1]})*({0[2]}))/({0[0]})".format),
    st.tuples(_value, _value, _value, _value).filter(
        lambda v: Q(v[0]) * Q(v[3]) != Q(v[1]) * Q(v[2])).map(
        "glblock:{0[0]},{0[1]},{0[2]},{0[3]}".format))
# a `parse_conjugator` recipe of one to three atoms, each in Sp(4)
sp4_recipes = st.lists(_atoms, min_size=1, max_size=3).map(" ".join)


def clear_fact_caches():
    """Empty the per-object caches of the signature (N(g) and x0 facts) and
    of the sw-bridge check, so that the next calls compute them anew."""
    for cached in (invariants._nilpotent_facts, invariants._x0_facts,
                   verify._sw_bridge):
        cached.cache_clear()


def siegel_plane(q):
    """The plane of the Siegel radical [[0, S], [0, 0]] with tr(SQ) = 0, for
    a nonzero symmetric Q = [[q11, q12], [q12, q22]]."""
    (q11, q12), (_, q22) = q
    w = (q11, q22, 2 * q12)  # tr(SQ) on the coordinates s11, s22, s12 of SIEGEL
    k = next(i for i, c in enumerate(w) if c)
    return [SIEGEL[j] * w[k] - SIEGEL[k] * w[j] for j in range(3) if j != k]


def random_borel_element(rng, span=3):
    """Random element of the Borel subalgebra (rational spectrum for free)."""
    m = T(rng.randint(-span, span), rng.randint(-span, span))
    for x in ROOTS:
        c = rng.randint(-2, 2)
        if c:
            m = m + x * Q(c)
    return m


def sp4_block(e) -> Mat4:
    """The sp(4) element [[A, B], [C, -A^t]] of ten entries: A row by row,
    then the upper triangles of the symmetric B and C."""
    a11, a12, a21, a22, b11, b12, b22, c11, c12, c22 = e
    return Mat4([[a11, a12, b11, b12], [a21, a22, b12, b22],
                 [c11, c12, -a11, -a21], [c12, c22, -a12, -a22]])


def random_sp4_element(rng, span=3):
    """Random sp(4) element via the block parameterization [[A,B],[C,-A^t]]
    with B, C symmetric."""
    a = [[Q(rng.randint(-span, span)) for _ in range(2)] for _ in range(2)]
    b01 = Q(rng.randint(-span, span))
    c01 = Q(rng.randint(-span, span))
    b = [[Q(rng.randint(-span, span)), b01], [b01, Q(rng.randint(-span, span))]]
    c = [[Q(rng.randint(-span, span)), c01], [c01, Q(rng.randint(-span, span))]]
    return Mat4([
        [a[0][0], a[0][1], b[0][0], b[0][1]],
        [a[1][0], a[1][1], b[1][0], b[1][1]],
        [c[0][0], c[0][1], -a[0][0], -a[1][0]],
        [c[1][0], c[1][1], -a[0][1], -a[1][1]],
    ])


def stated_columns(entry, a):
    """A row's stated isomorphism columns at a as rationals:
    `CatalogEntry.iso_columns_at` gives them as int rows over one den."""
    cols, den = entry.iso_columns_at(a)
    return [tuple(Q(x, den) for x in c) for c in cols]


def perturb_columns(columns, i, j, delta):
    """Map columns with entry j of column i moved by delta."""
    cols = [list(c) for c in columns]
    cols[i][j] += Q(delta)
    return cols


def conjugator_pool(rng, n=20, max_len=3):
    """Random products of named conjugators and small shears."""
    atoms = [W_MAT, A_MAT, J_FORM, AJ_MAT]
    for gamma in ("alpha", "beta", "alpha_plus_beta", "alpha_plus_2beta"):
        for z in (1, -1, 2):
            atoms.append(shear(gamma, Q(z)))
    out = []
    for _ in range(n):
        g = Mat4.identity()
        for _ in range(rng.randint(1, max_len)):
            g = g * rng.choice(atoms)
        out.append(g)
    return out


@pytest.fixture
def rng():
    return random.Random(20260809)
