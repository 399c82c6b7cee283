import json
import random

import pytest

from sp4solvable.catalog import CATALOG_FILE
from sp4solvable.linalg import Mat4
from sp4solvable.rational import Q
from sp4solvable.sp4 import (A_MAT, AJ_MAT, J_FORM, T, W_MAT, X_A2B, X_AB,
                             X_ALPHA, X_BETA, shear)

ROOTS = (X_ALPHA, X_BETA, X_AB, X_A2B)


def shipped_dicts() -> list[dict]:
    """The row dicts of the shipped `catalog.json`, read anew on each call."""
    with open(CATALOG_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def random_borel_element(rng, span=3):
    """Random element of the Borel subalgebra (rational spectrum for free)."""
    m = T(rng.randint(-span, span), rng.randint(-span, span))
    for x in ROOTS:
        c = rng.randint(-2, 2)
        if c:
            m = m + x * Q(c)
    return m


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
