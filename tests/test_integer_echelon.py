"""The fraction-free elimination core against sympy, and the int-row paths
built on it: `Subspace` coordinates and the pair brackets behind
`structure_constants_for_basis`."""

import random

import pytest

from sp4solvable.catalog import load_catalog
from sp4solvable.identify import verify_isomorphism
from sp4solvable.linalg import Mat4, Subspace, echelon_span, rank
from sp4solvable.rational import Q
from sp4solvable.structure import Subalgebra, structure_constants_for_basis

from oracles import change_basis_fraction, combination, coords, rational_rref, solve_in_span

sympy = pytest.importorskip("sympy")


def _entry(rng, kind):
    x = rng.choice((0, 0, 0, rng.randint(-4, 4), rng.randint(-40, 40)))
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return x
    return Q(x, rng.choice((1, 2, 3, 5, 6, 7, 12)))


def random_rows(rng):
    """Rows of one kind (int, Fraction or mixed), with zero rows, duplicate
    rows and multiples of earlier rows mixed in; 1-28 rows of 4-20 entries."""
    n, m = rng.randint(1, 28), rng.randint(4, 20)
    kind = rng.choice(("int", "fraction", "mixed"))
    rows = []
    for _ in range(n):
        r = rng.random()
        if r < 0.1:
            rows.append([0] * m)
        elif r < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        elif r < 0.35 and rows:
            k = Q(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([k * x for x in rng.choice(rows)])
        else:
            rows.append([_entry(rng, kind) for _ in range(m)])
    return rows


def sympy_rref(rows):
    red = sympy.Matrix([[sympy.Rational(Q(x).numerator, Q(x).denominator) for x in r]
                        for r in rows]).rref()[0]
    out = [tuple(Q(int(e.p), int(e.q)) for e in red.row(i)) for i in range(red.rows)]
    return [r for r in out if any(r)]


@pytest.mark.parametrize("seed", range(200))
def test_rref_matches_sympy(seed):
    rows = random_rows(random.Random(seed))
    got = rational_rref(rows)
    assert got == sympy_rref(rows)
    assert all(type(x) is Q for r in got for x in r)


def random_mat(rng):
    return Mat4([[Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else 0
                  for _ in range(4)] for _ in range(4)])


def random_combo(rng, mats):
    acc = Mat4.zero()
    for m in mats:
        acc = acc + m * Q(rng.randint(-4, 4), rng.randint(1, 5))
    return acc


def rank_of(mats):
    return len(rational_rref([m.flatten() for m in mats]))


@pytest.mark.parametrize("seed", range(40))
def test_subspace_coords_agree_with_solve_in_span(seed):
    rng = random.Random(seed)
    mats = [random_mat(rng) for _ in range(rng.randint(0, 7))]
    space = Subspace(mats)
    assert space.dim == rank_of(mats)
    flat = [b.flatten() for b in space.basis]
    inside = random_combo(rng, mats)
    outside = random_mat(rng)
    for v in (inside, outside, Mat4.zero(), *mats):
        want = solve_in_span(flat, [v.flatten()])[0] if flat else (
            () if v.is_zero() else None)
        assert coords(space, v) == want
        if want is not None:
            assert combination(space, want) == v
    assert space.contains(inside)
    assert space.contains(outside) == (rank_of(mats + [outside]) == space.dim)


@pytest.mark.parametrize("seed", range(20))
def test_constants_for_a_non_echelon_basis_agree_with_change_basis(seed):
    rng = random.Random(seed)
    entries = [e for e in load_catalog() if e.dim >= 2]
    e = rng.choice(entries)
    sub = Subalgebra(e.space_at(e.samples()[0]))
    d = sub.dim
    while True:  # an invertible change of basis to matrices of mixed denominators
        p = [[Q(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(d)] for _ in range(d)]
        mats = [combination(sub.space, col) for col in p]
        if len(rational_rref(p)) == d and len({m.den for m in mats}) > 1:
            break
    assert [coords(sub.space, m) for m in mats] == [tuple(col) for col in p]
    assert structure_constants_for_basis(mats).table == change_basis_fraction(sub.constants, p)


def test_rank_reads_the_int_core():
    m = Mat4([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, Q(1, 3), 1], [1, 2, Q(10, 3), 5]])
    assert rank(m) == 2 == len(sympy_rref([list(r) for r in m.rows]))


def test_hot_paths_never_flatten(monkeypatch):
    """Subspace construction and coordinates and the pair brackets run on int
    rows; a detour through `Mat4.flatten` (16 Fractions a matrix) fails here."""
    instances = []
    for e in load_catalog()[::5]:
        a = e.samples()[0]
        instances.append((e.basis_at(a), Subalgebra(e.space_at(a))))

    def no_flatten(self):
        raise AssertionError("Mat4.flatten on a hot path")

    monkeypatch.setattr(Mat4, "flatten", no_flatten)
    for mats, sub in instances:
        assert echelon_span(mats) == sub.space
        cols = [coords(sub.space, m) for m in mats]
        assert None not in cols
        sc = structure_constants_for_basis(mats)
        assert sc.table == change_basis_fraction(sub.constants, cols)
        assert verify_isomorphism(sc, sub.constants, cols)
