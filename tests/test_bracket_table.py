"""The bracket table of a subalgebra against matrix-level oracles.

Both users of the one coordinate solve (`structure_constants_for_basis` on
matrices, `StructureConstants.change_basis` on coordinates) must give the
same table, and the adjoint matrices read off the table must match ad(x)
computed from matrix brackets.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sp4solvable import linalg, structure
from sp4solvable.errors import Sp4Error
from sp4solvable.linalg import char_poly_rows, echelon_span, solve_in_span
from sp4solvable.rational import Q
from sp4solvable.sp4 import T, X_A2B, X_AB, X_ALPHA, X_BETA, bracket
from sp4solvable.structure import (ad_matrix, bracket_space,
                                   generated_subalgebra, structure_constants,
                                   structure_constants_for_basis, unit_rows)

small = st.integers(-3, 3)


@st.composite
def borel_subalgebras(draw):
    """The subalgebra generated by one or two random Borel elements."""
    seeds = []
    for _ in range(draw(st.integers(1, 2))):
        m = T(draw(small), draw(small))
        for x in (X_ALPHA, X_BETA, X_AB, X_A2B):
            m = m + x * draw(st.integers(-2, 2))
        seeds.append(m)
    g = generated_subalgebra(seeds)
    assume(g.dim > 0)
    return g


@st.composite
def invertible(draw, d):
    """A random invertible d x d integer matrix: a row permutation of L U,
    L unit lower triangular, U upper triangular with nonzero diagonal."""
    low = [[1 if i == j else (draw(small) if j < i else 0) for j in range(d)]
           for i in range(d)]
    up = [[draw(st.sampled_from((1, -1, 2, -3))) if i == j
           else (draw(small) if j > i else 0) for j in range(d)] for i in range(d)]
    lu = [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)]
          for i in range(d)]
    return draw(st.permutations(lu))


@settings(max_examples=40, deadline=None)
@given(borel_subalgebras(), st.data())
def test_table_of_a_new_basis_is_the_changed_table(g, data):
    p = data.draw(invertible(g.dim))
    new_basis = [g.space.combine(col) for col in p]
    assert structure_constants_for_basis(new_basis) == structure_constants(g).change_basis(p)


@settings(max_examples=40, deadline=None)
@given(borel_subalgebras(), st.data())
def test_ad_matrix_matches_matrix_brackets(g, data):
    d = g.dim
    y = tuple(Q(c) for c in data.draw(st.lists(small, min_size=d, max_size=d)))
    x = g.space.combine(y)
    sc = structure_constants(g)
    # oracle: column j of ad(x) holds the coordinates of [x, b_j]
    cols = [g.space.coords(bracket(x, b)) for b in g.basis]
    assert ad_matrix(sc, y, unit_rows(d)) == [list(r) for r in zip(*cols)]
    # on [g, g] the table's basis differs from the matrix echelon basis, so
    # compare the characteristic polynomials
    rows = bracket_space(sc, unit_rows(d), unit_rows(d))
    derived = echelon_span([bracket(a, b) for a in g.basis for b in g.basis])
    assert len(rows) == derived.dim
    if rows:
        dcols = [derived.coords(bracket(x, b)) for b in derived.basis]
        assert (char_poly_rows(ad_matrix(sc, y, rows))
                == char_poly_rows([list(r) for r in zip(*dcols)]))


def test_ad_matrix_reads_pivots_and_solves_nothing(monkeypatch):
    g = generated_subalgebra([T(2, 1), X_ALPHA, X_BETA])  # the Borel
    sc = structure_constants(g)
    units = unit_rows(g.dim)
    derived = bracket_space(sc, units, units)
    y = tuple(Q(c) for c in (1, -2, 3, 0, 1, 2)[:g.dim])
    want = {}
    for name, rows in (("units", units), ("derived", derived)):
        cols = solve_in_span(rows, [sc.bracket_coords(y, v) for v in rows])
        want[name] = [list(r) for r in zip(*cols)]

    def refuse(*_):
        raise AssertionError("ad_matrix eliminated")
    for module in (structure, linalg):
        monkeypatch.setattr(module, "solve_in_span", refuse)
        monkeypatch.setattr(module, "rref", refuse)
    assert ad_matrix(sc, y, units) == want["units"]
    assert ad_matrix(sc, y, derived) == want["derived"]
    # a line that ad(y) moves is refused
    with pytest.raises(Sp4Error, match="not ad-stable"):
        ad_matrix(sc, y, [derived[-1]])
