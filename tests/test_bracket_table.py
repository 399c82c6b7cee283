"""The bracket table of a subalgebra against matrix-level oracles.

Both builders of a table from matrices (the pivot read of the echelon basis,
`structure_constants_for_basis` on any basis) must give the table that the
`Fraction` change of basis (`oracles.change_basis_fraction`) gives,
and the adjoint matrices read off the table must match ad(x) computed from
matrix brackets.  The int kernels (brackets, spans, series, adjoint matrices,
basis changes) are checked against `Fraction` oracles on the rational table,
and the int form is checked to be canonical.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import perturb_columns, random_sp4_element, sp4_recipes
from oracles import (bracket_coords_fraction, change_basis_fraction, char_poly_det,
                     close_pairs_matrix, combination, coords, dense_brackets, fraction_rows,
                     gauss_jordan,
                     in_sp4_product, moved_constants, rational_bracket_space, solve_in_span,
                     unit_rows)
from sp4solvable import identify, linalg, structure, verify
from sp4solvable.catalog import DEFAULT_PARAM_SAMPLES, load_catalog
from sp4solvable.errors import DependentInputs, Sp4Error
from sp4solvable.invariants import signature
from sp4solvable.linalg import Mat4, Subspace, _char_poly_int, inverse
from sp4solvable.identify import DeGraafClass, identify_degraaf, verify_isomorphism
from sp4solvable.rational import Q
from sp4solvable.sp4 import (T, X_A2B, X_AB, X_ALPHA, X_BETA, bracket, conjugate_subalgebra,
                             parse_conjugator)
from sp4solvable.verify import verify_catalog
from sp4solvable.structure import (StructureConstants, Subalgebra, _ad_num, _derived_pairs,
                                   _series, _units, bracket_space, generated_subalgebra,
                                   structure_constants_for_basis)

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
    new_basis = [combination(g.space, col) for col in p]
    assert (structure_constants_for_basis(new_basis).table
            == change_basis_fraction(g.constants, p))


def ad_fraction(a, den) -> list[list]:
    """The int matrix over one den of `_ad_num` as rational rows."""
    return [[Q(x, den) for x in r] for r in a]


@settings(max_examples=40, deadline=None)
@given(borel_subalgebras(), st.data())
def test_ad_matrix_matches_matrix_brackets(g, data):
    d = g.dim
    y = data.draw(st.lists(small, min_size=d, max_size=d))
    x = combination(g.space, y)
    sc = g.constants
    units = _units(d)
    # oracle: column j of ad(x) holds the coordinates of [x, b_j]
    cols = [coords(g.space, bracket(x, b)) for b in g.basis]
    assert ad_fraction(*_ad_num(sc, y, list(enumerate(units)))) == [list(r) for r in zip(*cols)]
    # on [g, g] the table's basis differs from the matrix echelon basis, so
    # compare the characteristic polynomials
    pairs = bracket_space(sc, units, units)
    derived = Subspace([bracket(a, b) for a in g.basis for b in g.basis])
    assert len(pairs) == derived.dim
    if pairs:
        dcols = [coords(derived, bracket(x, b)) for b in derived.basis]
        assert _char_poly_int(*_ad_num(sc, y, pairs)) == char_poly_det(list(zip(*dcols)))


def test_ad_matrix_reads_pivots_and_solves_nothing(monkeypatch):
    g = generated_subalgebra([T(2, 1), X_ALPHA, X_BETA])  # the Borel
    sc = g.constants
    units = list(enumerate(_units(g.dim)))
    derived = bracket_space(sc, _units(g.dim), _units(g.dim))
    y = [1, -2, 3, 0, 1, 2][:g.dim]
    want = {}
    for name, pairs in (("units", units), ("derived", derived)):
        rows = fraction_rows(pairs)
        cols = solve_in_span(rows, [bracket_coords_fraction(sc, y, v) for v in rows])
        want[name] = [list(r) for r in zip(*cols)]

    def refuse(*_):
        raise AssertionError("_ad_num eliminated")
    for module in (structure, linalg):
        monkeypatch.setattr(module, "rref", refuse)
    assert ad_fraction(*_ad_num(sc, y, units)) == want["units"]
    assert ad_fraction(*_ad_num(sc, y, derived)) == want["derived"]
    # a line that ad(y) moves is refused
    with pytest.raises(Sp4Error, match="not ad-stable"):
        _ad_num(sc, y, [derived[-1]])


def rational_row(d):
    """A random rational coordinate row of length d."""
    return st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=6)] * d)


def rational_rows(d):
    return st.lists(rational_row(d), max_size=3)


def span_fraction(sc, a, b):
    return [tuple(r) for r in gauss_jordan([bracket_coords_fraction(sc, u, v)
                                            for u in a for v in b])]


def series_fraction(sc, lower):
    g = unit_rows(sc.dim)
    chain = [g]
    while chain[-1]:
        h = chain[-1]
        nxt = span_fraction(sc, g if lower else h, h)
        if len(nxt) == len(h):
            break
        chain.append(nxt)
    return chain


def is_canonical(sc):
    flat = [x for plane in sc.num for row in plane for x in row]
    return sc.den > 0 and math.gcd(sc.den, *flat) == 1


@settings(max_examples=40, deadline=None)
@given(borel_subalgebras(), st.data())
def test_int_brackets_spans_and_series_match_the_fraction_oracle(g, data):
    sc, d = g.constants, g.dim
    rows = data.draw(rational_rows(d))
    a, b = rows, data.draw(rational_rows(d))
    assert rational_bracket_space(sc, a, b) == span_fraction(sc, a, b)
    assert rational_bracket_space(sc, a, a) == span_fraction(sc, a, a)
    for lower in (False, True):
        assert [fraction_rows(level) for level in _series(g, lower)] == series_fraction(sc, lower)


@settings(max_examples=40, deadline=None)
@given(borel_subalgebras(), st.data())
def test_int_ad_matrix_matches_the_fraction_oracle(g, data):
    sc, d = g.constants, g.dim
    y = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    derived = bracket_space(sc, _units(d), _units(d))
    # a sublist of echelon pairs is echelon; ad(y) need not keep it
    keep = data.draw(st.lists(st.booleans(), min_size=len(derived), max_size=len(derived)))
    for pairs in (list(enumerate(_units(d))), derived, [p for p, k in zip(derived, keep) if k]):
        rows = fraction_rows(pairs)
        cols = solve_in_span(rows, [bracket_coords_fraction(sc, y, v) for v in rows])
        if None in cols:
            with pytest.raises(Sp4Error, match="not ad-stable"):
                _ad_num(sc, y, pairs)
        else:
            assert ad_fraction(*_ad_num(sc, y, pairs)) == [list(r) for r in zip(*cols)]


@settings(max_examples=40, deadline=None)
@given(borel_subalgebras(), st.data())
def test_int_change_basis_matches_the_fraction_oracle(g, data):
    sc, d = g.constants, g.dim
    p = data.draw(invertible(d))
    scale = data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    cols = [[Q(x, s) for x in col] for col, s in zip(p, scale)]
    mats = [combination(g.space, col) for col in cols]
    moved = g.constants_in(mats)  # the int columns moved by `StructureConstants._moved`
    assert moved.table == change_basis_fraction(sc, cols)
    assert is_canonical(moved)
    if d > 1:
        with pytest.raises(DependentInputs):
            g.constants_in([mats[0]] + mats[:-1])


@settings(max_examples=80, deadline=None)
@given(borel_subalgebras(), st.data())
def test_verify_isomorphism_matches_the_fraction_change_of_basis(g, data):
    """The bracket identity and the rank test of `verify_isomorphism` against
    the reference: the columns are independent and the target table in
    their basis (`change_basis_fraction`) is the source table."""
    tgt, d = g.constants, g.dim
    scale = data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    p = [[Q(x, s) for x in col] for col, s in zip(data.draw(invertible(d)), scale)]
    src = moved_constants(tgt, p)
    kind = data.draw(st.sampled_from(("exact", "random", "singular", "perturbed")))
    if kind == "random":
        cols = [[data.draw(st.builds(Q, small, st.integers(1, 3))) for _ in range(d)]
                for _ in range(d)]
    elif kind == "singular":  # the last column a combination of the others (zero when d = 1)
        cols = [*p[:-1], [x + 2 * y for x, y in zip(p[0], p[-2])] if d > 1 else [0]]
    elif kind == "perturbed":
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        cols = perturb_columns(p, i, j, data.draw(st.sampled_from((1, -1, Q(1, 2)))))
    else:
        cols = p
    want = len(gauss_jordan(cols)) == d and change_basis_fraction(tgt, cols) == src.table
    assert verify_isomorphism(src, tgt, cols) == want
    assert want or kind != "exact"


def test_int_tables_are_canonical():
    tables = [Subalgebra(Subspace(e.basis_at(a))).constants
              for e in load_catalog() for a in e.samples(DEFAULT_PARAM_SAMPLES)]
    tables += [DeGraafClass("M6", (Q(4, 9), Q(-1, 3))).constants(),
               StructureConstants.from_brackets(3, {(2, 0): {1: Q(2, 6)}})]
    assert len(tables) == 122
    for sc in tables:
        assert is_canonical(sc)
        if sc.is_abelian():
            assert sc.den == 1
    # the same values in another form compare equal
    assert (StructureConstants.from_brackets(2, {(0, 1): {1: Q(2, 4)}})
            == StructureConstants.from_brackets(2, {(1, 0): {1: Q(-1, 2)}}))
    assert StructureConstants.from_brackets(2, {(1, 0): {0: 3}}).num[0][1] == (-3, 0)
    # a coefficient of another type is read by Fraction's own constructor,
    # before a reversed pair negates it
    assert (StructureConstants.from_brackets(2, {(0, 1): {1: "3/4"}})
            == StructureConstants.from_brackets(2, {(1, 0): {1: "-3/4"}})
            == StructureConstants.from_brackets(2, {(0, 1): {1: 0.75}})
            == StructureConstants.from_brackets(2, {(0, 1): {1: Q(3, 4)}}))


def test_series_and_signatures_never_read_the_rational_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the rational table was read")
    monkeypatch.setattr(StructureConstants, "table", property(refuse))
    instances = 0
    for e in load_catalog():
        for a in e.samples(DEFAULT_PARAM_SAMPLES):
            sub = Subalgebra(Subspace(e.basis_at(a)))
            _series(sub, lower=True)
            signature(sub)
            instances += 1
    assert instances == 120


# ---------------------------------------------------------------------------
# the ten-coordinate closure pass against the matrix-product one
# ---------------------------------------------------------------------------

def _block(a, b, c) -> Mat4:
    """[[A, B], [C, -A^t]] from the 2x2 A and the symmetric B and C, each
    given by its rows: an sp(4) element by the block definition."""
    return Mat4([a[0] + b[0], a[1] + b[1], c[0] + [-a[0][0], -a[1][0]],
                 c[1] + [-a[0][1], -a[1][1]]])


_sym = st.tuples(small, small, small).map(lambda v: [[v[0], v[1]], [v[1], v[2]]])
_sp4_elements = st.builds(_block, st.lists(st.lists(small, min_size=2, max_size=2),
                                           min_size=2, max_size=2), _sym, _sym)


def test_the_ten_coordinates_fix_an_sp4_element():
    units = [linalg._from_coords([int(i == k) for k in range(10)], 1) for i in range(10)]
    assert all(in_sp4_product(u) for u in units)
    assert Subspace(units).dim == 10  # the dimension of sp(4)
    rng = random.Random(5)
    for _ in range(50):
        m = random_sp4_element(rng) * Q(rng.randint(1, 9), rng.randint(1, 9))
        assert linalg._from_coords([m.num[p] for p in linalg._COORDS], m.den) == m
        # the first nonzero entry is one of the ten
        assert next(i for i, x in enumerate(m.num) if x) in linalg._COORDS


def test_sp4_is_one_more_bracket_table():
    # the table the closure pass brackets through: [e_i, e_j] of the unit
    # elements, read at the ten coordinates, over den 1
    units = [linalg._from_coords(u, 1) for u in _units(10)]
    sp4 = structure._SP4
    assert sp4.dim == 10 and sp4.den == 1
    brackets = {}
    for i, j in itertools.combinations(range(10), 2):
        row = linalg._read_coords(bracket(units[i], units[j]).num)
        assert sp4.num[i][j] == row, (i, j)
        brackets[i, j] = dict(enumerate(row))
    # the rational builder, which checks the Jacobi identity, gives the same table
    assert StructureConstants.from_brackets(10, brackets) == sp4


def test_the_table_of_every_catalog_instance_is_the_matrix_table():
    count = 0
    for e in load_catalog():
        for a in e.samples():
            space = e.space_at(a)
            got = structure._close_pairs(space)
            assert isinstance(got, StructureConstants), (e.row_id, a)
            assert got == close_pairs_matrix(space), (e.row_id, a)
            count += 1
    assert count == 120


def test_the_derived_algebra_of_every_catalog_instance_is_read_off_the_table():
    for e in load_catalog():
        for a in e.samples():
            sc = Subalgebra(e.space_at(a)).constants
            units = _units(sc.dim)
            assert _derived_pairs(sc) == bracket_space(sc, units, units), (e.row_id, a)


@settings(max_examples=60, deadline=None)
@given(borel_subalgebras(), st.one_of(st.none(), sp4_recipes))
def test_the_derived_algebra_read_off_the_table_is_the_bracket_span(g, recipe):
    if recipe is not None:
        g = Subalgebra(conjugate_subalgebra(parse_conjugator(recipe), g.space))
    sc = g.constants
    units = _units(sc.dim)
    assert _derived_pairs(sc) == bracket_space(sc, units, units)
    for lower in (False, True):
        assert [fraction_rows(level) for level in _series(g, lower)] == series_fraction(sc, lower)


@settings(max_examples=80, deadline=None)
@given(st.lists(_sp4_elements, min_size=1, max_size=4), sp4_recipes)
def test_conjugated_dense_spans_close_as_with_matrix_products(mats, recipe):
    # most such spans are not closed: the brackets outside are compared too
    space = conjugate_subalgebra(parse_conjugator(recipe), Subspace(mats))
    assert structure._close_pairs(space) == close_pairs_matrix(space)


@settings(max_examples=40, deadline=None)
@given(st.lists(_sp4_elements, min_size=1, max_size=3), sp4_recipes)
def test_each_round_of_generated_subalgebra_is_the_matrix_round(seeds, recipe):
    g = parse_conjugator(recipe)
    rounds = []
    close_pairs = structure._close_pairs

    def recording(space):
        rounds.append((space, close_pairs(space)))
        return rounds[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_close_pairs", recording)
        sub = generated_subalgebra([g * m * inverse(g) for m in seeds])
    assert rounds and isinstance(rounds[-1][1], StructureConstants)
    assert sub.constants == rounds[-1][1]
    for space, found in rounds:
        assert found == close_pairs_matrix(space)
    # every round but the last brings brackets outside, as the same coordinate rows
    assert all(isinstance(found, list) and found for _, found in rounds[:-1])


def test_a_span_outside_sp4_is_refused():
    gl4 = [Mat4.unit(1, 1), Mat4.unit(2, 2)]  # abelian, not in sp(4)
    for build in (Subspace, generated_subalgebra, Subalgebra.from_matrices,
                  structure_constants_for_basis):
        with pytest.raises(Sp4Error, match=r"not in sp\(4\)"):
            build(gl4)


def class_presentations(samples=DEFAULT_PARAM_SAMPLES):
    """(class, dim, brackets) of every `_DEGRAAF` and `_SW` class, each with
    a parameter at every tuple of the samples."""
    for table in (identify._DEGRAAF, identify._SW):
        for name, (dim, br) in table.items():
            for params in itertools.product(samples, repeat=identify._arity(br)):
                yield name, dim, br(*params) if callable(br) else br


def test_from_brackets_gives_the_dense_table_of_every_class():
    n = 0
    for name, dim, br in class_presentations():
        assert StructureConstants.from_brackets(dim, br).table == dense_brackets(dim, br), name
        n += 1
    # 8 + 4 * 8 + 2 * 64 de Graaf and 15 + 3 * 8 + 2 * 64 sw presentations
    assert n == 335


def test_a_table_broken_at_a_known_triple_raises_the_dense_builds_message():
    # every class at its first sample, with each bracket entry in turn raised
    # by 1: the table and the Jacobi verdict, with its first failing triple,
    # are the dense build's
    outcomes = Counter()
    for name, dim, br in class_presentations(DEFAULT_PARAM_SAMPLES[:1]):
        for (i, j), row in br.items():
            for k in range(dim):
                broken = {**br, (i, j): {**row, k: row.get(k, 0) + 1}}
                want = dense_brackets(dim, broken)
                try:
                    got = StructureConstants.from_brackets(dim, broken).table
                except Sp4Error as exc:
                    got = str(exc)
                assert got == want, (name, i, j, k)
                outcomes[want if isinstance(want, str) else "a Lie algebra"] += 1
    assert outcomes["a Lie algebra"] > 0
    assert len([w for w in outcomes if w != "a Lie algebra"]) > 5  # several first triples


def test_the_derived_algebra_is_eliminated_once_and_kept_unchanged():
    # [g, g] is kept on the table: the series and the identifier read the
    # one list, and after a certification every kept one is still the
    # elimination of its table's rows, so no caller changed it
    sub = Subalgebra(Subspace([T(1, 0), X_ALPHA, X_AB, X_A2B]))
    sc = sub.constants
    derived = _derived_pairs(sc)
    identify_degraaf(sc)
    assert sub.derived[1] is derived and _derived_pairs(sc) is derived
    verify._instance.cache_clear()
    assert verify_catalog().overall_pass
    kept = [verify._instance(e, a).sub.constants for e in load_catalog() for a in e.samples()]
    assert all(t._derived is not None for t in kept)
    assert all(t._derived == linalg.rref([t.num[i][j] for i, j in itertools.combinations(
        range(t.dim), 2)]) for t in kept)
    verify._instance.cache_clear()
