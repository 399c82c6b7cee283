import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable.errors import (FactorizationLimit, SingularMatrix, Sp4Error,
                                ZeroPolynomial)
from sp4solvable.linalg import (_TRACE_FORM, Mat4, Poly, _char_poly_int, _from_coords,
                                _kernel_int, _over_common_den, _trace_gram, char_poly, echelon_span, generic_rank, inverse, kernel, rank,
                                rational_roots, rref)
from sp4solvable.rational import (Q, exact_isqrt, factor_int, format_rational,
                                  parse_rational, power_free_split, rational_sqrt)
from sp4solvable.sp4 import T, W_MAT, X_A2B, X_AB, X_ALPHA, X_BETA, bracket
from sp4solvable.structure import structure_constants_for_basis

from conftest import sp4_block
from oracles import (bracket_fraction, char_poly_cofactor, char_poly_det, combination, coords,
                     echelon_coords, inverse_fraction, kernel_fraction, rational_rref,
                     solve_in_span)

rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 7))


def rand_mat(draw_list):
    return Mat4([draw_list[i * 4:(i + 1) * 4] for i in range(4)])


mats = st.builds(rand_mat, st.lists(rationals, min_size=16, max_size=16))
sp4_mats = st.builds(sp4_block, st.lists(rationals, min_size=10, max_size=10))
# random matrices of every rank: m * p has rank <= rank(p) = 0..4
square_mats = st.builds(
    lambda m, p: m * p, mats,
    st.sampled_from([Mat4.zero(), X_ALPHA, X_BETA, X_ALPHA + X_BETA,
                     Mat4.identity() * Q(3, 2)]))


def test_rational_wire_format():
    assert format_rational(Q(-3, 16)) == "-3/16"
    assert format_rational(Q(2)) == "2"
    # a value of another type is read by Fraction's own constructor
    assert format_rational("-6/8") == "-3/4" and format_rational(0.5) == "1/2"
    assert parse_rational("-3/16") == Q(-3, 16)
    assert parse_rational("2") == Q(2)
    assert rational_sqrt(Q(9, 4)) == Q(3, 2)
    assert rational_sqrt(Q(2)) is None
    assert power_free_split(Q(4)) == (1, 2)
    assert power_free_split(Q(-8, 9), 2) == (-2, Q(2, 3))
    assert power_free_split(Q(0)) == (0, 1)
    assert power_free_split(Q(-16, 27), 3) == (-2, Q(2, 3))
    assert power_free_split(Q(54), 3) == (2, 3)


@given(st.builds(Q, st.integers(-10**4, 10**4).filter(bool), st.integers(1, 10**4)),
       st.sampled_from([2, 3]))
def test_power_free_split_gives_kernel_and_root(q, k):
    kern, root = power_free_split(q, k)
    assert q == root**k * kern and root > 0
    assert kern.denominator == 1
    assert all(e < k for e in factor_int(kern.numerator).values())


def test_exact_isqrt():
    big = 10**40
    assert [exact_isqrt(n) for n in (0, 1, -1, 2, big, big + 1)] == [
        0, 1, None, None, 10**20, None]
    assert rational_sqrt(Q(-4)) is None and rational_sqrt(Q(big, 9)) == Q(10**20, 3)


def test_factor_int_trial_division_bound():
    # the bound is 10^6: a cofactor below 10^12 is prime after trial
    # division, and two primes just above 10^6 are out of reach
    assert factor_int(-8 * 999983 * 1000003) == {2: 3, 999983: 1, 1000003: 1}
    with pytest.raises(FactorizationLimit, match="bound 1000000$"):
        factor_int(1000003 * 1000033)


def test_char_poly_t12():
    # oracle: expand (x-1)(x-2)(x+1)(x+2) = x^4 - 5x^2 + 4
    oracle = Poly([1])
    for r in (1, 2, -1, -2):
        oracle = oracle * Poly([-r, 1])
    assert char_poly(T(1, 2)) == oracle
    assert char_poly_cofactor(T(1, 2)) == oracle


def test_char_poly_trivial_cases():
    assert char_poly(Mat4.zero()) == Poly([0, 0, 0, 0, 1])
    assert char_poly(X_ALPHA) == Poly([0, 0, 0, 0, 1])


@settings(max_examples=60, deadline=None)
@given(mats)
def test_char_poly_matches_cofactor_oracle(m):
    assert char_poly(m) == char_poly_cofactor(m)


@settings(max_examples=40, deadline=None)
@given(mats, mats)
def test_char_poly_conjugation_invariant(m, g):
    gi = g + Mat4.identity() * Q(10)  # make invertibility overwhelmingly likely
    try:
        ginv = inverse(gi)
    except SingularMatrix:
        return
    assert char_poly(gi * m * ginv) == char_poly(m)


def test_rational_roots_examples():
    assert rational_roots(Poly([-2, -1, 1])) == {Q(2): 1, Q(-1): 1}
    assert rational_roots(Poly([0, 0, 0, 0, 1])) == {Q(0): 4}
    # single root 1/3 of multiplicity 3
    p = Poly([Q(-1, 27), Q(1, 3), -1, 1])
    assert rational_roots(p) == {Q(1, 3): 3}
    with pytest.raises(ZeroPolynomial):
        rational_roots(Poly())
    # linear, alone and after a root at zero
    assert rational_roots(Poly([-3, 2])) == {Q(3, 2): 1}
    assert rational_roots(Poly([0, 3, 2])) == {Q(0): 1, Q(-3, 2): 1}


def test_zero_polynomial_at_the_boundary():
    zero = Poly()
    assert zero(Q(3, 2)) == 0 and zero(Q(-5)) == 0
    assert Poly([Q(1, 2), 3])(Q(2, 3)) == Q(5, 2)
    assert repr(zero) == "Poly(0)"
    assert repr(Poly([Q(1, 2), 1, 0, -3])) == "Poly(1/2 + 1*x + -3*x^3)"


@settings(max_examples=50, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=6))
def test_rational_roots_are_roots(coeffs):
    p = Poly(coeffs)
    if p.is_zero():
        return
    roots = rational_roots(p)
    assert sum(roots.values()) <= max(p.degree, 0)
    for r, mult in roots.items():
        assert p(r) == 0
        assert mult >= 1


def test_rank_examples():
    assert rank(X_ALPHA) == 1
    assert rank(X_BETA) == 2
    assert rank(X_ALPHA + X_BETA) == 3
    assert rank(Mat4.identity()) == 4
    assert rank(Mat4.zero()) == 0


@settings(max_examples=40, deadline=None)
@given(square_mats)
def test_rank_nullity(m):
    assert rank(m) + len(kernel(m)) == 4
    assert rank(m) == len(rational_rref(m.rows))
    assert kernel(m) == kernel_fraction(m.rows, 4)


def test_inverse_examples():
    assert inverse(Mat4.identity()) == Mat4.identity()
    assert inverse(W_MAT) == W_MAT.transpose()
    d = Mat4.diag(Q(1, 2), Q(1, 2), 2, 2)
    assert inverse(d) == Mat4.diag(2, 2, Q(1, 2), Q(1, 2))
    with pytest.raises(SingularMatrix):
        inverse(X_ALPHA)


small_rationals = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(small_rationals, min_size=n, max_size=n), max_size=6))))
def test_int_kernel_matches_fraction_gauss_jordan(case):
    n, rows = case
    got = _kernel_int([_over_common_den(r)[0] for r in rows], n)
    assert all(type(x) is int for _, v in got for x in v)
    assert [tuple(Q(x, v[f]) for x in v) for f, v in got] == kernel_fraction(rows, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(square_mats, mats))
def test_inverse_roundtrip(m):
    want = inverse_fraction(m)  # None exactly when Gauss-Jordan finds m singular
    try:
        mi = inverse(m)
    except SingularMatrix:
        assert rank(m) < 4 and want is None
        return
    assert rank(m) == 4
    assert mi == want
    assert_canonical(mi)
    assert m * mi == Mat4.identity() == mi * m


def test_echelon_span_examples():
    assert echelon_span([X_ALPHA, X_ALPHA * 2]).dim == 1
    assert echelon_span([X_ALPHA, X_A2B]).dim == 2
    assert echelon_span([]).dim == 0
    assert echelon_span([Mat4.zero()]).dim == 0


@settings(max_examples=30, deadline=None)
@given(sp4_mats)
def test_echelon_idempotent(m):
    s = echelon_span([m, m])
    assert s.dim <= 1
    assert echelon_span(s.basis) == s


def test_subspace_repr():
    assert repr(echelon_span([X_ALPHA, X_BETA, X_ALPHA * 2])) == "Subspace(dim=2)"


def test_subspace_equality_is_canonical():
    s1 = echelon_span([X_ALPHA + X_BETA, X_BETA])
    s2 = echelon_span([X_ALPHA, X_ALPHA + X_BETA * 7])
    assert s1 == s2
    assert coords(s1, X_ALPHA * 3 + X_BETA) is not None
    assert coords(s1, X_A2B) is None


def test_coords_recombine():
    s = echelon_span([T(1, 2), X_ALPHA, X_AB])
    v = T(1, 2) * Q(3, 7) + X_AB * Q(-2)
    c = coords(s, v)
    assert combination(s, c) == v


@settings(max_examples=60, deadline=None)
@given(st.lists(sp4_mats, min_size=1, max_size=6),
       st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), max_size=6))
def test_span_coords_is_the_echelon_span_of_the_combinations(vectors, rows):
    space = echelon_span(vectors)
    rows = [r[:space.dim] for r in rows]
    assert space.span_coords(rref(rows)) == echelon_span([combination(space, r) for r in rows])


def test_the_trace_form_table_is_the_trace_of_the_product():
    # each of the 100 ordered pairs of unit coordinate rows, laid out and
    # multiplied as 4x4 matrices
    units = [[int(i == j) for j in range(10)] for i in range(10)]
    gram = _trace_gram(units)
    for i, j in product(range(10), repeat=2):
        u, v = units[i], units[j]
        want = (_from_coords(u, 1) * _from_coords(v, 1)).trace()
        assert sum(w * u[k] * v[q] for k, q, w in _TRACE_FORM) == want
        assert gram[i][j] == want
    assert [k for k, _, _ in _TRACE_FORM] == list(range(10))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=10, max_size=10), max_size=6))
def test_the_trace_gram_of_int_rows_is_the_trace_of_the_products(rows):
    mats = [_from_coords(r, 1) for r in rows]
    assert _trace_gram(rows) == [[(x * y).trace() for y in mats] for x in mats]


def test_solve_in_span_roundtrips_on_a_non_echelon_basis():
    vectors = [tuple(Q(x) for x in v)
               for v in ((2, 1, 0, 3, 0), (1, 1, 1, 0, 0), (0, 3, 1, 1, 0))]
    coords = (Q(3, 7), Q(-2), Q(5))
    w = tuple(sum(c * v[i] for c, v in zip(coords, vectors)) for i in range(5))
    outside = (0, 0, 0, 0, Q(1))
    assert solve_in_span(vectors, [w]) == [coords]
    assert solve_in_span(vectors, [outside]) == [None]
    # several right-hand sides in one solve, each answered on its own; a w
    # outside the span stays None even when a later w lies in span(v, w)
    w2 = tuple(x + y for x, y in zip(vectors[0], outside))
    assert solve_in_span(vectors, [outside, w, w2, vectors[2]]) == [
        None, coords, None, (0, 0, 1)]
    assert solve_in_span(vectors, []) == []
    with pytest.raises(Sp4Error):
        solve_in_span(vectors[:2] + [vectors[0]], [w])  # dependent vectors
    # the bracket table's coordinate solve still refuses bad bases
    with pytest.raises(Sp4Error):
        structure_constants_for_basis([X_ALPHA, X_ALPHA * 2])  # dependent
    with pytest.raises(Sp4Error):
        structure_constants_for_basis([X_ALPHA, X_BETA])  # [X_a, X_b] outside


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=n),
    st.lists(rationals, min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
def test_echelon_coords_matches_solve_in_span(case):
    vectors, w, coeffs = case
    rows = rational_rref(vectors)
    n = len(w)
    inside = tuple(sum((c * r[i] for c, r in zip(coeffs, rows)), Q(0)) for i in range(n))
    pivots = [next(i for i, x in enumerate(r) if x) for r in rows]
    # a unit vector off the pivots lies outside the span
    outside = [tuple(Q(int(i == j)) for i in range(n)) for j in range(n) if j not in pivots]
    for v in [inside, w, *outside]:
        assert echelon_coords(rows, v) == solve_in_span(rows, [v])[0]
    assert echelon_coords(rows, inside) == tuple(coeffs[:len(rows)])
    assert all(echelon_coords(rows, v) is None for v in outside)


def test_generic_rank():
    assert generic_rank([X_ALPHA, X_A2B]) == 2
    assert generic_rank([X_ALPHA + X_BETA, X_AB, X_A2B]) == 3
    assert generic_rank([X_BETA, X_AB, X_A2B]) == 2
    assert generic_rank([]) == 0


def test_mat4_json_roundtrip():
    m = T(Q(5, 3), -2) + X_AB * Q(-7, 11)
    assert Mat4.from_json(m.to_json()) == m
    for grid in ([["1"] * 4] * 3, [["1"] * 4] * 3 + [["1"] * 5]):
        for read in (Mat4, Mat4.from_json):
            with pytest.raises(ValueError, match="4x4 grid"):
                read(grid)
    with pytest.raises(ValueError, match="four row lists"):
        Mat4.from_json([["1"] * 4] * 3 + ["1234"])


# ---------------------------------------------------------------------------
# the integer kernel against the per-entry rational formulas
# ---------------------------------------------------------------------------

wide_rationals = st.builds(Q, st.integers(-60, 60), st.integers(1, 50))


@st.composite
def grids(draw, n=4):
    """n x n rational grids, either dense or mostly zero."""
    if draw(st.booleans()):
        entry = wide_rationals
    else:
        entry = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), wide_rationals)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def ref_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(4)), Q(0)) for j in range(4)]
            for i in range(4)]


def as_grid(m):
    return [list(r) for r in m.rows]


def assert_canonical(m):
    assert m.den > 0
    assert math.gcd(m.den, *m.num) == 1
    if m.is_zero():
        assert m.den == 1


@settings(max_examples=80, deadline=None)
@given(grids(), grids(), wide_rationals)
def test_kernel_matches_per_entry_formulas(a, b, q):
    ma, mb = Mat4(a), Mat4(b)
    expected = [
        (ma * mb, ref_mul(a, b)),
        (ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        (ma - mb, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        (-ma, [[-x for x in r] for r in a]),
        (ma * q, [[x * q for x in r] for r in a]),
        (q * ma, [[q * x for x in r] for r in a]),
        (ma * 0, [[Q(0)] * 4 for _ in range(4)]),
        (ma.transpose(), [[a[j][i] for j in range(4)] for i in range(4)]),
        (ma - ma, [[Q(0)] * 4 for _ in range(4)]),
    ]
    for got, want in expected:
        assert as_grid(got) == want
        assert_canonical(got)
    assert ma.trace() == a[0][0] + a[1][1] + a[2][2] + a[3][3]
    assert ma.is_zero() == all(x == 0 for r in a for x in r)
    assert [ma.entry(i, j) for i in range(4) for j in range(4)] == list(ma.flatten())


@settings(max_examples=60, deadline=None)
@given(grids(), grids())
def test_bracket_matches_the_fraction_oracle(a, b):
    x, y = Mat4(a), Mat4(b)
    got = bracket(x, y)
    assert got == bracket_fraction(x, y) == x * y - y * x
    assert_canonical(got)
    assert bracket(x, x) == Mat4.zero()


@settings(max_examples=60, deadline=None)
@given(grids(), st.integers(1, 30))
def test_equal_values_give_equal_matrices(a, k):
    m = Mat4(a)
    assert_canonical(m)
    assert Mat4(m.rows) == m
    assert Mat4([m.flatten()[i:i + 4] for i in (0, 4, 8, 12)]) == m
    assert Mat4.from_json(m.to_json()) == m
    # the same value from unreduced numerators, or a detour through sums
    # and scalar multiples, is the same matrix with the same hash
    others = [Mat4._make([x * k for x in m.num], m.den * k),
              (m * Q(k, 7)) * Q(7, k), m + m - m, -(-m)]
    for other in others:
        assert other == m and hash(other) == hash(m)
        assert_canonical(other)
    assert Mat4.zero().den == 1 and Mat4.zero() == Mat4([[0] * 4] * 4)
    assert m + Mat4.identity() != m


@st.composite
def singular_grids(draw, n=4):
    """n x n rational grids whose last row is a combination of the others."""
    a = draw(grids(n))
    cs = [draw(st.integers(-3, 3)) for _ in range(n - 1)]
    a[-1] = [sum((c * r[j] for c, r in zip(cs, a)), Q(0)) for j in range(n)]
    return a


@st.composite
def nilpotent_grids(draw, n=4):
    """Strictly upper triangular n x n grids conjugated by a few integer
    shears I + c E_ij (inverse I - c E_ij) and a permutation."""
    a = draw(grids(n))
    a = [[x if j > i else Q(0) for j, x in enumerate(r)] for i, r in enumerate(a)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]  # row i += c row j
        for r in a:  # column j -= c column i
            r[j] -= c * r[i]
    p = draw(st.permutations(range(n)))
    return [[a[p[i]][p[j]] for j in range(n)] for i in range(n)]


_GRIDS = {"any": grids, "singular": singular_grids, "nilpotent": nilpotent_grids}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_GRIDS)), st.data())
def test_int_char_poly_matches_cofactor_determinant(kind, data):
    for n in range(1, 8):
        a = data.draw(_GRIDS[kind](n))
        num, den = _over_common_den([x for r in a for x in r])
        want = char_poly_det(a)
        assert _char_poly_int([num[i * n:(i + 1) * n] for i in range(n)], den) == want
        if n == 4:  # the 4x4 kernel reads its traces off the flat grid
            assert char_poly(Mat4(a)) == want
        if kind == "singular":
            assert want[0] == 0
        if kind == "nilpotent":
            assert want == Poly([0] * n + [1])
