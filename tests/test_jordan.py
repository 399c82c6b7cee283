import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable.errors import (IrrationalSpectrum, NotInBorel, NotInSp4,
                                NotSemisimple)
from sp4solvable import jordan, linalg, sp4
from sp4solvable.cli import main
from sp4solvable.jordan import (JordanDecomposition, OrbitLabel, _eigen_pair, classify_element,
                                conjugate_ss_into_cartan, jordan_decompose, jordan_type)
from sp4solvable.linalg import Mat4, Poly, _sp4_coords, _sp4_square, inverse, rational_roots
from sp4solvable.rational import Q, ZERO
from sp4solvable.sp4 import (T, X_A2B, X_AB, X_ALPHA, X_BETA, _weyl_pairs, conjugate,
                             in_sp4, parse_conjugator, shear)

from conftest import (conjugator_pool, random_borel_element,
                      random_sp4_element, sp4_recipes)
from oracles import char_poly_cofactor, is_jordan_decomposition, jordan_newton


def test_jordan_decompose_examples():
    d = jordan_decompose(T(1, 0) + X_ALPHA)
    assert d.semisimple == T(1, 0) and d.nilpotent == X_ALPHA
    d = jordan_decompose(X_BETA)
    assert d.semisimple == Mat4.zero() and d.nilpotent == X_BETA
    d = jordan_decompose(T(2, 1))
    assert d.semisimple == T(2, 1) and d.nilpotent == Mat4.zero()


def test_jordan_invariants_on_random_borel(rng):
    for _ in range(150):
        x = random_borel_element(rng)
        d = jordan_decompose(x)
        assert is_jordan_decomposition(d, x)
        assert in_sp4(d.semisimple) and in_sp4(d.nilpotent)


def test_the_decomposition_oracle_rejects_each_broken_property():
    zero = Mat4.zero()
    # s + n is not x; s and n do not commute; n is not nilpotent; s is not semisimple
    assert not is_jordan_decomposition(JordanDecomposition(T(1, 0), X_BETA), T(1, 0))
    assert not is_jordan_decomposition(JordanDecomposition(T(1, 0), X_BETA), T(1, 0) + X_BETA)
    assert not is_jordan_decomposition(JordanDecomposition(zero, T(1, 0)), T(1, 0))
    assert not is_jordan_decomposition(JordanDecomposition(X_ALPHA, zero), X_ALPHA)
    assert is_jordan_decomposition(JordanDecomposition(zero, X_ALPHA), X_ALPHA)


def test_is_semisimple_examples():
    d = jordan_decompose(T(1, 1) + X_BETA)
    assert not d.nilpotent.is_zero() and not d.semisimple.is_zero()
    assert jordan_decompose(X_ALPHA + X_BETA).semisimple.is_zero()
    assert jordan_decompose(T(1, -1)).nilpotent.is_zero()
    # distinct-eigenvalue mixed-looking sums are semisimple
    assert jordan_decompose(T(2, 1) + X_A2B).nilpotent.is_zero()


def test_jordan_type_examples():
    assert jordan_type(X_ALPHA + X_BETA) == {ZERO: [4]}
    assert jordan_type(X_BETA) == {ZERO: [2, 2]}
    assert jordan_type(X_ALPHA) == {ZERO: [2, 1, 1]}
    assert jordan_type(T(1, 0) + X_ALPHA) == {ZERO: [2], Q(1): [1], Q(-1): [1]}
    with pytest.raises(IrrationalSpectrum):
        jordan_type(T(1, 0) + X_A2B * 0 + Mat4([[0, 0, 2, 0], [0, 0, 0, 0],
                                                [1, 0, 0, 0], [0, 0, 0, 0]]))


def test_jordan_type_conjugation_invariant(rng):
    pool = conjugator_pool(rng, 10)
    for _ in range(25):
        x = random_borel_element(rng)
        jt = jordan_type(x)
        assert sum(sum(sizes) for sizes in jt.values()) == 4
        for g in pool[:5]:
            assert jordan_type(g * x * inverse(g)) == jt


def test_jordan_type_invariant_under_general_invertible(rng):
    # block data is invariant under arbitrary invertible rational conjugation,
    # not just symplectic ones
    for _ in range(15):
        x = random_borel_element(rng)
        jt = jordan_type(x)
        for _ in range(3):
            g = Mat4([[Q(rng.randint(-2, 2)) + (10 if i == j else 0)
                       for j in range(4)] for i in range(4)])
            assert jordan_type(g * x * inverse(g)) == jt


def test_classify_element_examples():
    assert classify_element(Mat4.diag(2, 3, -2, -3)) == OrbitLabel(
        1, "T_ab", {"a": Q(2), "b": Q(3)})
    assert classify_element(X_A2B) == OrbitLabel(2, "X_alpha", {})
    assert classify_element((T(1, 1) + X_BETA) * 5) == OrbitLabel(
        2, "T_aa_plus_X_beta", {"a": Q(5)})
    assert classify_element(T(0, Q(7, 3))) == OrbitLabel(1, "T_a0", {"a": Q(7, 3)})
    assert classify_element(Mat4.zero()) == OrbitLabel(1, "zero", {})
    assert classify_element(T(1, 0) + X_ALPHA) == OrbitLabel(
        2, "T_a0_plus_X_alpha", {"a": Q(1)})
    with pytest.raises(NotInSp4):
        classify_element(Mat4.diag(1, 0, 0, 0))


def test_classify_weyl_normalization():
    # all eight Weyl translates of (2,3) get the same canonical label
    lab = classify_element(T(2, 3))
    for a, b in ((3, 2), (-2, 3), (2, -3), (-3, -2), (3, -2)):
        assert classify_element(T(a, b)) == lab


def test_classify_conjugation_invariance(rng):
    pool = conjugator_pool(rng, 12)
    for _ in range(30):
        x = random_borel_element(rng)
        lab = classify_element(x)
        for g in pool[:6]:
            assert classify_element(g * x * inverse(g)) == lab


_NILPOTENT_BY_BLOCKS = {(2, 1, 1): "X_alpha", (2, 2): "X_beta",
                        (4,): "X_alpha_plus_X_beta"}


def _size_key(q):
    """Size then sign: (|n|*d, |n|, sign) of q = n/d."""
    return (abs(q.numerator) * q.denominator, abs(q.numerator), q < 0)


def _weyl_canonical(a, b):
    """The Weyl image of (a, b) that is least by size key, entry by entry."""
    return min(_weyl_pairs(a, b), key=lambda p: (_size_key(p[0]), _size_key(p[1])))


def _reference_label(x):
    """The conjugacy-table row from the Newton decomposition (the oracle,
    not the closed form, which reads the same traces as classify_element),
    Jordan block sizes and a search of the 8 Weyl images, independent of
    classify_element's reading of the eigenvalue pair."""
    dec = jordan_newton(x)
    s, n = dec.semisimple, dec.nilpotent
    if s.is_zero():
        if n.is_zero():
            return OrbitLabel(1, "zero", {})
        return OrbitLabel(2, _NILPOTENT_BY_BLOCKS[tuple(jordan_type(x)[ZERO])], {})
    # S is semisimple with spectrum {a, b, -a, -b}: the two largest
    # eigenvalues are a pair (a, b) with a, b >= 0
    vals = sorted(lam for lam, sizes in jordan_type(s).items() for _ in sizes)
    a, b = _weyl_canonical(vals[3], vals[2])
    if n.is_zero():
        if a == 0 and b == 0:
            return OrbitLabel(1, "zero", {})
        if a == 0 or b == 0:
            return OrbitLabel(1, "T_a0", {"a": abs(a + b)})
        if a == b or a == -b:
            return OrbitLabel(1, "T_aa", {"a": abs(a)})
        return OrbitLabel(1, "T_ab", {"a": a, "b": b})
    if a == 0 or b == 0:
        return OrbitLabel(2, "T_a0_plus_X_alpha", {"a": abs(a + b)})
    return OrbitLabel(2, "T_aa_plus_X_beta", {"a": abs(a)})


def _label_or_error(classify, x):
    try:
        return classify(x)
    except IrrationalSpectrum:
        return IrrationalSpectrum


def test_char_poly_facts_match_newton_oracle(rng):
    pool = conjugator_pool(rng, 12)
    xs = [conjugate(g, random_borel_element(rng)) for g in pool for _ in range(8)]
    xs += [random_sp4_element(rng) for _ in range(80)]
    irrational = 0
    for x in xs:
        want = _label_or_error(_reference_label, x)
        assert _label_or_error(classify_element, x) == want
        irrational += want is IrrationalSpectrum
    assert 0 < irrational < len(xs)


def test_classify_element_reads_one_trace_product(monkeypatch):
    # the row is read off one membership read of the ten coordinates and one
    # square kernel on them; only the b = 0 rows take the cube as well; no
    # 4x4 product is made, no polynomial is built and nothing is
    # decomposed or echelonized
    calls = {"coords": [], "square": [], "cube": []}
    real = {"coords": jordan._sp4_coords, "square": jordan._sp4_square,
            "cube": jordan._sp4_cube}

    def counting(name):
        def call(*args):
            calls[name].append(args)
            return real[name](*args)
        return call

    def forbidden(*args):
        raise AssertionError("classify_element did product, polynomial, decomposition or "
                             "elimination work")

    cases = ((T(2, 3), "T_ab", 0), (X_ALPHA, "X_alpha", 0), (X_BETA, "X_beta", 0),
             (X_ALPHA + X_BETA, "X_alpha_plus_X_beta", 0), (Mat4.zero(), "zero", 0),
             (T(1, 1), "T_aa", 0), (T(1, 0), "T_a0", 1),
             (T(1, 1) + X_BETA, "T_aa_plus_X_beta", 0),
             (T(1, 0) + X_ALPHA, "T_a0_plus_X_alpha", 1),
             (conjugate(parse_conjugator("shear:beta:2 W"), T(Q(3, 2), 0) + X_ALPHA),
              "T_a0_plus_X_alpha", 1))
    monkeypatch.setattr(jordan, "_sp4_coords", counting("coords"))
    monkeypatch.setattr(jordan, "_sp4_square", counting("square"))
    monkeypatch.setattr(jordan, "_sp4_cube", counting("cube"))
    for module, name in ((jordan, "char_poly"), (jordan, "rational_roots"), (Poly, "_make"),
                         (jordan, "jordan_decompose"), (jordan, "rank"), (linalg, "rref"),
                         (linalg, "_mul_num"), (sp4, "_mul_num"), (Mat4, "__mul__"),
                         (Mat4, "__rmul__")):
        monkeypatch.setattr(module, name, forbidden)
    for x, row, n_cubes in cases:
        for v in calls.values():
            v.clear()
        assert classify_element(x).row == row
        assert calls["coords"] == [(x,)]
        assert calls["square"] == [(_sp4_coords(x),)]
        assert len(calls["cube"]) == n_cubes


# a table-row representative with small rational parameters, conjugated by a
# `parse_conjugator` recipe, or a Levi element diag(A, -A^t) of a small int
# block A, most of which have an irrational or complex pair
_q = st.builds(Q, st.integers(-9, 9), st.integers(1, 4))
_TABLE_ELEMENTS = st.builds(
    lambda a, b, k, recipe: conjugate(parse_conjugator(recipe), (
        T(a, b), T(a, 0), T(a, a), T(a, -a), X_ALPHA * a, X_BETA * a, X_ALPHA + X_BETA * a,
        T(a, 0) + X_ALPHA * b, T(a, a) + X_BETA * b)[k]),
    _q, _q, st.integers(0, 8), sp4_recipes)
_LEVI_ELEMENTS = st.lists(st.integers(-4, 4), min_size=4, max_size=4).map(
    lambda v: _levi([v[:2], v[2:]]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_TABLE_ELEMENTS, _LEVI_ELEMENTS))
def test_the_pair_from_two_traces_is_the_cofactor_char_poly_roots(x):
    p = char_poly_cofactor(x)
    roots = rational_roots(p)
    _, t2, t4 = _sp4_square(_sp4_coords(x))
    assert (t2 == t4 == 0) == (p == Poly([0, 0, 0, 0, 1]))
    if sum(roots.values()) < 4:
        with pytest.raises(IrrationalSpectrum, match="irrational eigenvalues"):
            _eigen_pair(t2, t4, x.den)
    else:
        # the spectrum is {-a, -b, b, a} with a >= b >= 0
        spectrum = sorted(lam for lam, mult in roots.items() for _ in range(mult))
        assert _eigen_pair(t2, t4, x.den) == (spectrum[3], spectrum[2])


# examples of all 9 labels classify_element returns (zero and the three
# semisimple rows of table 1, the five rows of table 2), T_ab four times
_LABEL_EXAMPLES = [
    (T(0, 0), OrbitLabel(1, "zero", {})),
    (T(Q(-5, 2), 0), OrbitLabel(1, "T_a0", {"a": Q(5, 2)})),
    (T(Q(4, 3), Q(-4, 3)), OrbitLabel(1, "T_aa", {"a": Q(4, 3)})),
    # (|n|*d, |n|) is (6, 3) for 3 and (2, 1) for 1/2, so 1/2 comes first
    (T(3, Q(1, 2)), OrbitLabel(1, "T_ab", {"a": Q(1, 2), "b": Q(3)})),
    (T(Q(5, 4), Q(-2, 3)), OrbitLabel(1, "T_ab", {"a": Q(2, 3), "b": Q(5, 4)})),
    (T(3, 2) + X_A2B * 7, OrbitLabel(1, "T_ab", {"a": Q(2), "b": Q(3)})),
    (X_ALPHA * Q(-3, 5), OrbitLabel(2, "X_alpha", {})),
    (X_BETA * 4, OrbitLabel(2, "X_beta", {})),
    (X_ALPHA * 2 + X_BETA * Q(1, 3), OrbitLabel(2, "X_alpha_plus_X_beta", {})),
    (T(Q(7, 2), 0) + X_ALPHA * -1, OrbitLabel(2, "T_a0_plus_X_alpha", {"a": Q(7, 2)})),
    (T(-6, -6) + X_BETA * Q(2, 9), OrbitLabel(2, "T_aa_plus_X_beta", {"a": Q(6)})),
    # two large primes: the pair comes from integer square roots, with no factoring
    (T(1000000009, 1000000007),
     OrbitLabel(1, "T_ab", {"a": Q(1000000007), "b": Q(1000000009)})),
]


def _levi(a):
    """The sp(4) element diag(a, -a^t) of the Levi block gl(2)."""
    (p, q), (r, s) = a
    return Mat4([[p, q, 0, 0], [r, s, 0, 0], [0, 0, -p, -r], [0, 0, -q, -s]])


# char polys l^4 + c2 l^2 + c0 whose pair (a, b) is not rational, with the
# roots mu = a^2, b^2 of mu^2 + c2 mu + c0
_IRRATIONAL_PAIRS = {
    # a rotation block: mu = -1 twice, a complex spectrum +-i
    "complex": _levi([[0, -1], [1, 0]]),
    # mu = 2 twice: rational, but not a square
    "non-square mu": _levi([[0, 2], [1, 0]]),
    # mu^2 - 3 mu + 1, discriminant 5: eigenvalues (+-1 +- sqrt 5) / 2
    "non-square discriminant": _levi([[1, 1], [1, 0]]),
    # mu = 1 and mu = -1: a = 1 is rational, b = i is not
    "one complex mu": T(1, 0) + X_ALPHA - Mat4.unit(4, 2),
}


@pytest.mark.parametrize("name", _IRRATIONAL_PAIRS)
def test_classify_element_refuses_an_irrational_pair(name, rng):
    x = _IRRATIONAL_PAIRS[name]
    for y in [x] + [conjugate(g, x * 3) for g in conjugator_pool(rng, 3)]:
        assert in_sp4(y)
        with pytest.raises(IrrationalSpectrum, match="irrational eigenvalues"):
            classify_element(y)
        with pytest.raises(IrrationalSpectrum):
            jordan_type(y)


@pytest.mark.parametrize("x, want", _LABEL_EXAMPLES,
                         ids=[f"{w.row}-{i}" for i, (_, w) in enumerate(_LABEL_EXAMPLES)])
def test_one_element_per_label_scaled_and_conjugated(x, want, rng):
    assert classify_element(x) == want
    for g in conjugator_pool(rng, 4):
        for s in (1, -1, Q(3, 7)):
            y = conjugate(g, x * s)
            got = classify_element(y)
            assert got == _reference_label(y)
            # scaling scales the pair, whose Weyl-normal order may change
            assert (got.table, got.row) == (want.table, want.row)
            assert sorted(got.params.values()) == sorted(v * abs(s) for v in want.params.values())


def test_the_examples_cover_every_label():
    assert len({w.row for _, w in _LABEL_EXAMPLES}) == 9


_E13_E24 = Mat4.unit(1, 3) + Mat4.unit(2, 4)
# nilpotent elements of every rank: the root vectors, the negative ones (whose
# first nonzero entry is below row 0), and the Siegel radical [[0, S], [0, 0]]
# at S = I (rank 2) and S = [[1, 1], [1, 1]] (rank 1)
_NILPOTENTS = (Mat4.zero(), X_ALPHA, X_A2B, X_BETA, X_AB, X_ALPHA + X_BETA, _E13_E24,
               _E13_E24 + X_AB, X_ALPHA.transpose(), X_BETA.transpose(),
               X_ALPHA.transpose() + X_BETA.transpose(), X_A2B.transpose() + X_AB * 3)
_NILPOTENT_ROWS = ("zero", "X_alpha", "X_beta", "X_alpha_plus_X_beta")


def test_the_nilpotent_rank_is_the_rank_by_elimination(rng, tmp_path, capsys):
    recipes = ("W A", "shear:beta:2 J", "glblock:1,2,3,4 shear:alpha_plus_beta:-1",
               "block:2,1,1,1 W", "diag:3,1/2,1/3,2 AJ")
    pool = conjugator_pool(rng, 4) + [parse_conjugator(r) for r in recipes]
    seen = set()
    for x in _NILPOTENTS:
        for y in [x] + [conjugate(g, x * s) for g in pool for s in (-1, Q(3, 7))]:
            assert in_sp4(y)
            m = y.num
            r = jordan._nilpotent_rank(m, _sp4_square(_sp4_coords(y))[0])
            assert r == linalg.rank(y)
            seen.add(r)
            path = tmp_path / "x.json"
            path.write_text(json.dumps(y.to_json()))
            assert main(["classify-element", "--input", str(path), "--output", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["row"] == _NILPOTENT_ROWS[r]
    assert seen == {0, 1, 2, 3}


def test_three_nilpotent_orbits_match_jcf_column():
    reps = {"X_alpha": ([2, 1, 1], X_ALPHA),
            "X_beta": ([2, 2], X_BETA),
            "X_alpha_plus_X_beta": ([4], X_ALPHA + X_BETA)}
    for row, (jcf, x) in reps.items():
        assert jordan_type(x)[ZERO] == jcf
        assert classify_element(x).row == row


def test_conjugate_ss_into_cartan():
    x = T(2, 1) + X_A2B
    g, (a, b) = conjugate_ss_into_cartan(x)
    assert conjugate(g, x) == T(a, b) == T(2, 1)
    # already diagonal
    g, (a, b) = conjugate_ss_into_cartan(T(1, -1))
    assert g == Mat4.identity() and (a, b) == (1, -1)
    # c T_{b,1} + d X_alpha with the shear z = d/(c alpha(T))
    x = T(2, 1) + X_ALPHA * 3
    g, _ = conjugate_ss_into_cartan(x)
    assert g == shear("alpha", Q(3, 2))
    assert conjugate(g, x) == T(2, 1)
    # multi-root sweep
    x = T(1, 0) + X_BETA + X_AB * 2 + X_A2B * 7
    g, (a, b) = conjugate_ss_into_cartan(x)
    assert conjugate(g, x) == T(1, 0)


def test_conjugate_ss_into_cartan_errors():
    with pytest.raises(NotSemisimple):
        conjugate_ss_into_cartan(T(1, 1) + X_BETA)
    # a component at a root vanishing on T, below nonzero higher ones that
    # the sweep clears: it is left at the end
    for x in (T(1, 1) + X_BETA + X_A2B, T(1, -1) + X_AB + X_A2B):
        with pytest.raises(NotSemisimple):
            conjugate_ss_into_cartan(x)
    # a negative root vector, and a diagonal matrix outside sp(4)
    for x in (X_BETA.transpose() * 1, Mat4.unit(1, 1)):
        with pytest.raises(NotInBorel):
            conjugate_ss_into_cartan(x)


def test_cartan_reduction_conjugator_is_in_borel_subgroup(rng):
    from sp4solvable.sp4 import in_sp4_group
    borel_zero = [(1, 0), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1)]
    checked = 0
    for _ in range(40):
        x = random_borel_element(rng)
        try:
            g, _ = conjugate_ss_into_cartan(x)
        except NotSemisimple:
            continue
        checked += 1
        assert in_sp4_group(g)
        # upper Borel pattern: rows 3/4 vanish left of the diagonal block,
        # row 3 also right of it (the lower-right block is lower triangular)
        for i, j in borel_zero:
            assert g.entry(i, j) == 0
    assert checked >= 10


def test_cartan_reduction_second_assertion(rng):
    # if x = T + N (t-part T), the output diagonal equals T
    for _ in range(40):
        x = random_borel_element(rng)
        ta, tb = x.entry(0, 0), x.entry(1, 1)
        try:
            g, (a, b) = conjugate_ss_into_cartan(x)
        except NotSemisimple:
            continue
        assert (a, b) == (ta, tb)
        assert conjugate(g, x) == T(ta, tb)


# ---------------------------------------------------------------------------
# the closed-form decomposition against the Newton oracle
# ---------------------------------------------------------------------------

def _imaginary_aa(p, q, k, c):
    """diag(B, -B^t) + [[0, c B J2], [0, 0]], J2 = [[0, 1], [-1, 0]], for
    B = [[p, q], [r, -p]] with B^2 = -k I (q != 0): char poly (l^2 + k)^2,
    so tr x^2 = -4k < 0, and for c != 0 a nonzero nilpotent part, which
    commutes with the Levi part as B J2 B^t = det(B) J2 = k J2."""
    r = Q(-k - p * p, q)
    return Mat4([[p, q, -c * q, c * p], [r, -p, c * p, c * r],
                 [0, 0, -p, -r], [0, 0, -q, p]])


def _imaginary_a0(k, c):
    """E13 - k E31 + c X_alpha: eigenvalues +-i sqrt(k), 0, 0, so
    tr x^2 = -2k < 0, with the nilpotent part c X_alpha."""
    return X_A2B - X_A2B.transpose() * k + X_ALPHA * c


_k = st.integers(1, 7)
_BOREL_ELEMENTS = st.builds(
    lambda a, b, cs: T(a, b) + X_ALPHA * cs[0] + X_BETA * cs[1] + X_AB * cs[2] + X_A2B * cs[3],
    _q, _q, st.lists(_q, min_size=4, max_size=4))
_JORDAN_CASES = st.builds(
    lambda x, recipe: conjugate(parse_conjugator(recipe), x),
    st.one_of(st.builds(lambda a, c: T(a, 0) + X_ALPHA * c, _q, _q),
              st.builds(lambda a, c: T(a, a) + X_BETA * c, _q, _q),
              _BOREL_ELEMENTS,
              st.builds(lambda n, c: n * c, st.sampled_from(_NILPOTENTS), _q),
              _LEVI_ELEMENTS,
              st.builds(_imaginary_aa, st.integers(-3, 3), st.integers(-3, 3).filter(bool), _k,
                        _q),
              st.builds(_imaginary_a0, _k, _q)),
    sp4_recipes)


@settings(max_examples=300, deadline=None)
@given(_JORDAN_CASES)
def test_the_closed_form_is_the_newton_decomposition(x):
    assert jordan_decompose(x) == jordan_newton(x)


@pytest.mark.parametrize("x, p", [
    (_imaginary_aa(0, -2, 2, 1), Poly([4, 0, 4, 0, 1])),   # (l^2 + 2)^2
    (_imaginary_aa(1, 2, 3, Q(-1, 2)), Poly([9, 0, 6, 0, 1])),  # (l^2 + 3)^2
    (_imaginary_a0(2, 3), Poly([0, 0, 2, 0, 1]))])   # l^2 (l^2 + 2)
def test_an_imaginary_pair_gets_a_positive_denominator(x, p, rng):
    # a^2 < 0: tr x^2 < 0, the closed form's denominator is made positive
    assert char_poly_cofactor(x) == p and _sp4_square(_sp4_coords(x))[1] < 0
    for g in [Mat4.identity()] + conjugator_pool(rng, 6):
        y = conjugate(g, x)
        dec = jordan_decompose(y)
        assert dec == jordan_newton(y) and not dec.nilpotent.is_zero()
        assert is_jordan_decomposition(dec, y)


def test_jordan_decompose_refuses_a_matrix_outside_sp4():
    for x in (Mat4.unit(1, 1), Mat4.identity(), Mat4.unit(1, 2)):
        assert not in_sp4(x)
        with pytest.raises(NotInSp4):
            jordan_decompose(x)
