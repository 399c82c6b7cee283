from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable.errors import DependentInputs, IrrationalSpectrum, NotSolvable, Sp4Error
from sp4solvable.invariants import (_eigenvalue_on_line, _invariantize, nilpotent_subspace,
                                   pencil_rank_strata, signature)
from sp4solvable.catalog import load_catalog
from sp4solvable.linalg import Mat4, _char_poly_int, det_mpoly, echelon_span, generic_rank, rank
from sp4solvable.rational import Q
from sp4solvable.sp4 import (A_MAT, T, W_MAT, X_A2B, X_AB, X_ALPHA, X_BETA,
                             conjugate_subalgebra, shear, standard_subalgebra)
from sp4solvable.structure import Subalgebra, _ad_num, generated_subalgebra

from conftest import conjugator_pool, random_borel_element
from oracles import (bracket_coords_fraction, char_poly_det, fraction_rows, grid_pencil_ranks,
                     solve_in_span, symbolic_combo, trace_form_radical)


def alg(*mats):
    return Subalgebra.from_matrices(list(mats))


def test_pencil_examples_from_the_rank_line_arguments():
    s = pencil_rank_strata(X_ALPHA, X_A2B)
    assert s.generic_rank == 2
    assert s.rational_drops == ((Q(0), 1),)
    assert s.infinity_rank == 1
    assert s.drop_line_count(1) == 2          # two rank-1 lines

    s = pencil_rank_strata(X_ALPHA, X_AB)
    assert s.generic_rank == 2
    assert s.rational_drops == ()
    assert s.infinity_rank == 1               # only one rank-1 line
    assert s.drop_line_count(1) == 1

    s = pencil_rank_strata(X_AB, X_A2B)
    assert s.generic_rank == 2
    assert s.drop_line_count(1) == 1          # single rank-1 line

    with pytest.raises(DependentInputs):
        pencil_rank_strata(X_ALPHA, X_ALPHA * 3)


def test_pencil_refuses_a_pair_outside_the_nilpotent_pencils_of_sp4():
    # t*T(1, 0) + X_alpha is semisimple at t != 0; t*(E12 + E23) + E13 is a
    # gl(4) nilpotent of type [3, 1], an orbit sp(4) does not have
    for n1, n2 in [(T(1, 0), X_ALPHA),
                   (Mat4.unit(1, 2) + Mat4.unit(2, 3), Mat4.unit(1, 3))]:
        with pytest.raises(Sp4Error, match="nilpotent pencil in sp"):
            pencil_rank_strata(n1, n2)


def test_pencil_matches_grid_oracle():
    pairs = [(X_ALPHA, X_A2B), (X_ALPHA, X_AB), (X_AB, X_A2B),
             (X_BETA + X_ALPHA, X_A2B), (X_BETA, X_A2B),
             (X_ALPHA + X_AB, X_A2B - X_ALPHA)]
    for n1, n2 in pairs:
        strata = pencil_rank_strata(n1, n2)
        grid = grid_pencil_ranks(n1, n2)
        drops = dict(strata.rational_drops)
        for t, r in grid.items():
            if t == "inf":
                expected = (strata.infinity_rank
                            if strata.infinity_rank is not None
                            else strata.generic_rank)
                assert r == expected
            elif t in drops:
                assert r == drops[t]
            else:
                assert r == strata.generic_rank
        assert max(grid.values()) == strata.generic_rank


def test_nilpotent_subspace():
    g = alg(T(1, 0), X_ALPHA)
    assert nilpotent_subspace(g) == echelon_span([X_ALPHA])
    g = alg(T(1, 0) + X_ALPHA, X_AB)
    assert nilpotent_subspace(g) == echelon_span([X_AB])
    n = Subalgebra(standard_subalgebra("n"))
    assert nilpotent_subspace(n).dim == 4
    t = Subalgebra(standard_subalgebra("t"))
    assert nilpotent_subspace(t).dim == 0


def test_nilpotent_subspace_irrational_spectrum():
    # eigenvalues +-1, +-i (char poly t^4 - 1): tr(x^2) = 0, so the trace
    # radical contains a non-nilpotent element and must be rejected
    weird = Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    g = Subalgebra.from_matrices([weird])
    with pytest.raises(IrrationalSpectrum):
        nilpotent_subspace(g)


def test_nilpotent_subspace_contains_all_nilpotents(rng):
    # N(g) is exactly the nilpotent elements: random combinations are
    # nilpotent iff they reduce into the trace-form radical
    cases = [alg(T(0, 1), X_BETA, X_AB, X_A2B),
             alg(T(2, 1), X_ALPHA, X_AB, X_A2B),
             alg(T(1, 1) + X_BETA, X_ALPHA, X_AB, X_A2B)]
    for g in cases:
        nsp = nilpotent_subspace(g)
        for _ in range(30):
            v = [Q(rng.randint(-3, 3)) for _ in range(g.dim)]
            x = g.space.combine(v)
            m4 = x * x * x * x
            assert m4.is_zero() == nsp.contains(x)


small = st.integers(-2, 2)


@st.composite
def radical_cases(draw):
    """A Borel subalgebra generated by one or two random elements and moved
    by a product of Weyl elements and rational shears (so its echelon basis
    may have denominators); or the line of a random sp(4) element
    [[A, B], [C, -A^T]], whose trace radical may hold a non-nilpotent
    element; or the subalgebra two of them generate, which need not be
    solvable."""
    kind = draw(st.sampled_from(["borel", "borel", "line", "pair"]))
    if kind == "borel":
        seeds = []
        for _ in range(draw(st.integers(1, 2))):
            m = T(draw(small), draw(small))
            for x in (X_ALPHA, X_BETA, X_AB, X_A2B):
                m = m + x * draw(small)
            seeds.append(m)
        g = Mat4.identity()
        for _ in range(draw(st.integers(0, 3))):
            atom = draw(st.sampled_from(["W", "A", "alpha", "beta", "alpha_plus_beta"]))
            g = g * ({"W": W_MAT, "A": A_MAT}.get(atom)
                     or shear(atom, Q(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))))
        return Subalgebra(conjugate_subalgebra(g, generated_subalgebra(seeds).space))
    mats = []
    for _ in range(1 if kind == "line" else 2):
        a, b, c = ([[draw(small) for _ in range(2)] for _ in range(2)] for _ in range(3))
        b[1][0], c[1][0] = b[0][1], c[0][1]  # B and C symmetric
        if draw(st.booleans()):  # A = 0: then tr(x^2) = 2 tr(BC) often vanishes
            a = [[0, 0], [0, 0]]
        mats.append(Mat4([a[0] + b[0], a[1] + b[1],
                          c[0] + [-a[0][0], -a[1][0]], c[1] + [-a[0][1], -a[1][1]]]))
    return generated_subalgebra(mats)


def _radical_or_refusal(f, g):
    try:
        return f(g)
    except (NotSolvable, IrrationalSpectrum) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(radical_cases())
def test_nilpotent_subspace_matches_the_fraction_gram_oracle(g):
    assert (_radical_or_refusal(nilpotent_subspace, g)
            == _radical_or_refusal(trace_form_radical, g))


def test_eigenvalue_on_line_reads_the_numerators():
    x = T(Q(1, 2), Q(1, 3))  # root values: alpha 2b = 2/3, alpha+beta a+b = 5/6
    assert _eigenvalue_on_line(x, X_ALPHA * Q(2, 3)) == Q(2, 3)
    assert _eigenvalue_on_line(x, X_AB * Q(-5, 7)) == Q(5, 6)
    assert _eigenvalue_on_line(x, X_A2B) == 1
    with pytest.raises(Sp4Error, match="not ad-invariant"):
        _eigenvalue_on_line(x, X_ALPHA + X_BETA)


def test_a_toral_rank_above_two_is_refused():
    # the diagonal of gl(4) is abelian of toral rank 4; sp(4) has rank 2
    diagonal = Subalgebra(echelon_span([Mat4.unit(i, i) for i in range(1, 5)]))
    with pytest.raises(Sp4Error, match="toral rank > 2"):
        signature(diagonal)


def test_invariantize_marks_every_zero_of_an_all_zero_list():
    assert _invariantize([(0, 1), (Q(0), 2)]) == (("z", 1), ("z", 2))


def test_ss_content_classes():
    assert signature(alg(T(1, 0), T(0, 1), X_ALPHA, X_AB, X_A2B)).ss_content == "has_cartan"
    assert signature(alg(T(5, 1), X_BETA)).ss_content == "has_regular_ss"
    assert signature(alg(T(1, 1), X_BETA)).ss_content == "has_nonregular_ss_only"
    assert signature(alg(T(1, 0) + X_ALPHA, X_AB)).ss_content == "mixed_only"
    assert signature(Subalgebra(standard_subalgebra("n_p"))).ss_content == "all_nilpotent"


def test_signature_fields():
    s = signature(alg(T(1, 1) + X_BETA, X_A2B))
    assert s.contains_invertible and s.ss_content == "mixed_only"
    s = signature(alg(T(1, 0) + X_ALPHA, X_AB))
    assert not s.contains_invertible
    s = signature(alg(T(1, 1), X_BETA))
    assert s.is_abelian
    s = signature(alg(X_ALPHA, X_A2B))
    assert s.is_nilpotent and s.nilpotent_dim == 2


def test_signature_separates_key_pairs():
    # abelian flag separates <T(1,0),X_a> from <T(0,1),X_a>
    s1 = signature(alg(T(1, 0), X_ALPHA))
    s2 = signature(alg(T(0, 1), X_ALPHA))
    assert "is_abelian" in s1.differing_fields(s2)
    # rank-1 line counts separate the two nilpotent planes
    s1 = signature(alg(X_ALPHA, X_AB))
    s2 = signature(alg(X_ALPHA, X_A2B))
    assert "nilpotent_strata" in s1.differing_fields(s2)
    # ad-eigenvalue data separates <T(0,1),X_a> from <T(0,1),X_b>
    s1 = signature(alg(T(0, 1), X_ALPHA))
    s2 = signature(alg(T(0, 1), X_BETA))
    assert "probe" in s1.differing_fields(s2)
    # parameter families: a = 2 vs 3 differ, a = 2 vs -2 agree (conjugate)
    s2a = signature(alg(T(2, 1), X_ALPHA))
    assert s2a.differing_fields(signature(alg(T(3, 1), X_ALPHA)))
    assert not s2a.differing_fields(signature(alg(T(-2, 1), X_ALPHA)))
    # <T_{a,1},X_b>: a ~ 1/a but not a ~ -a
    s2b = signature(alg(T(2, 1), X_BETA))
    assert not s2b.differing_fields(signature(alg(T(Q(1, 2), 1), X_BETA)))
    assert s2b.differing_fields(signature(alg(T(-2, 1), X_BETA)))


def test_signature_conjugation_invariance(rng):
    rows = [alg(T(2, 1), X_ALPHA), alg(T(1, -1), X_ALPHA, X_A2B),
            alg(T(1, 1) + X_BETA, X_AB, X_A2B),
            alg(T(3, 1), X_ALPHA + X_BETA),
            alg(T(0, 1), X_ALPHA, X_AB, X_A2B),
            alg(X_BETA, X_ALPHA, X_AB, X_A2B),
            alg(X_ALPHA + X_BETA, X_AB, X_A2B),
            alg(T(1, 0), T(0, 1), X_ALPHA),
            alg(T(2, 1), X_BETA, X_AB, X_A2B)]
    pool = conjugator_pool(rng, 8)
    for row in rows:
        base = signature(row)
        for g in pool:
            img = Subalgebra(conjugate_subalgebra(g, row.space))
            assert signature(img) == base


def test_signature_on_random_generated(rng):
    pool = conjugator_pool(rng, 4)
    count = 0
    while count < 10:
        g = generated_subalgebra([random_borel_element(rng, span=2)])
        try:
            base = signature(g)
        except IrrationalSpectrum:
            continue
        count += 1
        for c in pool:
            img = Subalgebra(conjugate_subalgebra(c, g.space))
            assert signature(img) == base


def _has_invertible_by_determinant(s: Subalgebra) -> bool:
    """Oracle: the symbolic determinant over the basis is not identically 0."""
    return not det_mpoly(symbolic_combo(list(s.basis))).is_zero()


def test_contains_invertible_agrees_with_symbolic_determinant(rng):
    for e in load_catalog():
        for a in e.samples():
            s = Subalgebra(e.space_at(a))
            assert signature(s).contains_invertible == _has_invertible_by_determinant(s), \
                (e.row_id, a)
    pool = conjugator_pool(rng, 6)
    checked = 0
    while checked < 30:
        seeds = [random_borel_element(rng, span=2) for _ in range(rng.choice((1, 2)))]
        g = generated_subalgebra(seeds)
        s = Subalgebra(conjugate_subalgebra(rng.choice(pool), g.space))
        try:
            got = signature(s).contains_invertible
        except IrrationalSpectrum:
            continue
        checked += 1
        assert got == _has_invertible_by_determinant(s), [repr(b) for b in seeds]


def _max_grid_rank(mats) -> int:
    """Oracle: the largest rank of mats[0] + sum_{i>=1} c_i mats[i] over
    c in {0,...,4}^(d-1).  Exact: a nonzero minor of the generic
    combination, dehomogenized at t_0 = 1, has total degree <= 4, so it
    cannot vanish on a grid of side 5 (Schwartz, J. ACM 27, 1980)."""
    if not mats:
        return 0
    best = 0
    for cs in product(range(5), repeat=len(mats) - 1):
        m = mats[0]
        for c, x in zip(cs, mats[1:]):
            m = m + x * c
        best = max(best, rank(m))
    return best


def test_generic_rank_matches_the_grid_oracle(rng):
    spans = []
    for e in load_catalog():
        for a in e.samples():
            s = Subalgebra(e.space_at(a))
            spans.append(list(nilpotent_subspace(s).basis))
            if s.dim <= 4:
                spans.append(list(s.basis))
    for _ in range(50):
        spans.append([Mat4([[rng.randint(-2, 2) if rng.random() < 0.3 else 0
                             for _ in range(4)] for _ in range(4)])
                      for _ in range(rng.randint(1, 4))])
    assert len(spans) > 250
    for mats in spans:
        assert generic_rank(mats) == _max_grid_rank(mats), [repr(m) for m in mats]


def test_signatures_expand_no_minor(monkeypatch):
    """Pencil strata and generic ranks come from integer elimination: no
    signature of a catalog instance expands a determinant by cofactors."""
    from sp4solvable import linalg
    subs = [Subalgebra(e.space_at(a)) for e in load_catalog() for a in e.samples()]
    assert len(subs) == 120

    def refuse(*_):
        raise AssertionError("det_mpoly called")
    monkeypatch.setattr(linalg, "det_mpoly", refuse)
    strata = {sig.nilpotent_strata[0][0] for sig in map(signature, subs)
              if sig.nilpotent_strata}
    assert strata == {"rank", "pencil", "generic"}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_the_probe_char_poly_on_the_derived_algebra_reads_ints(rnd, data):
    # the probe's int route: ad(y) on [g, g] read at the pivots of the int
    # series rows, against the cofactor char poly of ad(y) solved by
    # `Fraction` elimination on the RREF rows
    g = generated_subalgebra([random_borel_element(rnd) for _ in range(rnd.randint(1, 2))])
    sc, d = g.constants, g.dim
    if len(g.derived) < 2 or not g.derived[1]:
        return
    y = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    rows = fraction_rows(g.derived[1])
    cols = solve_in_span(rows, [bracket_coords_fraction(sc, y, v) for v in rows])
    assert _char_poly_int(*_ad_num(sc, y, g.derived[1])) == char_poly_det(list(zip(*cols)))
