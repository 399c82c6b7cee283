"""The two eliminations over Q[t] against a minor scan built on cofactor
expansion (`det_mpoly`): the invariant factors of a pencil give the gcds of
its minors, and the Bareiss rank of a span's Kronecker matrix is the size of
its largest nonzero minor."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable.catalog import load_catalog
from sp4solvable.invariants import nilpotent_subspace
from sp4solvable.linalg import (Mat4, Poly, det_mpoly, generic_rank, invariant_factors,
                                rank_over_qt, symbolic_combo)
from sp4solvable.rational import Q
from sp4solvable.sp4 import J_FORM, conjugate_subalgebra, shear
from sp4solvable.structure import Subalgebra


def minors(entries, k):
    """All k x k minors of a 4x4 `Poly` matrix, by cofactor expansion."""
    return [det_mpoly([[entries[i][j] for j in cols] for i in rows])
            for rows in combinations(range(4), k) for cols in combinations(range(4), k)]


def minor_gcd(entries, k) -> Poly:
    """The monic gcd of the k-minors (zero when they all vanish)."""
    acc = Poly()
    for m in minors(entries, k):
        acc = acc.gcd(m)
    return acc


def minor_rank(entries) -> int:
    """The largest k with a k-minor not identically zero."""
    return max((k for k in range(1, 5) if any(m.num for m in minors(entries, k))), default=0)


def assert_factors_match_minors(entries):
    factors = invariant_factors(entries)
    product = Poly([1])
    for k in range(1, 5):
        if k <= len(factors):
            s = factors[k - 1]
            assert s.num and s.num[-1] == s.den  # nonzero and monic
            if k > 1:
                assert s.divmod(factors[k - 2])[1].is_zero()  # s_{k-1} | s_k
            product = product * s
            assert product == minor_gcd(entries, k), k
        else:
            assert minor_gcd(entries, k).is_zero(), k


small = st.integers(-3, 3)
vectors = st.lists(small, min_size=4, max_size=4)


@st.composite
def low_rank_pairs(draw):
    """Two integer 4x4 matrices whose rows lie in a common span of r random
    vectors, so the pencil has rank at most r (r = 0..4)."""
    r = draw(st.integers(0, 4))
    vs = [draw(vectors) for _ in range(r)]

    def mat():
        us = [draw(vectors) for _ in range(r)]
        return Mat4([[sum(u[i] * v[j] for u, v in zip(us, vs)) for j in range(4)]
                     for i in range(4)])
    return mat(), mat()


sparse_mats = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 5]),
                       min_size=16, max_size=16).map(
    lambda xs: Mat4([xs[i:i + 4] for i in (0, 4, 8, 12)]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(low_rank_pairs(), st.tuples(sparse_mats, sparse_mats)))
def test_invariant_factors_multiply_to_the_minor_gcds(pair):
    n1, n2 = pair
    assert_factors_match_minors(symbolic_combo([n2, n1]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(sparse_mats, low_rank_pairs().map(lambda p: p[0])),
                min_size=2, max_size=4))
def test_bareiss_rank_is_the_largest_nonzero_minor(mats):
    entries = symbolic_combo(mats)
    assert rank_over_qt(entries) == minor_rank(entries) == generic_rank(mats)


def disguised_nilpotent_spans():
    """N(g) of every catalog instance conjugated by root shears with large
    rational steps, and of the instance of `d5_Ta1_n` at a = 1/2 conjugated
    by shear(alpha+beta, -2) shear(alpha, 1/2) J: a dim-4 span whose
    Kronecker matrix has degree 25 and 7-bit entries."""
    g = (shear("alpha", Q(10**12 + 7, 13)) * shear("beta", Q(-10**9, 11))
         * shear("alpha_plus_2beta", Q(3**20, 2**15)))
    spans = []
    for e in load_catalog():
        for a in e.samples():
            s = Subalgebra(conjugate_subalgebra(g, e.space_at(a)))
            spans.append(list(nilpotent_subspace(s).basis))
    row = next(e for e in load_catalog() if e.row_id == "d5_Ta1_n")
    h = shear("alpha_plus_beta", Q(-2)) * shear("alpha", Q(1, 2)) * J_FORM
    s = Subalgebra(conjugate_subalgebra(h, row.space_at(Q(1, 2))))
    spans.append(list(nilpotent_subspace(s).basis))
    return spans


def test_kernels_match_the_minor_scan_on_disguised_catalog_instances():
    spans = disguised_nilpotent_spans()
    assert len(spans[-1]) == 4
    assert max(p.degree for row in symbolic_combo(spans[-1]) for p in row) == 25
    pencils = ranks = 0
    for mats in spans:
        entries = symbolic_combo(mats)
        if len(mats) == 2:
            assert_factors_match_minors(entries)
            pencils += 1
        if len(mats) >= 2:
            assert rank_over_qt(entries) == minor_rank(entries)
            ranks += 1
    assert pencils >= 30 and ranks >= 70
