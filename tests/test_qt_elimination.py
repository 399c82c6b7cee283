"""The Q[t] kernels against a minor scan built on cofactor expansion
(`det_mpoly`): the rank strata of a nilpotent pencil come out of the gcds
of its minors, and the generic rank of a span, read at one point, is the
size of the largest nonzero minor of its Kronecker matrix, which the oracle
`symbolic_combo` builds over Q[t]."""

from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sp4solvable.catalog import load_catalog
from sp4solvable.invariants import PencilStrata, nilpotent_subspace, pencil_rank_strata
from sp4solvable.linalg import Mat4, Poly, det_mpoly, echelon_span, generic_rank, rational_roots
from sp4solvable.rational import Q
from sp4solvable.sp4 import (A_MAT, J_FORM, W_MAT, X_A2B, X_AB, X_ALPHA, X_BETA, conjugate,
                             conjugate_subalgebra, shear)
from sp4solvable.structure import Subalgebra

from oracles import symbolic_combo


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


def strata_from_minors(n1, n2) -> PencilStrata:
    """The rank strata of t*n1 + n2 from its minors: the lines of rank <= k
    are the roots of the squarefree gcd of the (k+1)-minors, each once, and
    the rank of n1 is the largest size of its nonzero minors."""
    entries = symbolic_combo([n2, n1])
    generic = minor_rank(entries)
    loci = [minor_gcd(entries, k + 1).squarefree_part() for k in range(generic)]
    roots = [set(rational_roots(p)) if p.degree > 0 else set() for p in loci]
    drops = tuple((t0, min(k for k in range(generic) if t0 in roots[k]))
                  for t0 in sorted(roots[-1], key=lambda q: (q.numerator, q.denominator)))
    irrational = [p.degree - len(rs) for p, rs in zip(loci, roots)]
    counts = tuple((k, irrational[k] - irrational[k - 1]) for k in range(1, generic)
                   if irrational[k] > irrational[k - 1])
    inf = minor_rank(symbolic_combo([n1]))
    return PencilStrata(generic, drops, inf if inf < generic else None, counts)


small = st.integers(-3, 3)
vectors = st.lists(small, min_size=4, max_size=4)
# spanning vectors whose low-rank matrices have entries up to 10^6
wide_vectors = st.lists(st.integers(-10**6 // 12, 10**6 // 12), min_size=4, max_size=4)


@st.composite
def low_rank_pairs(draw, spanning=vectors):
    """Two integer 4x4 matrices whose rows lie in a common span of r random
    `spanning` vectors, combined with coefficients in [-3, 3], so the pencil
    has rank at most r (r = 0..4)."""
    r = draw(st.integers(0, 4))
    vs = [draw(spanning) for _ in range(r)]

    def mat():
        us = [draw(vectors) for _ in range(r)]
        return Mat4([[sum(u[i] * v[j] for u, v in zip(us, vs)) for j in range(4)]
                     for i in range(4)])
    return mat(), mat()


sparse_mats = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 5]),
                       min_size=16, max_size=16).map(
    lambda xs: Mat4([xs[i:i + 4] for i in (0, 4, 8, 12)]))
wide_sparse_mats = st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)),
                            min_size=16, max_size=16).map(
    lambda xs: Mat4([xs[i:i + 4] for i in (0, 4, 8, 12)]))


@st.composite
def nilpotent_pencils(draw):
    """Two independent elements of n = span(X_alpha, X_beta, X_alpha+beta,
    X_alpha+2beta), conjugated by a word in W, A, J and root shears."""
    roots = (X_ALPHA, X_BETA, X_AB, X_A2B)
    n1, n2 = (sum((x * c for x, c in zip(roots, draw(vectors))), Mat4.zero())
              for _ in range(2))
    assume(echelon_span([n1, n2]).dim == 2)
    steps = st.fractions(-5, 5, max_denominator=4)
    atoms = st.one_of(st.sampled_from([W_MAT, A_MAT, J_FORM]),
                      st.builds(shear, st.sampled_from(["alpha", "beta", "alpha_plus_beta",
                                                        "alpha_plus_2beta"]), steps))
    g = Mat4.identity()
    for atom in draw(st.lists(atoms, max_size=5)):
        g = g * atom
    return conjugate(g, n1), conjugate(g, n2)


@settings(max_examples=150, deadline=None)
@given(nilpotent_pencils())
def test_pencil_strata_match_the_minor_gcds(pair):
    assert pencil_rank_strata(*pair) == strata_from_minors(*pair)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(sparse_mats, low_rank_pairs().map(lambda p: p[0]),
                          wide_sparse_mats, low_rank_pairs(wide_vectors).map(lambda p: p[0])),
                min_size=2, max_size=4))
def test_generic_rank_is_the_largest_nonzero_minor(mats):
    assert generic_rank(mats) == minor_rank(symbolic_combo(mats))


def test_generic_rank_is_not_fooled_by_a_rank_drop_at_a_large_t():
    # diag(-10^30, 1, 1, 1) + t diag(1, 0, 0, 0) drops rank only at t = 10^30
    mats = [Mat4.diag(-10**30, 1, 1, 1), Mat4.diag(1, 0, 0, 0)]
    assert generic_rank(mats) == minor_rank(symbolic_combo(mats)) == 4
    assert generic_rank([mats[0] + mats[1] * 10**30]) == 3


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
        if len(mats) == 2:
            assert pencil_rank_strata(*mats) == strata_from_minors(*mats)
            pencils += 1
        if len(mats) >= 2:
            assert generic_rank(mats) == minor_rank(symbolic_combo(mats))
            ranks += 1
    assert pencils >= 30 and ranks >= 70
