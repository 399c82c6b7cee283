from itertools import product

import pytest

from sp4solvable.errors import DependentInputs, IrrationalSpectrum
from sp4solvable.invariants import nilpotent_subspace, pencil_rank_strata, signature
from sp4solvable.catalog import load_catalog
from sp4solvable.linalg import (Mat4, det_mpoly, echelon_span, generic_rank, rank,
                               symbolic_combo)
from sp4solvable.rational import Q
from sp4solvable.sp4 import (T, X_A2B, X_AB, X_ALPHA, X_BETA,
                             conjugate_subalgebra, standard_subalgebra)
from sp4solvable.structure import Subalgebra, generated_subalgebra

from conftest import conjugator_pool, random_borel_element
from oracles import grid_pencil_ranks


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
    """Pencil strata and generic ranks come from elimination over Q[t]: no
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
