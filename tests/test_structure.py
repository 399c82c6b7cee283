import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable import structure
from sp4solvable.catalog import load_catalog
from sp4solvable.errors import DependentInputs, Sp4Error
from sp4solvable.linalg import Subspace, inverse
from sp4solvable.rational import Q
from sp4solvable.sp4 import (T, X_A2B, X_AB, X_ALPHA, X_BETA, bracket,
                             diag_conjugator, standard_subalgebra)
from sp4solvable.structure import (Subalgebra, derived_series, generated_subalgebra,
                                   is_closed, is_nilpotent, is_solvable,
                                   structure_constants_for_basis)

from conftest import conjugator_pool, random_borel_element
from oracles import combination, coords, is_antisymmetric, moved_constants, satisfies_jacobi


def alg(*mats):
    return Subalgebra.from_matrices(list(mats))


def test_is_closed_examples():
    assert is_closed(Subspace([T(3, 1), X_ALPHA + X_BETA]))
    assert not is_closed(Subspace([X_ALPHA, X_BETA]))
    assert is_closed(Subspace([T(1, 1) + X_BETA]))


def test_generated_subalgebra_examples():
    assert generated_subalgebra([X_ALPHA, X_BETA]).space == standard_subalgebra("n")
    g = generated_subalgebra([X_BETA, X_AB])
    assert g.space == Subspace([X_BETA, X_AB, X_A2B])
    assert generated_subalgebra([T(1, 1)]).dim == 1


def test_generated_subalgebra_keeps_its_last_closure_round(monkeypatch):
    spaces = []

    def counting(space, original=structure._close_pairs):
        spaces.append(space)
        return original(space)
    monkeypatch.setattr(structure, "_close_pairs", counting)
    g = generated_subalgebra([T(2, 1) + X_ALPHA, X_BETA])
    # one closure pass over the seeds (1 pair), one over the span with
    # [seeds] (3 pairs), then one over the closed 4-dim span (6 pairs),
    # whose table the result keeps
    assert g.dim == 4 and [s.dim for s in spaces] == [2, 3, 4]
    sc = g.constants
    assert len(spaces) == 3
    assert sc == Subalgebra(g.space).constants


def test_generated_subalgebra_idempotent(rng):
    for _ in range(25):
        g = generated_subalgebra([random_borel_element(rng),
                                  random_borel_element(rng)])
        assert generated_subalgebra(g.basis).space == g.space


def test_derived_series_of_borel():
    # oracle: [b,b] = n; [n,n] = span{X_{a+b}, X_{a+2b}} (from the bracket
    # relations [X_b,X_a] = X_{a+b}, [X_b,X_{a+b}] = 2X_{a+2b}); then 0
    b = Subalgebra(standard_subalgebra("b"))
    dims = [s.dim for s in derived_series(b)]
    assert dims == [6, 4, 2, 0]
    assert derived_series(b)[2] == Subspace([X_AB, X_A2B])


def test_derived_series_examples():
    t = Subalgebra(standard_subalgebra("t"))
    assert [s.dim for s in derived_series(t)] == [2, 0]
    g = alg(T(2, 1), X_ALPHA, X_AB, X_A2B)
    assert [s.dim for s in derived_series(g)] == [4, 3, 0]


def test_series_strictly_decrease_until_stable(rng):
    for _ in range(20):
        g = generated_subalgebra([random_borel_element(rng),
                                  random_borel_element(rng)])
        dims = [s.dim for s in derived_series(g)]
        assert all(a > b for a, b in zip(dims, dims[1:]))


def test_predicates():
    n = Subalgebra(standard_subalgebra("n"))
    b = Subalgebra(standard_subalgebra("b"))
    assert is_nilpotent(n) and is_solvable(n)
    assert is_solvable(b) and not is_nilpotent(b)
    assert alg(T(1, 0), X_ALPHA).constants.is_abelian()
    assert not alg(T(0, 1), X_ALPHA).constants.is_abelian()
    # nilpotent => solvable; abelian => nilpotent
    np = Subalgebra(standard_subalgebra("n_p"))
    assert np.constants.is_abelian() and is_nilpotent(np) and is_solvable(np)


def test_structure_constants_examples():
    sc = alg(T(3, 1), X_ALPHA + X_BETA).constants
    # echelon basis is (T(1,1/3)-normalized, X_alpha+X_beta); [t, x] = 2x
    # becomes [b0, b1] = (2/3) b1 after the leading-one normalization
    nonzero = {(i, j, k): sc.table[i][j][k]
               for i in range(2) for j in range(2) for k in range(2)
               if sc.table[i][j][k] != 0}
    assert nonzero == {(0, 1, 1): Q(2, 3), (1, 0, 1): Q(-2, 3)}

    sc_ab = alg(T(1, 1), X_BETA).constants
    assert sc_ab.is_abelian()

    sc_n = Subalgebra(standard_subalgebra("n")).constants
    # echelon order: X_beta, X_{a+2b}, X_{a+b}, X_alpha
    assert sc_n.table[0][3][2] == 1   # [x_beta, x_alpha] = x_{a+b}
    assert sc_n.table[0][2][1] == 2   # [x_beta, x_{a+b}] = 2 x_{a+2b}
    assert is_antisymmetric(sc_n) and satisfies_jacobi(sc_n)


def test_structure_constants_roundtrip(rng):
    for _ in range(15):
        g = generated_subalgebra([random_borel_element(rng),
                                  random_borel_element(rng)])
        sc = g.constants
        assert is_antisymmetric(sc)
        assert satisfies_jacobi(sc)
        basis = g.basis
        d = g.dim
        for i in range(d):
            for j in range(d):
                rebuilt = combination(g.space, sc.table[i][j])
                assert rebuilt == bracket(basis[i], basis[j])


def test_structure_constants_change_basis():
    # the basis y_j = sum_i p[j][i] x_i of <T(1,-1), X_beta, X_a2b>, p = (1,0,0), (1,2,0), (0,1,1)
    moved = structure_constants_for_basis([T(1, -1), T(1, -1) + X_BETA * 2, X_BETA + X_A2B])
    assert is_antisymmetric(moved) and satisfies_jacobi(moved)
    with pytest.raises(Sp4Error):
        structure_constants_for_basis([T(1, -1), T(1, -1) * 2, X_A2B])


def test_subalgebra_validation():
    with pytest.raises(Sp4Error):
        Subalgebra.from_matrices([X_ALPHA, X_BETA])  # not closed
    from sp4solvable.linalg import Mat4
    with pytest.raises(Sp4Error):
        Subalgebra.from_matrices([Mat4.unit(1, 2)])  # not in sp(4)


def test_subalgebras_and_tables_are_equal_by_value():
    a = alg(T(1, 0), X_ALPHA)
    b = alg(T(2, 0) + X_ALPHA, X_ALPHA * 3)  # the same span, another basis
    c = alg(T(1, 1), X_ALPHA)
    assert a == b and hash(a) == hash(b) and a != c
    assert a.__eq__(a.space) is NotImplemented and a != a.space
    assert a.constants == b.constants
    for other in (c, alg(T(1, 0), X_BETA), alg(T(1, 0)), alg(T(1, 0), X_ALPHA, X_AB, X_A2B)):
        assert a.constants != other.constants
    assert a.constants != a.constants.table


def test_subalgebra_json_roundtrip():
    g = alg(T(1, 1), X_BETA, X_AB, X_A2B)
    assert Subalgebra.from_json(g.to_json()).space == g.space


def test_bracket_tables_are_stored_as_given(monkeypatch):
    """The pair brackets already hand exact rationals to `StructureConstants`;
    building a table re-wraps none of them in `structure.Q`."""
    from sp4solvable import structure
    from sp4solvable.catalog import load_catalog
    cases = []
    for e in load_catalog():
        if e.dim == 3:
            for a in e.samples():
                mats = e.basis_at(a)
                sub = Subalgebra.from_matrices(mats)
                cases.append((mats, moved_constants(sub.constants,
                                                    [coords(sub.space, m) for m in mats])))

    def no_rewrap(*args):
        raise AssertionError("structure.Q re-wraps a structure constant")

    monkeypatch.setattr(structure, "Q", no_rewrap)
    assert len(cases) > 20
    for mats, expected in cases:
        assert structure_constants_for_basis(mats) == expected


def test_constants_in_names_an_element_outside_the_subalgebra():
    sub = Subalgebra.from_matrices([T(1, 0), X_ALPHA])
    with pytest.raises(Sp4Error, match="basis element 1 is not in the subalgebra"):
        sub.constants_in([T(1, 0), X_BETA])
    with pytest.raises(Sp4Error, match="not square"):
        sub.constants_in([T(1, 0)])


def test_a_dependent_basis_raises_dependent_inputs():
    with pytest.raises(DependentInputs):
        structure_constants_for_basis([T(1, 0), T(2, 0)])
    with pytest.raises(DependentInputs):
        structure_constants_for_basis([X_ALPHA, X_AB, X_ALPHA + X_AB])


_INSTANCES = [e.basis_at(a) for e in load_catalog() for a in e.samples()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_INSTANCES), st.randoms(use_true_random=False))
def test_constants_in_matches_change_basis_over_rational_coordinates(mats, rnd):
    # a symplectic conjugate of a catalog basis: mixed denominators, no echelon form
    g = conjugator_pool(rnd, n=1)[0] * diag_conjugator(2, Q(1, 3), Q(1, 2), 3)
    ginv = inverse(g)
    moved = [g * m * ginv for m in mats]
    sub = Subalgebra(Subspace(moved))
    assert (sub.constants_in(moved)
            == moved_constants(sub.constants, [coords(sub.space, m) for m in moved]))
