import pytest

from sp4solvable.errors import Sp4Error
from sp4solvable.linalg import echelon_span
from sp4solvable.rational import Q
from sp4solvable.sp4 import (T, X_A2B, X_AB, X_ALPHA, X_BETA, bracket,
                             standard_subalgebra)
from sp4solvable.structure import (StructureConstants, Subalgebra,
                                   derived_series, generated_subalgebra,
                                   is_abelian, is_closed, is_nilpotent,
                                   is_solvable, structure_constants,
                                   structure_constants_for_basis)

from conftest import random_borel_element
from oracles import is_antisymmetric, satisfies_jacobi


def alg(*mats):
    return Subalgebra.from_matrices(list(mats))


def test_is_closed_examples():
    assert is_closed(echelon_span([T(3, 1), X_ALPHA + X_BETA]))
    assert not is_closed(echelon_span([X_ALPHA, X_BETA]))
    assert is_closed(echelon_span([T(1, 1) + X_BETA]))


def test_generated_subalgebra_examples():
    assert generated_subalgebra([X_ALPHA, X_BETA]).space == standard_subalgebra("n")
    g = generated_subalgebra([X_BETA, X_AB])
    assert g.space == echelon_span([X_BETA, X_AB, X_A2B])
    assert generated_subalgebra([T(1, 1)]).dim == 1


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
    assert derived_series(b)[2] == echelon_span([X_AB, X_A2B])


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
    assert is_abelian(alg(T(1, 0), X_ALPHA))
    assert not is_abelian(alg(T(0, 1), X_ALPHA))
    # nilpotent => solvable; abelian => nilpotent
    np = Subalgebra(standard_subalgebra("n_p"))
    assert is_abelian(np) and is_nilpotent(np) and is_solvable(np)


def test_structure_constants_examples():
    sc = structure_constants(alg(T(3, 1), X_ALPHA + X_BETA))
    # echelon basis is (T(1,1/3)-normalized, X_alpha+X_beta); [t, x] = 2x
    # becomes [b0, b1] = (2/3) b1 after the leading-one normalization
    nonzero = {(i, j, k): sc.table[i][j][k]
               for i in range(2) for j in range(2) for k in range(2)
               if sc.table[i][j][k] != 0}
    assert nonzero == {(0, 1, 1): Q(2, 3), (1, 0, 1): Q(-2, 3)}

    sc_ab = structure_constants(alg(T(1, 1), X_BETA))
    assert sc_ab.is_abelian()

    sc_n = structure_constants(Subalgebra(standard_subalgebra("n")))
    # echelon order: X_beta, X_{a+2b}, X_{a+b}, X_alpha
    assert sc_n.table[0][3][2] == 1   # [x_beta, x_alpha] = x_{a+b}
    assert sc_n.table[0][2][1] == 2   # [x_beta, x_{a+b}] = 2 x_{a+2b}
    assert is_antisymmetric(sc_n) and satisfies_jacobi(sc_n)


def test_structure_constants_roundtrip(rng):
    for _ in range(15):
        g = generated_subalgebra([random_borel_element(rng),
                                  random_borel_element(rng)])
        sc = structure_constants(g)
        assert is_antisymmetric(sc)
        assert satisfies_jacobi(sc)
        basis = g.basis
        d = g.dim
        for i in range(d):
            for j in range(d):
                rebuilt = g.space.combine(sc.table[i][j])
                assert rebuilt == bracket(basis[i], basis[j])
        assert StructureConstants.from_json(sc.to_json()) == sc


def test_structure_constants_change_basis():
    sc = structure_constants_for_basis([T(1, -1), X_BETA, X_A2B])
    p = [(1, 0, 0), (1, 2, 0), (0, 1, 1)]
    moved = sc.change_basis(p)
    assert is_antisymmetric(moved) and satisfies_jacobi(moved)
    with pytest.raises(Sp4Error):
        sc.change_basis([(1, 0, 0), (2, 0, 0), (0, 0, 1)])


def test_subalgebra_validation():
    with pytest.raises(Sp4Error):
        Subalgebra.from_matrices([X_ALPHA, X_BETA])  # not closed
    from sp4solvable.linalg import Mat4
    with pytest.raises(Sp4Error):
        Subalgebra.from_matrices([Mat4.unit(1, 2)])  # not in sp(4)


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
                cases.append((mats, sub.constants.change_basis([sub.space.coords(m) for m in mats])))

    def no_rewrap(*args):
        raise AssertionError("structure.Q re-wraps a structure constant")

    monkeypatch.setattr(structure, "Q", no_rewrap)
    assert len(cases) > 20
    for mats, expected in cases:
        assert structure_constants_for_basis(mats) == expected
