import random

import pytest

from sp4solvable.errors import (DimensionMismatch, OutOfCatalog,
                                UnrecognizedFamily, UnsupportedDimension,
                                ZeroParameter)
from sp4solvable.identify import (QuadraticValue, degraaf_to_sw,
                                  identify_degraaf, sw_lambda,
                                  tri_algebra_constants, verify_isomorphism)
from sp4solvable.presentations import (DeGraafClass, degraaf_constants,
                                       direct_sum, sw_constants)
from sp4solvable.linalg import echelon_span, rref
from sp4solvable.rational import Q
from sp4solvable.sp4 import T, X_A2B, X_AB, X_ALPHA, X_BETA
from sp4solvable.structure import (StructureConstants, Subalgebra,
                                   structure_constants_for_basis)

from conftest import perturb_columns
from oracles import is_antisymmetric, satisfies_jacobi

D = DeGraafClass


def test_presentations_are_lie_algebras():
    for fam, params in (("J", ()), ("K1", ()), ("K2", ()), ("L1", ()),
                        ("L2", ()), ("L3", (Q(-3, 16),)), ("L4", (Q(1),)),
                        ("M2", ()), ("M6", (Q(1, 27), Q(-1, 3))),
                        ("M7", (Q(0), Q(1))), ("M8", ()), ("M12", ()),
                        ("M13", (Q(-1, 4),)), ("M14", (Q(1),))):
        sc = degraaf_constants(fam, params)
        assert is_antisymmetric(sc) and satisfies_jacobi(sc)
    for name, params in (("n_{1,1}", ()), ("s_{2,1}", ()), ("n_{3,1}", ()),
                         ("s_{3,1}", (Q(1, 3),)), ("s_{3,2}", ()),
                         ("n_{4,1}", ()), ("s_{4,2}", ()),
                         ("s_{4,3}", (Q(3, 4), Q(1, 2))), ("s_{4,6}", ()),
                         ("s_{4,8}", (Q(1, 2),)), ("s_{4,10}", ()),
                         ("s_{4,11}", ()), ("s_{4,12}", ()),
                         ("s_{5,33}", ()), ("s_{5,35}", (Q(2),)),
                         ("s_{5,36}", ()), ("s_{5,37}", ()),
                         ("s_{5,41}", (Q(1, 2), Q(1, 2))), ("s_{5,44}", ()),
                         ("s_{6,242}", ()), ("2n_{1,1}", ()), ("3n_{1,1}", ()),
                         ("n_{1,1}+s_{2,1}", ()),
                         ("n_{1,1}+s_{3,1}", (Q(-1),))):
        sc = sw_constants(name, params)
        assert is_antisymmetric(sc) and satisfies_jacobi(sc)


def test_trichotomy():
    # r != +-2 -> L3 with parameter -2r/(r+2)^2; r = 2 -> L2; r = -2 -> L4(1)
    for r in (Q(0), Q(1), Q(6), Q(1, 2), Q(-3), Q(7, 5), Q(-1, 4)):
        got = identify_degraaf(tri_algebra_constants(r))
        assert got == D("L3", (-2 * r / (r + 2) ** 2,))
    assert identify_degraaf(tri_algebra_constants(Q(2))) == D("L2")
    assert identify_degraaf(tri_algebra_constants(Q(-2))) == D("L4", (Q(1),))


def test_identify_low_dims():
    assert identify_degraaf(degraaf_constants("J")) == D("J")
    assert identify_degraaf(degraaf_constants("K1")) == D("K1")
    assert identify_degraaf(degraaf_constants("K2")) == D("K2")
    assert identify_degraaf(degraaf_constants("L1")) == D("L1")
    with pytest.raises(UnsupportedDimension):
        identify_degraaf(StructureConstants.from_brackets(5, {}))


def test_identify_concrete_examples():
    # the stated parameter formulas at a = 2
    sc = structure_constants_for_basis([T(2, 1), X_ALPHA, X_AB])
    assert identify_degraaf(sc) == D("L3", (Q(-6, 25),))
    sc = structure_constants_for_basis([T(1, -1), X_ALPHA, X_A2B])
    assert identify_degraaf(sc) == D("L4", (Q(1),))
    sc = structure_constants_for_basis([T(2, 1), X_ALPHA, X_AB, X_A2B])
    assert identify_degraaf(sc) == D("M6", (Q(8, 243), Q(-26, 81)))
    sc = structure_constants_for_basis([X_BETA, X_ALPHA, X_AB, X_A2B])
    assert identify_degraaf(sc) == D("M7", (Q(0), Q(0)))
    # dim-1 derived: K2 + J presents as L3(0)
    sc = structure_constants_for_basis([T(1, 0), X_ALPHA, X_AB])
    assert identify_degraaf(sc) == D("L3", (Q(0),))
    # Heisenberg is L4(0)
    sc = structure_constants_for_basis([X_BETA, X_AB, X_A2B])
    assert identify_degraaf(sc) == D("L4", (Q(0),))


def test_identify_is_basis_change_invariant():
    rng = random.Random(42)
    cases = [degraaf_constants("L3", (Q(-3, 16),)),
             degraaf_constants("L4", (Q(1),)),
             degraaf_constants("L2"),
             degraaf_constants("M6", (Q(8, 243), Q(-26, 81))),
             degraaf_constants("M13", (Q(-1, 4),)),
             degraaf_constants("M13", (Q(0),)),
             degraaf_constants("M14", (Q(1),)),
             degraaf_constants("M12"),
             degraaf_constants("M8"),
             degraaf_constants("M2"),
             degraaf_constants("M7", (Q(0), Q(1))),
             degraaf_constants("M6", (Q(0), Q(-2, 9))),
             degraaf_constants("M7", (Q(0), Q(0)))]
    for sc in cases:
        base = identify_degraaf(sc)
        d = sc.dim
        done = 0
        while done < 4:
            p = [[Q(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
            try:
                moved = sc.change_basis(p)
            except Exception:
                continue
            done += 1
            assert identify_degraaf(moved) == base


def test_identify_l4_parameter_mod_squares():
    # L4_A ~ L4_B iff A = s^2 B: basis rescaling x1 -> 2 x1 sends A to 4A
    sc = degraaf_constants("L4", (Q(2),))
    moved = sc.change_basis([(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert identify_degraaf(sc) == identify_degraaf(moved) == D("L4", (Q(2),))
    sc8 = degraaf_constants("L4", (Q(8),))
    assert identify_degraaf(sc8) == D("L4", (Q(2),))  # squarefree kernel


def test_identify_unrecognized():
    # 4-dimensional abelian
    with pytest.raises(UnrecognizedFamily):
        identify_degraaf(StructureConstants.from_brackets(4, {}))
    # K2 + 2J has derived dimension 1
    with pytest.raises(UnrecognizedFamily):
        identify_degraaf(StructureConstants.from_brackets(4, {(0, 1): {1: 1}}))


def test_sw_lambda_branches():
    assert sw_lambda(Q(-3, 16)) == Q(1, 3)
    assert sw_lambda(Q(-2, 9)) == Q(1, 2)
    v = sw_lambda(Q(1))        # sqrt(5): lambda = (3 - sqrt5)/(-2) -> quadratic
    assert isinstance(v, QuadraticValue) and not v.imaginary and v.dsc == 5
    v = sw_lambda(Q(-1))       # complex of modulus 1
    assert isinstance(v, QuadraticValue) and v.imaginary and v.q > 0
    with pytest.raises(ZeroParameter):
        sw_lambda(Q(0))
    with pytest.raises(OutOfCatalog):
        sw_lambda(Q(-1, 4))


def test_degraaf_to_sw_table():
    expect = {
        D("J"): "n_{1,1}", D("K1"): "2n_{1,1}", D("K2"): "s_{2,1}",
        D("L1"): "3n_{1,1}", D("L2"): "s_{3,1}(A=1)",
        D("L3", (Q(0),)): "n_{1,1}+s_{2,1}",
        D("L3", (Q(-1, 4),)): "s_{3,2}",
        D("L3", (Q(-3, 16),)): "s_{3,1}(A=1/3)",
        D("L4", (Q(0),)): "n_{3,1}",
        D("L4", (Q(1),)): "s_{3,1}(A=-1)",
        D("M2"): "s_{4,3}(A=1,B=1)",
        D("M8"): "s_{4,12}",
        D("M12"): "s_{4,8}(A=1)",
        D("M13", (Q(0),)): "s_{4,11}",
        D("M13", (Q(-1, 4),)): "s_{4,10}",
        D("M13", (Q(-2, 9),)): "s_{4,8}(A=1/2)",
        D("M14", (Q(1),)): "s_{4,6}",
        D("M7", (Q(0), Q(0))): "n_{4,1}",
        D("M7", (Q(0), Q(1))): "n_{1,1}+s_{3,1}(A=-1)",
        D("M6", (Q(0), Q(-2, 9))): "n_{1,1}+s_{3,1}(A=1/2)",
        D("M6", (Q(0), Q(-1, 4))): "n_{1,1}+s_{3,2}",
        D("M6", (Q(1, 27), Q(-1, 3))): "s_{4,2}",
        D("M6", (Q(8, 243), Q(-26, 81))): "s_{4,3}(A=3/4,B=1/2)",
    }
    for dg, label in expect.items():
        assert str(degraaf_to_sw(dg)) == label
    with pytest.raises(OutOfCatalog):
        degraaf_to_sw(D("L4", (Q(2),)))
    with pytest.raises(OutOfCatalog):
        degraaf_to_sw(D("M14", (Q(3),)))


def test_verify_isomorphism_examples():
    # dimension 2: x1 <-> e2, x2 <-> e1
    k2, s21 = degraaf_constants("K2"), sw_constants("s_{2,1}")
    iso = [(0, 1), (1, 0)]
    assert verify_isomorphism(k2, s21, iso)
    # a map with mismatched bracket images fails
    assert not verify_isomorphism(k2, s21, [(1, 0), (0, 1)])
    # singular maps fail
    assert not verify_isomorphism(k2, s21, [(1, 0), (1, 0)])
    with pytest.raises(DimensionMismatch):
        verify_isomorphism(k2, sw_constants("n_{3,1}"), iso)


def test_verify_isomorphism_l3_to_s32():
    # e1 = x1 - 2x2, e2 = x1 - 4x2, e3 = 2x3 inverted to columns
    l3 = degraaf_constants("L3", (Q(-1, 4),))
    s32 = sw_constants("s_{3,2}")
    iso = [(2, -1, 0), (Q(1, 2), Q(-1, 2), 0), (0, 0, Q(1, 2))]
    assert verify_isomorphism(l3, s32, iso)


def test_direct_sum():
    two = direct_sum(sw_constants("s_{2,1}"), sw_constants("s_{2,1}"))
    assert two.dim == 4
    assert is_antisymmetric(two) and satisfies_jacobi(two)
    m8 = degraaf_constants("M8")
    iso = [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]
    assert verify_isomorphism(m8, two, iso)


def test_sw_bridge_maps_verify_bracket_exactly():
    cases = [D("J"), D("K1"), D("K2"), D("L1"), D("L2"),
             D("L3", (Q(0),)), D("L3", (Q(-1, 4),)), D("L3", (Q(-3, 16),)),
             D("L3", (Q(-6, 25),)), D("L4", (Q(0),)), D("L4", (Q(1),)),
             D("M2"), D("M8"), D("M12"), D("M13", (Q(0),)),
             D("M13", (Q(-1, 4),)), D("M13", (Q(-2, 9),)), D("M14", (Q(1),)),
             D("M7", (Q(0), Q(0))), D("M7", (Q(0), Q(1))),
             D("M6", (Q(0), Q(-2, 9))), D("M6", (Q(0), Q(-1, 4))),
             D("M6", (Q(1, 27), Q(-1, 3))), D("M6", (Q(8, 243), Q(-26, 81)))]
    from sp4solvable.identify import _BRIDGES, sw_bridge_map
    reached = set()
    for c in cases:
        label, iso = sw_bridge_map(c)
        assert verify_isomorphism(c.constants(), label.constants(), iso), str(c)
        if c.family == "M8":
            assert str(label) == "2s_{2,1}"   # rational bridge for s_{4,12}
        else:
            assert label == degraaf_to_sw(c)
        reached.add((c.family, degraaf_to_sw(c).name))
    assert reached == set(_BRIDGES)   # no bridge table entry is dead


def test_every_catalog_class_has_a_bridge_entry():
    from sp4solvable.catalog import load_catalog
    from sp4solvable.identify import _BRIDGES
    keys = set()
    for entry in load_catalog():
        for a in entry.samples():
            dg = entry.degraaf_at(a)
            if dg is not None:
                keys.add((dg.family, degraaf_to_sw(dg).name))
    assert keys and keys <= set(_BRIDGES)


def test_sw_bridge_mutation_testing():
    from sp4solvable.identify import sw_bridge_map
    deltas = (Q(1), Q(-1), Q(1, 2), Q(2), Q(-3))
    for c in [D("L3", (Q(-3, 16),)), D("M13", (Q(-2, 9),)),
              D("M6", (Q(8, 243), Q(-26, 81))), D("M14", (Q(1),)),
              D("M6", (Q(1, 27), Q(-1, 3)))]:
        label, iso = sw_bridge_map(c)
        src, tgt = c.constants(), label.constants()
        failures = 0
        for i in range(src.dim):
            for j in range(src.dim):
                for delta in deltas:
                    if not verify_isomorphism(src, tgt, perturb_columns(iso, i, j, delta)):
                        failures += 1
                    if failures >= 5:
                        break
        assert failures >= 5, str(c)


def test_sw_bridge_irrational_is_rejected():
    from sp4solvable.errors import OutOfCatalog as OOC
    from sp4solvable.identify import sw_bridge_map
    with pytest.raises(OOC):
        sw_bridge_map(D("L3", (Q(1),)))   # lambda in Q(sqrt(5))


def _pairwise_oracle(src, tgt, columns):
    """The bracket transport checked pair by pair: the map is a bijection and
    sends each [x_i, x_j] to [f(x_i), f(x_j)]."""
    d = src.dim
    cols = [tuple(Q(x) for x in c) for c in columns]
    if len(rref(cols)) != d:
        return False

    def apply(v):
        return tuple(sum((c * col[k] for c, col in zip(v, cols)), Q(0)) for k in range(d))
    return all(apply(src.table[i][j]) == tgt.bracket_coords(cols[i], cols[j])
               for i in range(d) for j in range(i + 1, d))


def test_verify_isomorphism_matches_the_pairwise_bracket_loop():
    from sp4solvable.catalog import load_catalog
    from sp4solvable.identify import sw_bridge_map
    rng = random.Random(11)
    maps = []
    for e in load_catalog():
        if e.iso_columns is None:
            continue
        a = e.samples()[0]
        maps.append((e.presentation_at(a).constants(), structure_constants_for_basis(e.basis_at(a)),
                     e.iso_columns_at(a)))
        dg = e.degraaf_at(a)
        if dg is not None:
            label, cols = sw_bridge_map(dg)
            maps.append((dg.constants(), label.constants(), cols))
    verdicts = set()
    for src, tgt, cols in maps:
        d = src.dim
        i, j = rng.randrange(d), rng.randrange(d)
        # the last column a combination of the others (zero when d = 1)
        singular = [*cols[:-1], [x + 2 * y for x, y in zip(cols[0], cols[-2])] if d > 1 else [0]]
        invertible = [[rng.randint(-2, 2) + 5 * (r == c) for r in range(d)] for c in range(d)]
        for m in (cols, perturb_columns(cols, i, j, rng.choice((1, -1, Q(1, 2)))),
                  singular, invertible):
            want = _pairwise_oracle(src, tgt, m)
            assert verify_isomorphism(src, tgt, m) == want
            verdicts.add(want)
        assert not verify_isomorphism(src, tgt, singular)
    assert verdicts == {True, False} and len(maps) > 60


def test_identification_and_signatures_solve_no_span(monkeypatch):
    """Adjoint matrices, quotient actions and the identity test of M13 read
    RREF pivots: once the bracket tables exist, nothing is solved."""
    from sp4solvable import identify, structure
    from sp4solvable.catalog import load_catalog
    from sp4solvable.invariants import signature
    instances = []
    for e in load_catalog():
        for a in e.samples():
            mats = e.basis_at(a)
            sub = Subalgebra(echelon_span(mats))
            sub.constants
            ref = Subalgebra(echelon_span(mats))
            instances.append((sub, e.degraaf_at(a), signature(ref)))

    def refuse(*_):
        raise AssertionError("solve_in_span called")
    monkeypatch.setattr(structure, "solve_in_span", refuse)
    monkeypatch.setattr(identify, "solve_in_span", refuse)
    found = set()
    for sub, dg, sig in instances:
        if dg is not None:
            assert identify_degraaf(sub.constants) == dg
            found.add(dg.family)
        assert signature(sub) == sig
    assert {"L2", "L3", "M12", "M13", "M14", "M6", "M7", "M8"} <= found
