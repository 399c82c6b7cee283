import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable.errors import (DependentInputs, DimensionMismatch, OutOfCatalog, Sp4Error,
                                UnrecognizedFamily, UnsupportedDimension,
                                ZeroParameter)
from sp4solvable import identify
from sp4solvable.identify import (DeGraafClass, QuadraticValue, SWClass, degraaf_constants,
                                  degraaf_to_sw, identify_degraaf, sw_bridge_map,
                                  sw_constants, sw_lambda, tri_algebra_constants,
                                  verify_isomorphism)
from sp4solvable.catalog import INSTANCE_CACHE_SIZE, load_catalog
from sp4solvable.linalg import echelon_span
from sp4solvable.rational import Q
from sp4solvable.sp4 import T, X_A2B, X_AB, X_ALPHA, X_BETA
from sp4solvable.structure import (StructureConstants, Subalgebra,
                                   structure_constants_for_basis)
from sp4solvable.verify import random_subalgebra_probe, verify_catalog

from conftest import clear_fact_caches, perturb_columns, stated_columns
from oracles import (bracket_coords_fraction, is_antisymmetric, moved_constants, rational_rref,
                     satisfies_jacobi)

D = DeGraafClass


def test_presentations_are_lie_algebras():
    # every class of both tables, with as many sample parameters as it takes
    samples = (Q(-3, 16), Q(1, 2), Q(7))
    built = 0
    for table, constants in ((identify._DEGRAAF, degraaf_constants),
                             (identify._SW, sw_constants)):
        for name, (dim, brackets) in table.items():
            sc = constants(name, samples[:identify._arity(brackets)])
            assert sc.dim == dim and is_antisymmetric(sc) and satisfies_jacobi(sc), name
            built += 1
    assert built == len(identify._DEGRAAF) + len(identify._SW) == 34
    for name, params in (("2n_{1,1}", ()), ("3n_{1,1}", ()), ("n_{1,1}+s_{2,1}", ()),
                         ("n_{1,1}+s_{3,1}", (Q(-1),))):
        sc = sw_constants(name, params)
        assert is_antisymmetric(sc) and satisfies_jacobi(sc)


def test_a_label_the_tables_do_not_carry_is_out_of_catalog():
    for name, params in (("0n_{1,1}", ()), ("00s_{5,33}", ()), ("1s_{5,33}", ()),
                         ("100000s_{2,1}", ()), ("7n_{1,1}", ()), ("n_{1,1}+", ()),
                         ("s_{5,33}", (Q(1),)), ("s_{3,1}", ()), ("s_{5,41}", (1, 2, 3))):
        with pytest.raises(OutOfCatalog):
            sw_constants(name, params)
    for family, params in (("L3", ()), ("M8", (Q(1),)), ("2K2", ()), ("M9", ())):
        with pytest.raises(OutOfCatalog):
            degraaf_constants(family, params)
    assert str(SWClass("s_{5,41}", (Q(1, 2), 1, 9))) == "s_{5,41}(A=1/2,B=1,C=9)"
    assert sw_constants("6n_{1,1}").dim == 6


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
                moved = moved_constants(sc, p)
            except DependentInputs:
                continue
            done += 1
            assert identify_degraaf(moved) == base


def test_identify_l4_parameter_mod_squares():
    # L4_A ~ L4_B iff A = s^2 B: basis rescaling x1 -> 2 x1 sends A to 4A
    sc = degraaf_constants("L4", (Q(2),))
    moved = moved_constants(sc, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert identify_degraaf(sc) == identify_degraaf(moved) == D("L4", (Q(2),))
    sc8 = degraaf_constants("L4", (Q(8),))
    assert identify_degraaf(sc8) == D("L4", (Q(2),))  # squarefree kernel


def test_identify_m7_parameters_mod_cubes_and_squares():
    # x4 -> s*x4 maps M7(A, B) onto M7(s^3 A, s^2 B), also for s < 0
    labels = {identify_degraaf(degraaf_constants("M7", (s**3 * 2, s**2 * 3)))
              for s in (Q(1), Q(2), Q(-1), Q(-1, 3))}
    assert len(labels) == 1
    (label,) = labels
    assert identify_degraaf(label.constants()) == label


def test_identify_unrecognized():
    # 4-dimensional abelian
    with pytest.raises(UnrecognizedFamily):
        identify_degraaf(StructureConstants.from_brackets(4, {}))
    # K2 + 2J has derived dimension 1
    with pytest.raises(UnrecognizedFamily):
        identify_degraaf(StructureConstants.from_brackets(4, {(0, 1): {1: 1}}))
    # sl2 (basis h, e, f) is its own derived algebra
    sl2 = StructureConstants.from_brackets(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    with pytest.raises(UnrecognizedFamily, match="derived dimension 3 is not solvable"):
        identify_degraaf(sl2)
    # Lie algebras whose refusal names its reason: gl2 = sl2 + J, whose
    # derived algebra sl2 is no Heisenberg algebra; x0 acting by
    # diag(1, 1, 2) on an abelian ideal, and by diag(1, 1, 0) on the
    # centralizer span(x1, x2, x3) of the derived plane, neither cyclic; x0
    # and x1 acting on the derived plane span(x2, x3) by 1 and by a matrix
    # with eigenvalues +-sqrt(2)
    for brackets, reason in [
            ({(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, "unexpected derived structure"),
            ({(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}}, "non-cyclic action"),
            ({(0, 1): {1: 1}, (0, 2): {2: 1}}, "non-cyclic action"),
            ({(0, 2): {2: 1}, (0, 3): {3: 1}, (1, 2): {3: 1}, (1, 3): {2: 2}},
             "irrational joint eigenvalues")]:
        sc = StructureConstants.from_brackets(4, brackets)
        assert satisfies_jacobi(sc)
        with pytest.raises(UnrecognizedFamily, match=reason):
            identify_degraaf(sc)


def test_a_table_that_breaks_jacobi_is_refused_before_identification():
    # [[x0, x1], x2] + [[x1, x2], x0] + [[x2, x0], x1] = 0 - x2 + 0, not 0,
    # so no Lie algebra has this table
    with pytest.raises(Sp4Error, match=r"Jacobi identity at \(0, 1, 2\)"):
        identify_degraaf(StructureConstants.from_brackets(
            3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 4).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=d, max_size=d),
    min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2))))
def test_from_brackets_refuses_exactly_the_tables_the_jacobi_oracle_refuses(case):
    d, rows = case
    pairs = list(itertools.combinations(range(d), 2))
    brackets = {p: {k: c for k, c in enumerate(r) if c} for p, r in zip(pairs, rows)}
    try:
        StructureConstants.from_brackets(d, brackets)
        refused = False
    except Sp4Error:
        refused = True
    assert refused == (not satisfies_jacobi(StructureConstants._make(d, rows, 1)))


def test_sw_lambda_branches():
    assert sw_lambda(Q(-3, 16)) == Q(1, 3)
    assert sw_lambda(Q(-2, 9)) == Q(1, 2)
    v = sw_lambda(Q(1))        # sqrt(5): lambda = (3 - sqrt5)/(-2) -> quadratic
    assert isinstance(v, QuadraticValue) and not v.imaginary and v.dsc == 5
    v = sw_lambda(Q(-1))       # complex of modulus 1
    assert isinstance(v, QuadraticValue) and v.imaginary and v.q > 0
    assert str(v) == "(-1/2+1/2*i*sqrt(3))"
    assert str(sw_lambda(Q(-1, 5))) == "(3/2-1/2*sqrt(5))"
    with pytest.raises(ZeroParameter):
        sw_lambda(Q(0))
    with pytest.raises(OutOfCatalog):
        sw_lambda(Q(-1, 4))


def test_sw_lambda_against_sympy():
    # lambda is the root of a*l^2 + (1+2a)*l + a with 0 < |l| <= 1 and, when
    # complex, Im l > 0: over square, non-square positive and negative
    # discriminants 1 + 4a
    sympy = pytest.importorskip("sympy")
    kinds = set()
    for a in {Q(n, d) for n in range(-12, 13) for d in range(1, 7)} - {Q(0), Q(-1, 4)}:
        lam = sw_lambda(a)
        if isinstance(lam, QuadraticValue):
            rad = sympy.sqrt(sympy.Rational(lam.dsc))
            lam = sympy.Rational(lam.p) + sympy.Rational(lam.q) * rad * (
                sympy.I if lam.imaginary else 1)
        else:
            lam = sympy.Rational(lam)
        kinds.add((1 + 4 * a > 0, lam.is_rational))
        al = sympy.Rational(a)
        assert sympy.expand(al * lam**2 + (1 + 2 * al) * lam + al) == 0, a
        assert 0 < sympy.Abs(lam) <= 1, a
        assert lam.is_real or sympy.im(lam) > 0, a
    assert kinds == {(True, True), (True, False), (False, False)}


def test_degraaf_to_sw_table():
    expect = {
        D("J"): "n_{1,1}", D("K1"): "2n_{1,1}", D("K2"): "s_{2,1}",
        D("L1"): "3n_{1,1}", D("L2"): "s_{3,1}(A=1)",
        D("L3", (Q(0),)): "n_{1,1}+s_{2,1}",
        D("L3", (Q(-1, 4),)): "s_{3,2}",
        D("L3", (Q(-3, 16),)): "s_{3,1}(A=1/3)",
        D("L3", (Q(-1, 5),)): "s_{3,1}(A=(3/2-1/2*sqrt(5)))",
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
    # a class is read as written: one outside the tables, or isomorphic to a
    # table class but not in the normal form identify_degraaf returns, is
    # refused, and the message names the classes the tables carry of its
    # family and does not call the isomorphic class absent
    for c in (D("L4", (Q(2),)), D("M14", (Q(3),)), D("L4", (Q(4),)), D("L4", (Q(1, 4),)),
              D("M14", (Q(9),)), D("M7", (Q(0), Q(4))), D("M7", (Q(0), Q(1, 9))),
              D("M6", (Q(0), Q(0))), D("M7", (Q(1), Q(0))),
              D("M6", (Q(1), Q(-1)))):  # t^3-t^2+t-1 = (t-1)(t^2+1)
        with pytest.raises(OutOfCatalog) as exc:
            degraaf_to_sw(c)
        msg = str(exc.value)
        assert "does not occur" not in msg, str(c)
        carried = [str(k) for k in identify._FIXED if k.family == c.family]
        assert carried and all(k in msg for k in carried), msg
    assert "M6(0,B) at every other nonzero value" in msg and "M6(A,B) at A != 0" in msg
    assert identify_degraaf(degraaf_constants("M7", (Q(0), Q(4)))) == D("M7", (Q(0), Q(1)))
    assert D("L4", (Q(4),)) != D("L4", (Q(1),))


_NONZERO = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(_NONZERO, min_size=3, max_size=3, unique=True),
    # a tie of largest modulus, r and -r
    st.tuples(_NONZERO, _NONZERO).map(lambda rx: [rx[0], -rx[0], rx[1]])
      .filter(lambda e: len(set(e)) == 3)))
def test_three_distinct_nonzero_eigenvalues_always_normalize(eigs):
    a, b = identify._normalize_s43(sorted(eigs))
    assert 0 < abs(b) <= abs(a) <= 1 and (a, b) != (-1, -1)
    assert identify._normalize_s43(eigs) == (a, b)


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
    two = sw_constants("2s_{2,1}")
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
    reached = set()
    for c in cases:
        label, iso = sw_bridge_map(c)
        assert verify_isomorphism(c.constants(), label.constants(), iso), str(c)
        if c.family == "M8":
            assert str(label) == "2s_{2,1}"   # rational bridge for s_{4,12}
        else:
            assert label == degraaf_to_sw(c)
        reached.add((c.family, degraaf_to_sw(c).name))
    # every (family, label) pair the translation can give: one per class of
    # the fixed table (the cubic's triple root s_{4,2} among them), one per
    # family of the lambda branch, and the cubic's s_{4,3}
    assert len(reached) == 23 == len(identify._FIXED) + len(identify._LAMBDA) + 1


def test_every_catalog_class_has_a_verified_bridge():
    from sp4solvable.catalog import load_catalog
    classes = {e.degraaf_at(a) for e in load_catalog() for a in e.samples()} - {None}
    assert len(classes) > 40
    for dg in classes:
        bridge_class, iso = sw_bridge_map(dg)
        assert verify_isomorphism(dg.constants(), bridge_class.constants(), iso), str(dg)


def test_sw_bridge_mutation_testing():
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
    with pytest.raises(OutOfCatalog):
        sw_bridge_map(D("L3", (Q(1),)))   # lambda in Q(sqrt(5))


def test_every_translated_class_has_a_verified_bridge():
    # every class of the grid that degraaf_to_sw translates gets columns
    # that verify_isomorphism accepts, or its lambda is irrational
    grid = [Q(x) for x in ("0 1 -1 4 -4 1/4 -1/4 2 9 1/9 -2/9 -3/16 -1/5 "
                           "-1/3 1/27 8/243 -26/81").split()]
    translated = irrational = 0
    for fam, (_, brackets) in identify._DEGRAAF.items():
        arity = identify._arity(brackets)
        for params in itertools.product(grid, repeat=arity):
            c = D(fam, params)
            try:
                label = degraaf_to_sw(c)
            except OutOfCatalog:
                continue
            translated += 1
            try:
                bridge_class, iso = sw_bridge_map(c)
            except OutOfCatalog:
                assert any(isinstance(p, QuadraticValue) for p in label.params), str(c)
                irrational += 1
                continue
            assert verify_isomorphism(c.constants(), bridge_class.constants(), iso), str(c)
    assert translated > 60 and irrational > 10


def _pairwise_oracle(src, tgt, columns):
    """The bracket transport checked pair by pair: the map is a bijection and
    sends each [x_i, x_j] to [f(x_i), f(x_j)]."""
    d = src.dim
    cols = [tuple(Q(x) for x in c) for c in columns]
    if len(rational_rref(cols)) != d:
        return False

    def apply(v):
        return tuple(sum((c * col[k] for c, col in zip(v, cols)), Q(0)) for k in range(d))
    return all(apply(src.table[i][j]) == bracket_coords_fraction(tgt, cols[i], cols[j])
               for i in range(d) for j in range(i + 1, d))


def test_verify_isomorphism_matches_the_pairwise_bracket_loop():
    from sp4solvable.catalog import load_catalog
    rng = random.Random(11)
    maps = []
    for e in load_catalog():
        if e.iso_columns is None:
            continue
        a = e.samples()[0]
        maps.append(((e.degraaf_at(a) or e.sw_at(a)).constants(),
                     structure_constants_for_basis(e.basis_at(a)), stated_columns(e, a)))
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
    from sp4solvable import structure
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
        raise AssertionError("a span was solved")
    # the library's two solves: a table moved to another basis, and the
    # inverse that gives a bridge's columns
    monkeypatch.setattr(structure.StructureConstants, "_moved", refuse)
    monkeypatch.setattr(identify, "inverse", refuse)
    found = set()
    for sub, dg, sig in instances:
        if dg is not None:
            assert identify_degraaf(sub.constants) == dg
            found.add(dg.family)
        assert signature(sub) == sig
    assert {"L2", "L3", "M12", "M13", "M14", "M6", "M7", "M8"} <= found


_DEGRAAF_INSTANCES = [(Subalgebra(echelon_span(e.basis_at(a))).constants, e.degraaf_at(a))
                      for e in load_catalog() if e.degraaf is not None for a in e.samples()]


@st.composite
def invertible(draw, d):
    """A random invertible d x d rational matrix: L U with L unit lower
    triangular and U upper triangular with nonzero diagonal."""
    small = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    low = [[Q(int(i == j)) if j >= i else draw(small) for j in range(d)] for i in range(d)]
    up = [[draw(st.sampled_from((Q(1), Q(-1), Q(2), Q(-3, 2)))) if i == j
           else (draw(small) if j > i else Q(0)) for j in range(d)] for i in range(d)]
    return [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_identify_every_catalog_table_in_a_random_basis(data):
    assert len(_DEGRAAF_INSTANCES) == 105
    for sc, stated in _DEGRAAF_INSTANCES:
        assert identify_degraaf(moved_constants(sc, data.draw(invertible(sc.dim)))) == stated


def test_identification_runs_on_ints(monkeypatch):
    # no coordinate row is put over a common den on the way to a label
    from sp4solvable import linalg, structure

    def refuse(*_):
        raise AssertionError("a rational row was scaled back to ints")
    for module in (identify, structure, linalg):
        monkeypatch.setattr(module, "_over_common_den", refuse, raising=False)
    assert all(identify_degraaf(sc) == stated for sc, stated in _DEGRAAF_INSTANCES)


def test_presentations_are_built_once_per_label():
    identify._build.cache_clear()
    first = degraaf_constants("M6", (Q(8, 243), Q(-26, 81)))
    # a list or a tuple, ints or Fractions: one key, one table
    assert degraaf_constants("M6", [Q(8, 243), Q(-26, 81)]) is first
    assert sw_constants("s_{4,3}", (1, 2)) is sw_constants("s_{4,3}", [Q(1), Q(2)])
    assert D("L3", (Q(2),)).constants() is degraaf_constants("L3", (2,))
    assert identify._build.cache_info().misses == 3
    for _ in range(2):  # a refusal is never cached
        with pytest.raises(OutOfCatalog, match="takes 2 parameters, 1 given"):
            degraaf_constants("M6", (Q(1),))
        with pytest.raises(OutOfCatalog, match="takes 0 parameters, 1 given"):
            sw_constants("n_{1,1}", [1])
    assert identify._build.cache_info().currsize == 3


def test_the_presentation_cache_stays_bounded():
    identify._build.cache_clear()
    clear_fact_caches()
    assert verify_catalog().overall_pass
    info = identify._build.cache_info()
    # each of the certification's 99 distinct labels built once, and none evicted
    assert info.currsize == info.misses == 99
    random_subalgebra_probe(11, 400)
    info = identify._build.cache_info()
    assert info.currsize <= info.maxsize == INSTANCE_CACHE_SIZE
