import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable import sp4
from sp4solvable.catalog import DEFAULT_PARAM_SAMPLES, load_catalog
from sp4solvable.errors import ExpressionLimit, Sp4Error
from sp4solvable.linalg import Mat4, Subspace, _from_coords, char_poly, inverse
from sp4solvable.rational import Q
from sp4solvable.sp4 import (A_MAT, AJ_MAT, J_FORM, ROOT_LABELS, ROOT_VECTORS, T, W_MAT,
                             WA_MAT, X_A2B, X_AB, X_ALPHA, X_BETA, DiagonalElement, element,
                             block_sl2, bracket, conjugate,
                             conjugate_subalgebra, diag_conjugator, gl2_block,
                             in_sp4, in_sp4_group, parse_conjugator,
                             root_value, shear, standard_subalgebra,
                             weyl_orbit)
from sp4solvable.structure import is_closed

from conftest import random_borel_element, random_sp4_element, sp4_recipes
from oracles import in_sp4_product

rationals = st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 10**3))


def test_membership_examples():
    assert in_sp4(X_BETA)
    assert in_sp4(T(5, -2))
    assert not in_sp4(Mat4.diag(1, 0, 0, 0))
    assert in_sp4_group(W_MAT)
    assert in_sp4_group(A_MAT)
    assert not in_sp4_group(Mat4.identity() * 2)


def test_in_sp4_matches_the_product_definition_on_random_grids(rng):
    members = 0
    for _ in range(400):
        x = random_sp4_element(rng) * Q(1, rng.randint(1, 4))
        # zero some entries of an sp(4) element: it may stay inside or not
        m = Mat4._make([0 if rng.random() < 0.2 else v for v in x.num], x.den)
        grid = Mat4([[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
                     for _ in range(4)])
        for y in (m, grid):
            assert in_sp4(y) == in_sp4_product(y)
            members += in_sp4(y)
    assert 0 < members < 800


# the entries of [[A, B], [C, -A^t]] (B, C symmetric) that may change alone:
# the diagonals of B and C, whose units E13, E24, E31, E42 m -> J m^t J fixes
_FREE_ENTRIES = {2, 7, 8, 13}


def test_in_sp4_refuses_each_perturbed_entry(rng):
    for _ in range(40):
        x = random_sp4_element(rng) * Q(1, rng.randint(1, 4))
        assert in_sp4(x) and in_sp4_product(x)
        for u in range(16):
            for delta in (1, Q(-2, 3)):
                y = x + Mat4._make([int(k == u) for k in range(16)], 1) * delta
                assert in_sp4(y) == in_sp4_product(y) == (u in _FREE_ENTRIES)


def test_all_named_conjugators_symplectic():
    for g in (W_MAT, A_MAT, J_FORM, AJ_MAT, WA_MAT,
              shear("alpha", Q(1, 2)), shear("beta", -3),
              diag_conjugator(2, 3, Q(1, 2), Q(1, 3)),
              block_sl2(0, -1, 1, 0), gl2_block(1, 1, 1, -1)):
        assert in_sp4_group(g)


def test_bracket_relations():
    assert bracket(X_BETA, X_ALPHA) == X_AB
    assert bracket(X_BETA, X_AB) == X_A2B * 2
    assert bracket(T(5, 1), X_ALPHA) == X_ALPHA * 2
    assert bracket(T(3, 1), X_ALPHA + X_BETA) == (X_ALPHA + X_BETA) * 2
    for label, ev in (("alpha", 2), ("beta", 4), ("alpha_plus_beta", 6),
                      ("alpha_plus_2beta", 10)):
        assert root_value(label, 5, 1) == ev


def test_the_root_table_lays_out_the_matrix_displays():
    e = Mat4.unit
    assert ROOT_LABELS == ("alpha", "beta", "alpha_plus_beta", "alpha_plus_2beta")
    assert list(ROOT_VECTORS.values()) == [X_ALPHA, X_BETA, X_AB, X_A2B] == [
        e(2, 4), e(1, 2) - e(4, 3), e(1, 4) + e(2, 3), e(1, 3)]
    assert T(3, -2) == Mat4.diag(3, -2, -3, 2)
    assert element(1, Q(1, 2), 3, 4, 5, -6) == (
        T(1, Q(1, 2)) + X_ALPHA * 3 + X_BETA * 4 + X_AB * 5 - X_A2B * 6)


@pytest.mark.parametrize("a, b", [(5, 1), (2, 3), (Q(1, 2), -4), (0, 7), (-3, 0)])
def test_root_value_is_the_eigenvalue_of_ad_t(a, b):
    for label, x in ROOT_VECTORS.items():
        assert bracket(T(a, b), x) == x * root_value(label, a, b)


# each ten-coordinate unit goes to +- one other unit under conjugation:
# (target, sign) for units 0..9, the Cartan ones 0 and 5
WEYL_ON_COORDS = {
    "W": ((5, 1), (4, -1), (6, 1), (3, -1), (1, -1), (0, 1), (2, 1), (9, 1), (8, -1), (7, 1)),
    "A": ((0, 1), (3, 1), (2, 1), (1, -1), (8, 1), (5, -1), (9, -1), (7, 1), (4, -1), (6, -1)),
}


@pytest.mark.parametrize("name", WEYL_ON_COORDS)
def test_the_weyl_generators_permute_the_root_coordinates_with_signs(name):
    g, images = {"W": W_MAT, "A": A_MAT}[name], WEYL_ON_COORDS[name]
    assert sorted(j for j, _ in images) == list(range(10))
    for i, (j, sign) in enumerate(images):
        unit = _from_coords([int(k == i) for k in range(10)], 1)
        assert conjugate(g, unit) == _from_coords([sign * int(k == j) for k in range(10)], 1)


def test_conjugation_identities_from_the_tables():
    assert conjugate(W_MAT, T(3, 1)) == T(1, 3)
    assert conjugate(W_MAT, X_ALPHA) == X_A2B
    assert conjugate(W_MAT, X_A2B) == X_ALPHA
    assert conjugate(W_MAT, X_AB) == -X_AB
    assert conjugate(A_MAT, T(1, 1) + X_BETA) == T(1, -1) + X_AB
    assert conjugate(W_MAT, T(1, 0) + X_ALPHA) == T(0, 1) + X_A2B
    assert conjugate(A_MAT, X_BETA) == X_AB
    assert conjugate(AJ_MAT, T(5, 1)) == T(-5, 1)
    assert conjugate(AJ_MAT, X_ALPHA) == X_ALPHA
    assert conjugate(Mat4.identity(), X_ALPHA) == X_ALPHA


def test_conjugate_subalgebra_examples():
    s = Subspace([T(2, 1), X_ALPHA, X_A2B])
    img = conjugate_subalgebra(W_MAT, s)
    assert img == Subspace([T(Q(1, 2), 1), X_ALPHA, X_A2B])
    t_basis = Subspace([T(1, 0), T(0, 1)])
    assert conjugate_subalgebra(A_MAT, t_basis) == t_basis
    assert conjugate_subalgebra(Mat4.identity(), s) == s


def test_shear_examples():
    assert shear("alpha", 0) == Mat4.identity()
    # (id + z X_alpha) with z = d/(c*alpha(T)) conjugates c T + d X_alpha to c T
    c, d, b = Q(1), Q(3), Q(2)
    z = d / (c * root_value("alpha", b, 1))
    g = shear("alpha", z)
    assert conjugate(g, T(b, 1) * c + X_ALPHA * d) == T(b, 1) * c
    # shears preserve bracket-closure with the nilradical
    n = standard_subalgebra("n")
    g2 = shear("beta", 1)
    img = conjugate_subalgebra(g2, n)
    assert img == n  # the nilradical is normalized by N


def test_standard_subalgebra_dims_and_closure():
    t, n = [T(1, 0), T(0, 1)], [X_BETA, X_ALPHA, X_AB, X_A2B]
    spans = {"t": t, "b": t + n, "n": n, "n_p": n[1:],
             "p": t + n + [Mat4.unit(2, 1) - Mat4.unit(3, 4)]}  # Y_beta
    dims = {"t": 2, "b": 6, "n": 4, "p": 7, "n_p": 3}
    for name, d in dims.items():
        s = standard_subalgebra(name)
        assert s == Subspace(spans[name])
        assert s.dim == d
        assert all(in_sp4(m) for m in s.basis)
        assert is_closed(s)


def test_weyl_orbit():
    assert len(weyl_orbit(DiagonalElement(Q(1), Q(2)))) == 8
    orbit = {(e.a, e.b) for e in weyl_orbit(DiagonalElement(Q(1), Q(1)))}
    assert orbit == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert len(weyl_orbit(DiagonalElement(Q(0), Q(0)))) == 1


def test_parse_conjugator():
    assert parse_conjugator("W A") == W_MAT * A_MAT
    assert parse_conjugator("shear:alpha:1/2") == shear("alpha", Q(1, 2))
    assert parse_conjugator("diag:2,1,1/2,1") == Mat4.diag(2, 1, Q(1, 2), 1)
    assert parse_conjugator("diag:a,1,1/a,1", {"a": Q(3)}) == Mat4.diag(3, 1, Q(1, 3), 1)
    with pytest.raises(Sp4Error):
        parse_conjugator("diag:1,2,-1,-1/2")  # not symplectic
    with pytest.raises(Sp4Error):
        parse_conjugator("nonsense")
    # the evaluator's size bound is the caller's limit, not a malformed atom
    with pytest.raises(ExpressionLimit):
        parse_conjugator("shear:alpha:a^64", {"a": Q(2**100)})


def test_conjugator_atoms_refuse_values_outside_sp4():
    with pytest.raises(Sp4Error, match="determinant 1"):
        parse_conjugator("block:1,1,1,1")
    with pytest.raises(Sp4Error, match="invertible g"):
        parse_conjugator("glblock:1,2,2,4")
    with pytest.raises(Sp4Error, match="unknown standard subalgebra 'q'"):
        standard_subalgebra("q")
    with pytest.raises(Sp4Error, match="unknown root label 'gamma'"):
        parse_conjugator("shear:gamma:1")


atom_value = st.builds(Q, st.integers(-5, 5), st.integers(1, 4)).map(str)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["W", "A", "J", "AJ", "WA", "weyl_s_alpha", "weyl_s_beta", "identity",
                        "shear:alpha:", "shear:beta:", "shear:alpha_plus_beta:",
                        "shear:alpha_plus_2beta:", "diag:", "block:", "glblock:"]),
       st.lists(atom_value, min_size=4, max_size=4))
def test_every_conjugator_atom_is_in_sp4_or_refused(kind, values):
    # the recipe parser checks no membership: each atom's constructor
    # returns an element of Sp(4) or raises Sp4Error
    a, b, c, d = values
    atom = {"diag:": f"diag:{a},{b},1/({a}),1/({b})",
            "block:": f"block:{a},{b},{c},(1+({b})*({c}))/({a})",
            "glblock:": f"glblock:{a},{b},{c},{d}"}.get(
        kind, kind + a if kind.startswith("shear:") else kind)
    try:
        g = parse_conjugator(atom)
    except Sp4Error:
        # a zero denominator in the recipe, or a singular glblock
        assert "0" in (a, b) or Q(a) * Q(d) == Q(b) * Q(c)
        return
    assert in_sp4_group(g)


def test_default_param_samples():
    assert DEFAULT_PARAM_SAMPLES == (Q(2), Q(3), Q(5), Q(-2), Q(-3),
                                     Q(1, 2), Q(2, 3), Q(7, 3))


def test_bracket_properties_on_random_elements(rng):
    b_basis = standard_subalgebra("b")
    for _ in range(60):
        x = random_borel_element(rng)
        y = random_borel_element(rng)
        z = random_borel_element(rng)
        assert bracket(x, y) == -bracket(y, x)
        jac = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
               + bracket(z, bracket(x, y)))
        assert jac.is_zero()
    for _ in range(60):
        x = random_sp4_element(rng)
        y = random_sp4_element(rng)
        assert in_sp4(bracket(x, y))


def test_negative_pairs_lemma(rng):
    # eigenvalues of sp(4) elements occur in negative pairs: the char poly
    # has zero odd-degree coefficients
    for _ in range(300):
        x = random_sp4_element(rng)
        p = char_poly(x)
        assert p[1] == 0 and p[3] == 0


def test_conjugation_is_lie_automorphism(rng):
    g = parse_conjugator("W shear:beta:2 A")
    from sp4solvable.linalg import inverse
    gi = inverse(g)
    for _ in range(40):
        x = random_sp4_element(rng)
        y = random_sp4_element(rng)
        assert bracket(g * x * gi, g * y * gi) == g * bracket(x, y) * gi


# the standard subalgebras, and each catalog row at its first sample
_SPACES = [standard_subalgebra(n) for n in ("t", "b", "n", "p", "n_p")] + [
    e.space_at(e.samples()[0]) for e in load_catalog()]


@settings(max_examples=150, deadline=None)
@given(sp4_recipes, sp4_recipes, st.sampled_from(_SPACES))
def test_conjugate_subalgebra_inverts_symplectically(recipe, word, space):
    # -J g^t J is the inverse an elimination finds, and the sum over nonzeros
    # is g b g^-1, for every product of atoms; the span is first moved by a
    # random word, so that g and each b have up to 16 nonzeros
    g, h = parse_conjugator(recipe), parse_conjugator(word)
    s = Subspace([h * b * inverse(h) for b in space.basis])
    assert conjugate_subalgebra(g, s) == Subspace([g * b * inverse(g) for b in s.basis])


def test_conjugate_subalgebra_refuses_a_conjugator_outside_sp4():
    # on every call: the kept conjugations hold no refusal
    s = standard_subalgebra("b")
    kept = sp4._conjugation.cache_info().currsize
    for g in (Mat4.diag(2, 3, Q(1, 2), 1), Mat4.zero(), Mat4.diag(1, 1, 1, 1) * 2) * 2:
        with pytest.raises(Sp4Error, match=r"^conjugate_subalgebra needs a conjugator in Sp\(4\)$"):
            conjugate_subalgebra(g, s)
    assert sp4._conjugation.cache_info().currsize == kept


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(Q(0)), rationals), min_size=6, max_size=6))
def test_element_is_the_sum_of_its_root_parts(v):
    expected = Mat4.diag(v[0], v[1], -v[0], -v[1])
    assert T(v[0], v[1]) == expected
    for c, x in zip(v[2:], (X_ALPHA, X_BETA, X_AB, X_A2B)):
        expected = expected + x * c
    assert element(*v) == expected and in_sp4(expected)
