"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is bit-exact (exact rational arithmetic throughout); the
stated runtime expectations are reported, not asserted.
"""

import random
import time

from sp4solvable.catalog import load_catalog
from sp4solvable.identify import (identify_degraaf, tri_algebra_constants,
                                  verify_isomorphism)
from sp4solvable.invariants import nilpotent_subspace, pencil_rank_strata
from sp4solvable.jordan import classify_element, jordan_decompose, jordan_type
from sp4solvable.linalg import Mat4, char_poly, inverse, poly_eval_mat
from sp4solvable.presentations import DeGraafClass
from sp4solvable.rational import Q, ZERO
from sp4solvable.sp4 import X_ALPHA, X_BETA
from sp4solvable.structure import Subalgebra, structure_constants_for_basis
from sp4solvable.verify import verify_catalog, verify_separations

from conftest import (conjugator_pool, perturb_columns, random_borel_element,
                      random_sp4_element)
from oracles import char_poly_cofactor, grid_pencil_ranks

ENTRIES = load_catalog()
BY_ID = {e.row_id: e for e in ENTRIES}


def _report(num, label, t0):
    print(f"PASS criterion {num}: {label} ({time.time() - t0:.1f}s)")


def test_criterion_1_catalog_certification():
    """Every table row closed/solvable/of stated dimension at the default
    8-value sample set; every claimed equivalence realized by an explicit
    conjugator; every isomorphism map verified bracket-exactly."""
    t0 = time.time()
    rep = verify_catalog()
    assert rep.overall_pass, [r.to_json() for r in rep.failures[:10]]
    # no claim fell back to an exhausted search
    assert not any(r.status == "unverified" for r in rep.records)
    # the CLI front end agrees: exit code 0 at the default sample set
    from sp4solvable.cli import main
    import io, contextlib
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify-catalog"]) == 0
    counts = {}
    for r in rep.records:
        kind = r.check.split(":")[0].split("-")[0]
        counts[kind] = counts.get(kind, 0) + 1
    _report(1, f"catalog certification, {len(rep.records)} checks "
               f"({counts.get('equivalence', 0)} equivalences, "
               f"{counts.get('isomorphism', 0)} isomorphism maps)", t0)


def test_criterion_2_one_dimensional_classification():
    """classify_element is invariant under 20 random conjugator products on
    1000 randomized rational-spectrum elements, and the three nonzero
    nilpotent orbits are distinguished exactly by their Jordan types."""
    t0 = time.time()
    rng = random.Random(41)
    pool = conjugator_pool(rng, 20)
    pool_inv = [(g, inverse(g)) for g in pool]
    for _ in range(1000):
        x = random_borel_element(rng)
        g0, g0i = pool_inv[rng.randrange(20)]
        x = g0 * x * g0i
        label = classify_element(x)
        for g, gi in pool_inv:
            assert classify_element(g * x * gi) == label
    jcf = {"X_alpha": [2, 1, 1], "X_beta": [2, 2], "X_alpha_plus_X_beta": [4]}
    for row, expected in jcf.items():
        rep = {"X_alpha": X_ALPHA, "X_beta": X_BETA,
               "X_alpha_plus_X_beta": X_ALPHA + X_BETA}[row]
        for g, gi in pool_inv[:5]:
            y = g * rep * gi
            assert jordan_type(y)[ZERO] == expected
            assert classify_element(y).row == row
    _report(2, "1000 elements x 20 conjugators, labels invariant; "
               "nilpotent orbits (2,1,1)/(2,2)/(4) exact", t0)


def test_criterion_3_negative_pairs():
    """10000 random sp(4) elements have char polys with zero odd-degree
    coefficients (eigenvalues occur in negative pairs)."""
    t0 = time.time()
    rng = random.Random(43)
    for _ in range(10000):
        x = random_sp4_element(rng)
        p = char_poly(x)
        assert p[3] == 0 and p[1] == 0
    _report(3, "10000 char polys with vanishing odd coefficients", t0)


def test_criterion_4_trichotomy():
    """On a 50-point rational grid including +-2 the abstract <T,A,B> algebra
    identifies as L3_{-2r/(r+2)^2} / L2 / L4_1 per the trichotomy."""
    t0 = time.time()
    grid = [Q(2), Q(-2)] + [Q(k, 3) for k in range(-36, 36, 3)] + \
           [Q(k) for k in range(3, 27)]
    grid = grid[:50]
    assert Q(2) in grid and Q(-2) in grid and len(grid) == 50
    for r in grid:
        got = identify_degraaf(tri_algebra_constants(r))
        if r == 2:
            assert got == DeGraafClass("L2")
        elif r == -2:
            assert got == DeGraafClass("L4", (Q(1),))
        else:
            assert got == DeGraafClass("L3", (-2 * r / (r + 2) ** 2,))
    _report(4, "trichotomy exact on 50 grid points including +-2", t0)


def test_criterion_5_parameter_formulas():
    """The class-parameter formulas hold exactly at every admissible sample,
    and the specific stated values appear at the stated representatives."""
    t0 = time.time()
    e = BY_ID["d4_Ta1_np"]
    for a in e.samples():
        sc = structure_constants_for_basis(e.basis_at(a))
        expect = DeGraafClass("M6", (4 * a / (27 * (a + 1) ** 2),
                                     -2 * (a * a + 4 * a + 1) / (9 * (a + 1) ** 2)))
        assert identify_degraaf(sc) == expect
    e = BY_ID["d4_Ta1_Xb_Xab_Xa2b"]
    for a in e.samples():
        sc = structure_constants_for_basis(e.basis_at(a))
        assert identify_degraaf(sc) == DeGraafClass("M13", ((1 - a * a) / (4 * a * a),))
    e = BY_ID["d3_Ta1_Xa_Xab"]
    for a in e.samples():
        sc = structure_constants_for_basis(e.basis_at(a))
        assert identify_degraaf(sc) == DeGraafClass("L3", (-2 * (a + 1) / (a + 3) ** 2,))
    e = BY_ID["d3_Ta1_Xa_Xa2b"]
    for a in e.samples():
        sc = structure_constants_for_basis(e.basis_at(a))
        assert identify_degraaf(sc) == DeGraafClass("L3", (-a / (a + 1) ** 2,))
    specific = {
        "d3_T31_XaXb_Xa2b": DeGraafClass("L3", (Q(-3, 16),)),
        "d3_T10_Xab_Xa2b": DeGraafClass("L3", (Q(-2, 9),)),
        "d3_T10Xa_Xab_Xa2b": DeGraafClass("L3", (Q(-2, 9),)),
        "d3_T11Xb_Xab_Xa2b": DeGraafClass("L3", (Q(-1, 4),)),
        "d4_T31_XaXb_Xab_Xa2b": DeGraafClass("M13", (Q(-2, 9),)),
        "d4_T11Xb_Xa_Xab_Xa2b": DeGraafClass("M6", (Q(1, 27), Q(-1, 3))),
    }
    for row_id, expect in specific.items():
        sc = structure_constants_for_basis(BY_ID[row_id].basis_at(None))
        assert identify_degraaf(sc) == expect, row_id
    _report(5, "M6/M13/L3 parameter formulas and stated specific values exact", t0)


def test_criterion_6_inequivalence_separation():
    """Every pair of same-dimension instances the classification declares
    inequivalent is separated by a recorded signature field."""
    t0 = time.time()
    rep = verify_separations(ENTRIES)
    assert rep.overall_pass, [r.to_json() for r in rep.failures[:5]]
    from sp4solvable.verify import separation_witness
    w = separation_witness(BY_ID["d2_Xa_Xab"], None, BY_ID["d2_Xa_Xa2b"], None)
    assert "nilpotent_strata" in w                      # 1 vs 2 rank-1 lines
    w = separation_witness(BY_ID["d2_T10_Xa"], None, BY_ID["d2_T10_Xa2b"], None)
    assert "is_abelian" in w                            # abelian vs not
    w = separation_witness(BY_ID["d2_T10_Xb"], None, BY_ID["d2_T11_Xab"], None)
    assert w                                            # ad-eigenvalue data
    _report(6, "all declared-inequivalent pairs separated "
               f"({sum(int(r.check.split()[0]) for r in rep.records if 'pairs' in r.check)} pairs)", t0)


def test_criterion_7_isomap_mutation_testing():
    """For each encoded isomorphism map (row maps onto the class
    presentations, and catalog-bridge maps), at least 5 single-coefficient
    perturbations fail verification."""
    t0 = time.time()
    deltas = (Q(1), Q(-1), Q(1, 2), Q(2), Q(-3))

    def count_failures(src, tgt, iso):
        failures = 0
        for i in range(src.dim):
            for j in range(src.dim):
                for delta in deltas:
                    if not verify_isomorphism(src, tgt, perturb_columns(iso, i, j, delta)):
                        failures += 1
                    if failures >= 5:
                        return failures
        return failures

    from sp4solvable.identify import sw_bridge_map
    tested = bridges = 0
    for e in ENTRIES:
        if e.iso_columns is None:
            continue
        a = e.samples()[0]
        pres_sc = e.presentation_at(a).constants()
        sc = structure_constants_for_basis(e.basis_at(a))
        iso = e.iso_columns_at(a)
        assert verify_isomorphism(pres_sc, sc, iso), e.row_id
        assert count_failures(pres_sc, sc, iso) >= 5, e.row_id
        tested += 1
        dg = e.degraaf_at(a)
        if dg is not None and dg.family not in ("J", "K1", "L1"):
            label, bridge = sw_bridge_map(dg)
            tgt = label.constants()
            assert verify_isomorphism(dg.constants(), tgt, bridge), e.row_id
            assert count_failures(dg.constants(), tgt, bridge) >= 5, e.row_id
            bridges += 1
    assert tested >= 40 and bridges >= 30
    _report(7, f"{tested} row maps and {bridges} bridge maps each reject "
               ">= 5 perturbations", t0)


def test_criterion_8_oracle_cross_checks():
    """char_poly vs cofactor expansion on 200 random matrices; symbolic
    pencil strata vs grid sweep on all catalog nilpotent pencils; Jordan
    decomposition invariants on 1000 random Borel elements."""
    t0 = time.time()
    rng = random.Random(47)
    for _ in range(200):
        m = Mat4([[Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                  for _ in range(4)])
        assert char_poly(m) == char_poly_cofactor(m)

    pencils = 0
    for e in ENTRIES:
        for a in e.samples():
            sub = Subalgebra.from_matrices(e.basis_at(a))
            nsp = nilpotent_subspace(sub)
            if nsp.dim != 2:
                continue
            n1, n2 = nsp.basis
            strata = pencil_rank_strata(n1, n2)
            grid = grid_pencil_ranks(n1, n2)
            drops = dict(strata.rational_drops)
            for t, r in grid.items():
                if t == "inf":
                    expected = (strata.infinity_rank
                                if strata.infinity_rank is not None
                                else strata.generic_rank)
                else:
                    expected = drops.get(t, strata.generic_rank)
                assert r == expected, (e.row_id, a, t)
            assert max(grid.values()) == strata.generic_rank
            pencils += 1
    assert pencils >= 20

    for _ in range(1000):
        x = random_borel_element(rng)
        dec = jordan_decompose(x)
        assert dec.semisimple + dec.nilpotent == x
        assert (dec.semisimple * dec.nilpotent
                - dec.nilpotent * dec.semisimple).is_zero()
        n2 = dec.nilpotent * dec.nilpotent
        assert (n2 * n2).is_zero()
        sf = char_poly(dec.semisimple).squarefree_part()
        assert poly_eval_mat(sf, dec.semisimple).is_zero()
    _report(8, f"200 char-poly oracles, {pencils} pencil grid sweeps, "
               "1000 Jordan invariant checks", t0)
