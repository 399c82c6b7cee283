import json
import random
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable import identify, invariants, structure, verify
from sp4solvable.identify import verify_isomorphism
from sp4solvable.catalog import (DEFAULT_PARAM_SAMPLES, INSTANCE_CACHE_SIZE, CatalogEntry,
                                 EquivClaim, catalog_from_json, load_catalog)
from sp4solvable.errors import (CatalogFault, DimensionMismatch, ExpressionLimit,
                                FactorizationLimit, IrrationalSpectrum, ProbeLimit, Sp4Error)
from sp4solvable.linalg import Mat4, char_poly
from sp4solvable.rational import Q
from sp4solvable.sp4 import T, X_ALPHA, X_BETA, conjugate_subalgebra
from sp4solvable.invariants import nilpotent_subspace, signature
from sp4solvable.structure import Subalgebra, generated_subalgebra
from sp4solvable.verify import (VerificationReport, match_catalog,
                                random_subalgebra_probe, verify_catalog,
                                verify_entry, verify_separations)

from conftest import (SIEGEL, clear_fact_caches, conjugator_pool, shipped_dicts, siegel_plane,
                      stated_columns)
from oracles import all_pairs_separations, eval_fraction

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import rowsigs  # noqa: E402
import sigdigest  # noqa: E402

RECORDED = json.loads((Path(__file__).resolve().parent / "outputs.json").read_text())

ENTRIES = {e.row_id: e for e in load_catalog()}


def separating_fields(*row_ids) -> list[str]:
    """The signature fields that separate two parameterless rows."""
    s1, s2 = (signature(Subalgebra(ENTRIES[r].space_at(None))) for r in row_ids)
    return s1.differing_fields(s2)


def test_verify_entry_examples():
    # the W equivalence of the regular 3-dim family at a = 2 <-> 1/2
    rep = verify_entry(ENTRIES["d3_Ta1_Xa_Xa2b"], params=(Q(2),))
    assert rep.overall_pass
    assert any("equivalence" in r.check for r in rep.records)
    # the 4-dim M2 row
    rep = verify_entry(ENTRIES["d4_T11_np"])
    assert rep.overall_pass
    assert any(r.check == "degraaf-class" and "M2" in r.detail for r in rep.records)
    # the 5-dim row with its bracket-exact map
    rep = verify_entry(ENTRIES["d5_T01_n"])
    assert rep.overall_pass
    assert any(r.check == "isomorphism-map" for r in rep.records)


def test_verify_catalog_all_rows_pass():
    rep = verify_catalog()
    assert rep.overall_pass, [r.to_json() for r in rep.failures[:5]]
    data = rep.to_json()
    assert data["overall_pass"] and data["checks"] == len(rep.records)
    text = rep.to_text()
    assert "all passed" in text


def test_row_with_no_admissible_sample_is_a_recorded_skip():
    rep = verify_entry(ENTRIES["d1_T_a1"], params=(Q(0), Q(1)))
    assert [(r.check, r.status) for r in rep.records] == [("parameter samples", "skip")]
    assert "0, 1" in rep.records[0].detail and rep.overall_pass
    # a row without parameter ignores the overrides
    assert verify_entry(ENTRIES["d4_T11_np"], params=(Q(0),)).records[0].status == "pass"


def test_probe_runs_only_for_a_positive_count():
    checks = [r.check for r in verify_catalog(params=(Q(2),), probe_seed=3, probe_count=2).records]
    assert sum("random subalgebras" in c for c in checks) == 1
    for count in (0, -5):
        rep = verify_catalog(params=(Q(2),), probe_count=count)
        assert not any(r.row_id == "probe" for r in rep.records)


def test_verify_catalog_builds_each_bracket_table_once(monkeypatch):
    calls = []
    # the one closure pass, which every table from matrices comes from

    def counting(space, original=structure._close_pairs):
        calls.append(space)
        return original(space)
    monkeypatch.setattr(structure, "_close_pairs", counting)

    def refuse(*_):
        raise AssertionError("a table was moved to another basis")
    # the label reads the echelon table, and the map check carries the stated
    # columns into echelon coordinates, so no table is moved
    monkeypatch.setattr(structure.StructureConstants, "_moved", refuse)
    verify._instance.cache_clear()
    assert verify_catalog().overall_pass
    # one table per catalog instance: the separations reuse the per-row ones
    assert 0 < len(calls) <= 120


def test_m6_cubic_is_rooted_once_per_instance(monkeypatch):
    calls = []
    original = identify.rational_roots

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(identify, "rational_roots", counting)

    def bridges_and_rootings(row_id):
        calls.clear()
        identify._translation.cache_clear()
        rep = verify_entry(ENTRIES[row_id])
        assert rep.overall_pass
        return sum(r.check == "sw-bridge" for r in rep.records), len(calls)
    # s_{4,3} at 8 samples, each rooted at most once; s_{4,2}, the triple
    # root, is a fixed class without parameter and is not rooted at all
    bridges, rootings = bridges_and_rootings("d4_Ta1_np")
    assert bridges == 8 and 0 < rootings <= 8
    assert bridges_and_rootings("d4_T11Xb_Xa_Xab_Xa2b") == (1, 0)


def test_each_declared_claim_leaves_exactly_one_record():
    """Over every row at the default samples, `verify_entry` records closure
    and then each declared (value, check) once, in order, and the claims
    among them are due at exactly the values `_claim_values` gives: so no
    claim can drop out of a report, and none needs a recount."""
    claims = {}
    for e in ENTRIES.values():
        declared, due = [], []
        for i, a in enumerate(e.samples(DEFAULT_PARAM_SAMPLES)):
            unused = VerificationReport()
            declared += [("closure+dimension", verify._p(a))] + [
                (check, verify._p(v)) for v, check, _ in
                verify._declared_checks(e, a, i == 0, unused)]
            assert not unused.records
            due += [(f"equivalence: {c.desc}", verify._p(v)) for c in e.equivalences
                    for v in verify._claim_values(c, a, i == 0)]
        records = verify_entry(e).records
        assert [(r.check, r.param) for r in records] == declared, e.row_id
        assert {r.status for r in records} == {"pass"}
        claims[e.row_id] = [x for x in declared if x[0].startswith("equivalence: ")]
        assert claims[e.row_id] == due, e.row_id
    # a parameterized row's claims at each of its 4 samples, and a row whose
    # restricted claim runs once, at its 4 stated values
    assert len(claims["d3_Ta1_Xa_Xa2b"]) == 8
    assert claims["d1_T11_Xb"] == [("equivalence: A image <T(1,-1)+X_alpha+beta>", "-")] + [
        ("equivalence: <T(a,a)+X_beta> rescales in for any a", v)
        for v in ("3", "5", "-2", "7/3")]


def test_verify_catalog_computes_each_derived_series_once(monkeypatch):
    calls = []
    original = structure._series

    def counting(s, lower=False):
        calls.append(lower)
        return original(s, lower)

    monkeypatch.setattr(structure, "_series", counting)
    # and any binding of it in `invariants`, where a signature would read it
    monkeypatch.setattr(invariants, "_series", counting, raising=False)
    verify._instance.cache_clear()
    assert verify_catalog().overall_pass
    # per instance one derived series (solvability and signature share it),
    # and no lower central series: no signature field reads one
    assert 0 < calls.count(False) <= 120 and calls.count(True) == 0
    verify._instance.cache_clear()


def test_the_names_the_benchmark_traces_do_the_work(monkeypatch):
    """Each kernel is wrapped, as the benchmark's tracer wraps it, on every
    `sp4solvable.*` module attribute bound to it; the separations of fresh
    instances must call each through that name."""
    from sp4solvable import jordan, linalg
    counts = {}
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sp4solvable" or n.startswith("sp4solvable."))]
    for owner, name in ((linalg, "rref"), (structure, "bracket_space"),
                        (jordan, "jordan_decompose"), (invariants, "pencil_rank_strata")):
        original = getattr(owner, name)
        counts[name] = 0

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    verify._instance.cache_clear()
    clear_fact_caches()
    assert verify_separations().overall_pass
    verify._instance.cache_clear()
    clear_fact_caches()
    assert all(counts.values()), counts


def test_each_fact_is_computed_once_per_object_it_depends_on(monkeypatch):
    """The pencil once per plane N(g) and the sw bridge once per de Graaf
    class, however many instances share them, and the Jordan decomposition
    once per instance whose x0 is non-regular (four distinct eigenvalues
    need none), as its head is computed once."""
    counts = dict.fromkeys(("pencil_rank_strata", "jordan_decompose", "sw_bridge_map"), 0)
    for owner, name in zip((invariants, invariants, verify), counts):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    planes, x0s, classes, non_regular = set(), set(), set(), 0
    for e in load_catalog():
        for a in e.samples():
            sub = Subalgebra(e.space_at(a))
            nspace = nilpotent_subspace(sub)
            if nspace.dim == 2:
                planes.add(nspace)
            if sub.dim - nspace.dim == 1:
                x0 = next(b for b in sub.basis if not nspace.contains(b))
                if char_poly(x0).squarefree_part().degree < 4:
                    x0s.add(x0)
                    non_regular += 1
            if e.degraaf is not None:
                classes.add(e.degraaf_at(a))
    verify._instance.cache_clear()
    clear_fact_caches()
    assert verify_separations().overall_pass
    assert (counts["pencil_rank_strata"], counts["jordan_decompose"]) == (len(planes),
                                                                          non_regular)
    assert (len(planes), len(x0s), non_regular) == (5, 7, 35)
    assert verify_catalog().overall_pass
    assert counts["sw_bridge_map"] == len(classes) == 42
    verify._instance.cache_clear()
    clear_fact_caches()


def test_a_codimension_2_query_needs_no_jordan_decomposition(monkeypatch):
    # match_catalog reads a codimension-2 query's parameter candidates off
    # the traces of its first non-nilpotent basis element, which is
    # non-regular (a repeated root of its char poly) on all 8 such catalog
    # instances; once every compared instance is built, matching them again
    # decomposes nothing
    spaces = [e.space_at(a) for e in load_catalog() for a in e.samples()
              if e.dim - nilpotent_subspace(Subalgebra(e.space_at(a))).dim == 2]
    non_regular = 0
    for space in spaces:
        sub = Subalgebra(space)
        x0 = next(b for b in sub.basis if not nilpotent_subspace(sub).contains(b))
        non_regular += char_poly(x0).squarefree_part().degree < 4
    assert (len(spaces), non_regular) == (8, 8)
    verify._instance.cache_clear()
    expected = [match_catalog(Subalgebra(space)) for space in spaces]
    clear_fact_caches()

    def refuse(x):
        raise AssertionError("jordan_decompose ran")
    monkeypatch.setattr(invariants, "jordan_decompose", refuse)
    assert [match_catalog(Subalgebra(space)) for space in spaces] == expected
    verify._instance.cache_clear()


def test_a_refusal_is_raised_again_on_every_call():
    # a trace-form radical with a non-nilpotent element is refused before
    # any fact is cached, and a plane that is not nilpotent from its pencil,
    # which is never cached
    clear_fact_caches()
    refusals = []
    for _ in range(2):
        with pytest.raises(IrrationalSpectrum) as exc:
            signature(Subalgebra.from_matrices(IRRATIONAL[4]))
        refusals.append(str(exc.value))
    assert refusals[0] == refusals[1]
    plane = Subalgebra.from_matrices([T(1, 0), X_ALPHA]).space
    for _ in range(2):
        with pytest.raises(Sp4Error, match="needs a nilpotent pencil in sp"):
            invariants._nilpotent_facts(plane)
    assert invariants._nilpotent_facts.cache_info().currsize == 0


def test_the_fact_caches_stay_bounded():
    assert verify_catalog(probe_count=400, probe_seed=11).overall_pass
    for cached in (invariants._nilpotent_facts, invariants._x0_facts,
                   verify._sw_bridge):
        info = cached.cache_info()
        assert 0 < info.currsize <= info.maxsize == INSTANCE_CACHE_SIZE


def test_separation_examples_record_witness_fields():
    # the derived series separates <T(1,0),X_a> (abelian) from the
    # W-conjugate of <T(0,1),X_a>
    assert "derived_dims" in separating_fields("d2_T10_Xa", "d2_T10_Xa2b")
    # rank-1 line counts separate the two nilpotent planes
    assert "nilpotent_strata" in separating_fields("d2_Xa_Xab", "d2_Xa_Xa2b")
    # ad-eigenvalue data separates the two singular-semisimple lines
    assert "probe" in separating_fields("d2_T10_Xb", "d2_T10_Xa2b")


def test_instance_memo_follows_content_not_row_id():
    original = ENTRIES["d2_T10_Xa"]
    sig = verify._instance(original, None).signature
    assert sig.differing_fields(verify._instance(original, None).signature) == []
    # same row_id, another row's basis: a new instance, not the memoized one
    edited = original.replace(basis=ENTRIES["d2_T10_Xa2b"].basis)
    assert sig.differing_fields(verify._instance(edited, None).signature)


def test_row_without_parameter_is_one_memo_entry(monkeypatch):
    built = []
    original = CatalogEntry.rows_at

    def counting(entry, a):
        built.append((entry.row_id, a))
        return original(entry, a)

    monkeypatch.setattr(CatalogEntry, "rows_at", counting)
    verify._instance.cache_clear()
    assert verify_catalog().overall_pass
    # its sample-restricted claim runs at four values of a, against one target
    assert [a for row, a in built if row == "d1_T11_Xb"] == [None]
    verify._instance.cache_clear()


def test_match_catalog_finds_the_nilpotent_subspace_once(monkeypatch):
    sub = generated_subalgebra([T(2, 1), X_ALPHA])
    calls = []
    original = invariants.nilpotent_subspace

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(invariants, "nilpotent_subspace", counting)
    verify._instance.cache_clear()
    assert match_catalog(sub) == [("d2_Ta1_Xa", Q(2))]
    assert sum(g is sub for g in calls) == 1
    verify._instance.cache_clear()


def test_inadmissible_target_parameter_is_a_recorded_skip():
    # the 1/a claim sends a = -1/3 to the excluded value -3
    rep = verify_entry(ENTRIES["d3_Ta1_Xa_Xab"], params=(Q(-1, 3),))
    skips = [r for r in rep.records if r.status == "skip"]
    assert [(r.check, r.param) for r in skips] == [
        ("equivalence: W joins <T(a,1), X_ab, X_a2b> at 1/a", "-1/3")]
    assert "1/a = -3 is not admissible" in skips[0].detail
    assert rep.overall_pass and rep.failures == []
    text = rep.to_text()
    assert "[ok ] d3_Ta1_Xa_Xab" in text and "skip: equivalence: W joins" in text
    assert text.endswith("all passed")


def test_params_leave_rows_without_parameter_alone():
    entry = ENTRIES["d1_T11_Xb"]
    rep = verify_entry(entry, params=(Q(3), Q(5)))
    assert rep.records == verify_entry(entry).records and rep.overall_pass
    rescales = [r for r in rep.records if "rescales in for any a" in r.check]
    # the sample-restricted claim runs at its own four values ...
    assert [r.param for r in rescales] == ["3", "5", "-2", "7/3"]
    # ... and every other check runs once, at no parameter
    assert {r.param for r in rep.records if r not in rescales} == {"-"}


def test_restricted_claim_runs_at_the_first_verified_sample():
    # a sample-restricted claim on a parameterized row, verified under params
    # that leave out the row's first default sample (2)
    rescale = next(c for c in ENTRIES["d1_T11_Xb"].equivalences if c.samples)
    claim = rescale.replace(tgt=ENTRIES["d1_T11_Xb"].basis)
    entry = ENTRIES["d1_T_a1"]
    assert entry.samples()[0] == 2
    entry = entry.replace(equivalences=entry.equivalences + (claim,))
    rep = verify_entry(entry, params=(Q(3), Q(5)))
    runs = [r for r in rep.records if r.check == f"equivalence: {claim.desc}"]
    assert [r.param for r in runs] == ["3", "5", "-2", "7/3"]
    assert rep.overall_pass


def test_unknown_recipe_is_a_failed_check():
    entry = ENTRIES["d1_T11_Xb"].replace(equivalences=(EquivClaim("by search", "search"),))
    failures = verify_entry(entry).failures
    assert [r.check for r in failures] == ["equivalence: by search"]
    assert "unknown conjugator atom" in failures[0].detail


def test_match_catalog_spec_examples():
    assert match_catalog(generated_subalgebra([X_ALPHA])) == [("d1_X_alpha", None)]
    m = match_catalog(generated_subalgebra([T(2, 1), X_ALPHA]))
    assert m == [("d2_Ta1_Xa", Q(2))]
    m = match_catalog(generated_subalgebra([X_ALPHA, X_BETA]))
    assert m == [("d4_n", None)]


def full_signature_match(sub: Subalgebra, sigs: dict) -> list:
    """`match_catalog` as full signatures compared: `signature` of the query,
    and of a fresh subalgebra of each candidate instance (kept in sigs)."""
    sig = signature(sub)
    cands = verify._param_candidates(invariants._SignatureWork(sub))
    matches = []
    for e in load_catalog():
        if e.dim != sub.dim:
            continue
        for a in e.samples(cands or ()):
            if (e, a) not in sigs:
                sigs[e, a] = signature(Subalgebra(e.space_at(a)))
            if sigs[e, a] == sig:
                matches.append((e.row_id, a))
                break
    if not matches and cands is None:
        raise IrrationalSpectrum("no rational row")
    return matches


def _levi(a) -> Mat4:
    """diag(A, -A^T) for a 2x2 int block A."""
    (p, q), (r, s) = a
    return Mat4([[p, q, 0, 0], [r, s, 0, 0], [0, 0, -p, -r], [0, 0, -q, -s]])


# inputs with irrational data: a line with irrational eigenvalues (no
# rational parameter), the same with the Siegel radical, T(1, 1) beside two
# planes of the Siegel radical whose rank-1 lines are a conjugate irrational
# pair, and an element of spectrum +-1, +-i beside a root vector it
# normalizes (its nilpotent subspace); all but the two planes are refused
IRRATIONAL = [[_levi([[0, 1], [1, 1]])], [_levi([[0, 1], [1, 1]]), *SIEGEL],
              [T(1, 1), SIEGEL[0] - SIEGEL[1], SIEGEL[2]],
              [T(1, 1), SIEGEL[0] * 2 - SIEGEL[1], SIEGEL[2]],
              [Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
               Mat4([[1, 0, -1, 0], [0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0]])]]


# parameter values outside DEFAULT_PARAM_SAMPLES, each admissible on every row
UNSAMPLED = (Q(4), Q(-5, 2), Q(11, 7), Q(1, 5))


def test_match_catalog_equals_the_full_signature_comparison():
    def outcome(f, sub):
        try:
            return f(sub)
        except IrrationalSpectrum as exc:
            return type(exc)

    rng = random.Random(20261019)
    pool = conjugator_pool(rng, n=40)
    subs = []
    for e in load_catalog():
        for a in e.samples():
            space = e.space_at(a)
            subs += [Subalgebra(space), Subalgebra(conjugate_subalgebra(rng.choice(pool), space))]
    # a conjugate of each parameterized row at each value no sample takes,
    # where only the certifier's claims at its samples back the orbit skips
    unsampled = [Subalgebra(conjugate_subalgebra(rng.choice(pool), e.space_at(a)))
                 for e in load_catalog() if e.param for a in e.samples(UNSAMPLED)]
    assert len(unsampled) == 32
    subs += unsampled
    refused = [Subalgebra.from_matrices(mats) for mats in IRRATIONAL]
    verify._instance.cache_clear()
    sigs: dict = {}
    for sub in subs + refused:
        assert outcome(match_catalog, sub) == outcome(
            lambda q: full_signature_match(q, sigs), sub)
    assert [outcome(match_catalog, sub) for sub in refused] == [
        IrrationalSpectrum, IrrationalSpectrum, [("d3_T11_Xa_Xa2b", None)],
        [("d3_T11_Xa_Xa2b", None)], IrrationalSpectrum]
    assert all(match_catalog(sub) for sub in subs)


def test_match_catalog_tries_each_parameter_orbit_once(monkeypatch):
    # x0 at a = 11/7 gives the candidates 7/11, -7/11, 11/7, -11/7 in that
    # order: d4_Ta1_np's orbits {a, 1/a} and the row's own {a, -a} are each
    # built at their first candidate, and no further once one matches
    g = conjugator_pool(random.Random(51), n=1)[0]
    sub = Subalgebra(conjugate_subalgebra(g, ENTRIES["d4_Ta1_Xb_Xab_Xa2b"].space_at(Q(11, 7))))
    built = []
    original = CatalogEntry.rows_at

    def counting(entry, a):
        built.append((entry.row_id, a))
        return original(entry, a)

    monkeypatch.setattr(CatalogEntry, "rows_at", counting)
    verify._instance.cache_clear()
    assert match_catalog(sub) == [("d4_Ta1_Xb_Xab_Xa2b", Q(11, 7))]
    assert [a for row, a in built if row == "d4_Ta1_np"] == [Q(7, 11), Q(-7, 11)]
    assert [a for row, a in built if row == "d4_Ta1_Xb_Xab_Xa2b"] == [Q(7, 11), Q(11, 7)]
    verify._instance.cache_clear()


def test_every_rational_twist_of_a_siegel_plane_beside_T11_gets_its_row():
    # T(1, 1) plus the plane tr(SQ) = 0 of the Siegel radical, for every
    # nonzero symmetric Q with entries in -3..3: over C a rank-2 Q gives
    # d3_T11_Xa_Xa2b (all rank-2 forms are congruent), split over Q or not,
    # and a rank-1 Q, whose plane has one rank-1 line, not two,
    # d3_T1m1_Xb_Xa2b
    found = {}
    for q11, q12, q22 in product(range(-3, 4), repeat=3):
        if q11 or q12 or q22:
            sub = Subalgebra.from_matrices([T(1, 1), *siegel_plane([[q11, q12], [q12, q22]])])
            rank = 1 if q11 * q22 == q12 * q12 else 2
            assert match_catalog(sub) == [
                ("d3_T11_Xa_Xa2b" if rank == 2 else "d3_T1m1_Xb_Xa2b", None)], (q11, q12, q22)
            found[rank] = found.get(rank, 0) + 1
    assert found == {1: 24, 2: 318}


def test_the_probe_runs_only_where_the_other_fields_agree(monkeypatch):
    probed = []
    original = invariants._spectral_probe

    def counting(s, *args):
        probed.append(s)
        return original(s, *args)

    monkeypatch.setattr(invariants, "_spectral_probe", counting)
    verify._instance.cache_clear()
    g = conjugator_pool(random.Random(5), n=1)[0]
    sub = Subalgebra(conjugate_subalgebra(g, ENTRIES["d3_Ta1_Xa_Xa2b"].space_at(Q(3))))
    assert [row for row, _ in match_catalog(sub)] == ["d3_Ta1_Xa_Xa2b"]
    query, *rows = probed
    assert query is sub and rows
    head = invariants._SignatureWork(sub).head
    assert all(invariants._SignatureWork(s).head == head for s in rows)
    # most compared instances differ before the probe
    assert len(rows) < verify._instance.cache_info().currsize / 2
    verify._instance.cache_clear()


def test_a_match_after_the_separations_computes_no_field_again(monkeypatch):
    verify._instance.cache_clear()
    entries = [e for e in load_catalog() if e.dim == 2]
    assert verify_separations(entries).overall_pass
    seen = {verify._instance(e, a).sub for e in entries for a in e.samples()}
    calls = []

    def counting(original):
        def f(s, *args, **kwargs):
            calls.append(s)
            return original(s, *args, **kwargs)
        return f

    # N(g), which the head reads first, and the probe
    for name in ("nilpotent_subspace", "_spectral_probe"):
        monkeypatch.setattr(invariants, name, counting(getattr(invariants, name)))
    for e in entries:
        a = e.samples()[0]
        assert match_catalog(Subalgebra(e.space_at(a)))[0][0] == e.row_id
    assert calls and not [s for s in calls if any(s is t for t in seen)]
    verify._instance.cache_clear()


def test_random_probe():
    rep = random_subalgebra_probe(20260809, 30)
    assert rep.overall_pass, [r.to_json() for r in rep.failures]
    # draws of every dimension count; Borel elements have rational spectra,
    # so no draw is skipped
    summary = rep.records[-1]
    assert summary.check == "30 random subalgebras matched (seed=20260809)"
    assert summary.detail == "30/30 matched, 0 skipped (irrational spectra)"


def test_report_header_names_the_samples_used():
    rep = verify_entry(ENTRIES["d1_T_a1"], params=(Q(3),))
    assert rep.to_json()["samples"] == ["3"]
    rep = verify_separations([ENTRIES["d1_T_a1"], ENTRIES["d1_T_10"]],
                             params=(Q(2), Q(1, 2)))
    assert rep.to_json()["samples"] == ["2", "1/2"]
    # a probe on its own evaluates rows at eigenvalue candidates only
    rep = random_subalgebra_probe(11, 5)
    assert rep.overall_pass and rep.to_json()["samples"] == []
    assert rep.to_text().splitlines()[0] == "parameter samples: "


def test_a_size_limit_in_a_row_is_raised_not_made_a_catalog_fault(monkeypatch):
    rows = [e.replace(excluded=("(2^64)^64",)) if e.row_id == "d1_T_a1" else e
            for e in load_catalog()]
    monkeypatch.setattr(verify, "load_catalog", lambda: rows)
    with pytest.raises(ExpressionLimit):
        match_catalog(generated_subalgebra([T(2, 1)]))


def test_claims_of_a_non_closed_instance_are_recorded_skips():
    # <X_alpha, X_beta> is not closed: [X_alpha, X_beta] = X_{alpha+beta}
    not_closed = ((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0))
    rep = verify_entry(ENTRIES["d1_T11_Xb"].replace(basis=not_closed))
    assert [(r.check, r.status) for r in rep.records][0] == ("closure+dimension", "fail")
    assert [(r.check, r.param) for r in rep.records[1:]] == (
        [("solvable", "-"), ("equivalence: A image <T(1,-1)+X_alpha+beta>", "-")]
        + [("equivalence: <T(a,a)+X_beta> rescales in for any a", a)
           for a in ("3", "5", "-2", "7/3")]
        + [("degraaf-class", "-"), ("sw-label", "-"), ("sw-bridge", "-")])
    assert all(r.status == "skip" and r.detail == "instance failed closure"
               for r in rep.records[1:])
    # a parameterized row: both claims at each of its samples
    entry = ENTRIES["d2_Ta1_Xa"].replace(basis=not_closed)
    claims = [r for r in verify_entry(entry).records if r.check.startswith("equivalence")]
    assert len(claims) == 2 * len(entry.samples())
    assert {r.status for r in claims} == {"skip"}
    verify._instance.cache_clear()


def test_misstated_degraaf_parameter_fails_records():
    # L3 with parameter 1 translates to an irrational label parameter, which
    # is formatted, not a crash
    rep = verify_entry(ENTRIES["d3_t_Xa"].replace(degraaf=("L3", ("(0)+1",))))
    assert not rep.overall_pass
    failed = {r.check for r in rep.failures if r.row_id == "d3_t_Xa"}
    assert {"degraaf-class", "isomorphism-map", "sw-bridge"} <= failed


def test_unbounded_param_orbit_fails_a_record():
    claim = {"desc": "a -> a+1", "recipe": "identity", "samples": None, "src": None,
             "tgt": None, "tgt_param": "a+1"}
    row = ENTRIES["d1_T_a1"].replace(equivalences=(EquivClaim(**claim),))
    stated = next(d for d in shipped_dicts() if d["row"] == "d1_T_a1")
    assert catalog_from_json([{**stated, "equiv": [claim]}]) == [row]
    rep = verify_separations([row, ENTRIES["d1_T_10"]], params=(Q(2), Q(3)))
    assert not rep.overall_pass
    fails = [(r.row_id, r.check) for r in rep.failures]
    assert fails == [("d1_T_a1", "parameter orbit")] * 2


def test_two_rows_with_one_signature_fail_the_separations():
    d = ENTRIES["d2_t"]
    rep = verify_separations([d, d.replace(row_id="dup")])
    assert [(r.check, r.detail) for r in rep.failures] == [
        ("1 inequivalent pairs", "d2_t@- ~ dup@-: signatures collide")]


def test_the_separations_count_the_bad_pairs_they_do_not_list():
    # four copies of one row make 6 colliding pairs: the first 4 are listed,
    # and the other 2 are counted
    d = ENTRIES["d2_t"]
    rep = verify_separations([d.replace(row_id=f"r{i}") for i in range(4)])
    (failure,) = rep.failures
    assert failure.check == "6 inequivalent pairs"
    assert failure.detail == ("r0@- ~ r1@-: signatures collide; r0@- ~ r2@-: signatures collide; "
                              "r0@- ~ r3@-: signatures collide; r1@- ~ r2@-: signatures collide; "
                              "2 more")


def test_four_bad_pairs_are_all_listed_with_no_count():
    # three copies of one row and two of another: 3 + 1 colliding pairs
    t, u = ENTRIES["d2_t"], ENTRIES["d2_T10_Xa"]
    rep = verify_separations([t.replace(row_id=f"t{i}") for i in range(3)]
                             + [u.replace(row_id=f"u{i}") for i in range(2)])
    (failure,) = rep.failures
    assert failure.check == "10 inequivalent pairs"
    assert failure.detail == ("t0@- ~ t1@-: signatures collide; t0@- ~ t2@-: signatures collide; "
                              "t1@- ~ t2@-: signatures collide; u0@- ~ u1@-: signatures collide")


def test_a_claimed_equivalence_the_signatures_deny_fails_the_separations():
    # a -> 5-a puts 2 and 3 in one orbit, but T(2,1) and T(3,1) are not conjugate
    claim = EquivClaim("a -> 5-a", "identity", tgt_param="5-a")
    rep = verify_separations([ENTRIES["d1_T_a1"].replace(equivalences=(claim,))])
    (failure,) = rep.failures
    assert "d1_T_a1@2 ~ d1_T_a1@3: equivalent params separated" in failure.detail


@pytest.mark.parametrize("case", ["shipped", "one row duplicated", "an orbit the signatures deny"])
def test_the_bucketed_separations_match_the_all_pairs_scan(case):
    # the records, pair counts, first four bad pairs in order and the count
    # of the rest, as a scan of every same-dimension pair gives them
    entries = load_catalog()
    if case == "one row duplicated":
        entries.append(ENTRIES["d1_T_a1"].replace(row_id="d1_T_a1_copy"))
    elif case == "an orbit the signatures deny":
        claim = EquivClaim("a -> 5-a", "identity", tgt_param="5-a")
        entries = [e.replace(equivalences=(claim,)) if e.row_id == "d1_T_a1" else e
                   for e in entries]
    got = [(r.row_id, r.check, r.status, r.detail)
           for r in verify_separations(entries).records]
    assert got == all_pairs_separations(entries, DEFAULT_PARAM_SAMPLES)
    fails = [detail for _, _, status, detail in got if status == "fail"]
    assert len(fails) == (case != "shipped")
    if case == "one row duplicated":
        assert fails[0].endswith(" more")


def test_the_stated_columns_are_read_as_ints_over_one_den():
    # every stated map at every sample is the `Fraction` evaluation of its texts
    n = 0
    for e in ENTRIES.values():
        if e.iso_columns is None:
            continue
        for a in e.samples():
            cols, den = e.iso_columns_at(a)
            assert den > 0 and all(type(x) is int for c in cols for x in c)
            env = {} if a is None else {"a": a}
            assert stated_columns(e, a) == [tuple(eval_fraction(str(x), env) for x in c)
                                            for c in e.iso_columns], (e.row_id, a)
            n += 1
    assert n == 98  # the isomorphism-map checks of one certification


def test_a_faulty_stated_map_fails_its_check_as_the_rational_reader_did():
    # the fail records (detail included) that the `Fraction` reader of the
    # stated columns gave: a pole at a sample, and a map that is not 3 x 3
    e = ENTRIES["d3_Ta1_Xa_Xa2b"]

    def map_record(row, a):
        (r,) = [r for r in verify_entry(row, params=(a,)).records if r.check == "isomorphism-map"]
        return r.status, r.detail

    pole = [list(c) for c in e.iso_columns]
    pole[1][2] = "1/(a-2)"
    assert map_record(e.replace(iso_columns=pole), Q(2)) == (
        "fail", "ZeroDivisionError('Fraction(1, 0)')")
    assert map_record(e.replace(iso_columns=pole), Q(3)) == (
        "fail", "L3(-3/16) -> <T(a,1), X_alpha, X_alpha+2beta>")
    mismatch = ("fail", "DimensionMismatch('isomorphism map has inconsistent dimensions')")
    for columns in (e.iso_columns[:2], (e.iso_columns[0][:2],) + e.iso_columns[1:],
                    e.iso_columns + (e.iso_columns[0],)):
        assert map_record(e.replace(iso_columns=columns), Q(3)) == mismatch
    src = e.degraaf_at(Q(3)).constants()
    with pytest.raises(DimensionMismatch):
        identify._square_map(src, src, e.replace(iso_columns=e.iso_columns[:2]).iso_columns_at(
            Q(3))[0])
    verify._instance.cache_clear()


def test_a_draw_that_matches_no_row_fails(monkeypatch):
    rows = [e for e in load_catalog() if e.row_id != "d1_T_a1"]
    monkeypatch.setattr(verify, "load_catalog", lambda: rows)
    rep = random_subalgebra_probe(11, 40)
    fails = [r.detail for r in rep.failures if r.check.startswith("seed draw")]
    assert fails and all(d.startswith("no catalog row matches signature of ") for d in fails)
    assert not rep.overall_pass


def replaced(x, path, value):
    """x with the item at `path` set to value; a path step is an attribute
    name of a row or claim, or an index into a tuple."""
    if not path:
        return value
    step, rest = path[0], path[1:]
    if isinstance(step, str):
        return x.replace(**{step: replaced(getattr(x, step), rest, value)})
    return x[:step] + (replaced(x[step], rest, value),) + x[step + 1:]


def separations(row):
    return verify_separations([row])


FAULTY_ROWS = {
    # a pole at the sample a = 2: in a class parameter, a map column, a basis
    "degraaf pole": ("d3_Ta1_Xa_Xa2b", ("degraaf", 1, 0), "1/(a-2)",
                     verify_entry, "degraaf-class"),
    "map pole": ("d2_Ta1_Xb", ("iso_columns", 0, 0), "1/(a-2)",
                 verify_entry, "isomorphism-map"),
    # a map column one entry short and one entry long
    "map column short": ("d2_Ta1_Xb", ("iso_columns", 0), ("1/(a-1)",),
                         verify_entry, "isomorphism-map"),
    "map column long": ("d2_Ta1_Xb", ("iso_columns", 0), ("1/(a-1)", 0, 0),
                        verify_entry, "isomorphism-map"),
    # a stated basis with one dependent element too many: it spans the
    # instance, but is no basis of it, with a map to check and without one
    "basis too long": ("d2_Ta1_Xb", ("basis",), (("a", 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                                 (0, 0, 0, 2, 0, 0)),
                       verify_entry, "closure+dimension"),
    "basis too long, no map": ("d1_T_a1", ("basis",), (ENTRIES["d1_T_a1"].basis[0],) * 2,
                               verify_entry, "closure+dimension"),
    "basis pole": ("d2_Ta1_Xb", ("basis", 0, 0), "1/(a-2)",
                   verify_entry, "closure+dimension"),
    # malformed text: a target parameter, a claim's stated sample
    "target parameter": ("d1_T_a1", ("equivalences", 0, "tgt_param"), "-a)",
                         verify_entry, "equivalence: a -> -a via AJ"),
    "claim sample": ("d1_T11_Xb", ("equivalences", 1, "samples"), ("3+",), verify_entry,
                     "equivalence: <T(a,a)+X_beta> rescales in for any a"),
    # a basis whose span is not closed
    "not closed": ("d3_t_Xa", ("basis", 2), (0, 0, 1, 1, 0, 0),
                   verify_entry, "closure+dimension"),
    # a stated basis of the right length with a dependent element: the
    # first repeated, the last dropped
    "dependent basis": ("d2_T31_XaXb", ("basis",), (ENTRIES["d2_T31_XaXb"].basis[0],) * 2,
                        verify_entry, "closure+dimension"),
    # an excluded value and a self-equivalence that do not evaluate
    "excluded": ("d1_T_a1", ("excluded",), ("0", "1)"), verify_entry, "parameter samples"),
    "excluded, separations": ("d1_T_a1", ("excluded",), ("0", "1)"),
                              separations, "parameter samples"),
    "target parameter, separations": ("d1_T_a1", ("equivalences", 1, "tgt_param"), "1/",
                                      separations, "parameter orbit"),
    # a stated sw label that the table does not carry: a wrong number of
    # parameters, a multiplicity that is not an integer >= 2, a dimension past 6
    "sw parameter count": ("d5_T01_n", ("sw",), ("s_{5,33}", ("1",)),
                           verify_entry, "isomorphism-map"),
    "sw parameter count, dim 6": ("d6_b", ("sw",), ("s_{6,242}", ("3", "4")),
                                  verify_entry, "isomorphism-map"),
    "sw parameter count, three": ("d5_t_np", ("sw",), ("s_{5,41}", ("1/2", "1/2", "9")),
                                  verify_entry, "isomorphism-map"),
    "sw multiplicity 0": ("d5_T01_n", ("sw",), ("0s_{5,33}", ()),
                          verify_entry, "isomorphism-map"),
    "sw multiplicity 00": ("d5_T01_n", ("sw",), ("00s_{5,33}", ()),
                           verify_entry, "isomorphism-map"),
    "sw multiplicity 1": ("d5_T01_n", ("sw",), ("1s_{5,33}", ()),
                          verify_entry, "isomorphism-map"),
    "sw past dimension 6": ("d5_T01_n", ("sw",), ("100000s_{2,1}", ()),
                            verify_entry, "isomorphism-map"),
}


@pytest.mark.parametrize("case", FAULTY_ROWS)
def test_a_faulty_row_fails_records_instead_of_raising(case):
    row_id, path, value, run, check = FAULTY_ROWS[case]
    start = time.perf_counter()
    rep = run(replaced(ENTRIES[row_id], path, value))
    assert time.perf_counter() - start < 1.0
    assert not rep.overall_pass
    assert (row_id, check) in {(r.row_id, r.check) for r in rep.failures}
    verify._instance.cache_clear()


@pytest.mark.parametrize("case", ["map column short", "map column long"])
def test_a_map_of_the_wrong_shape_fails_as_a_dimension_mismatch(case):
    row_id, path, value, run, check = FAULTY_ROWS[case]
    rep = run(replaced(ENTRIES[row_id], path, value))
    assert {r.detail for r in rep.failures if r.check == check} == {
        "DimensionMismatch('isomorphism map has inconsistent dimensions')"}
    verify._instance.cache_clear()


def map_status(row, a) -> str:
    """The status of the row's `isomorphism-map` record at sample a."""
    rep = VerificationReport()
    body = next(b for _, c, b in verify._declared_checks(row, a, False, rep)
                if c == "isomorphism-map")
    verify._record(rep, row.row_id, a, "isomorphism-map", body)
    return rep.records[-1].status


def raised(x):
    """A map column entry raised by 1: an int, or the text of an expression."""
    return x + 1 if isinstance(x, int) else f"({x})+1"


def test_the_map_check_agrees_with_the_rational_map_on_the_stated_table():
    # the stated columns carried into echelon coordinates and checked on the
    # echelon table, against `verify_isomorphism` on the table moved to the
    # stated basis, for every stated map and each entry raised by 1
    statuses = Counter()
    for e in ENTRIES.values():
        if e.iso_columns is None:
            continue
        for row in [e] + [replaced(e, ("iso_columns", i, k), raised(x))
                          for i, col in enumerate(e.iso_columns) for k, x in enumerate(col)]:
            for a in row.samples():
                inst = verify._instance(row, a)
                want = verify_isomorphism((row.degraaf_at(a) or row.sw_at(a)).constants(),
                                          inst.sub.constants_in(row.basis_at(a)),
                                          stated_columns(row, a))
                status = map_status(row, a)
                assert status == ("pass" if want else "fail"), (row.row_id, a)
                statuses[status] += 1
    verify._instance.cache_clear()
    # 98 stated maps and 1209 raised entries, of which 220 still give an isomorphism
    assert statuses == {"pass": 98 + 220, "fail": 989}


def test_every_declared_check_of_a_non_closed_instance_is_a_skip():
    row_id, path, value, _, _ = FAULTY_ROWS["not closed"]
    rep = verify_entry(replaced(ENTRIES[row_id], path, value))
    assert [(r.check, r.status) for r in rep.records] == [
        ("closure+dimension", "fail"), ("solvable", "skip"),
        ("equivalence: W image <t, X_alpha+2beta>", "skip"), ("degraaf-class", "skip"),
        ("isomorphism-map", "skip"), ("sw-label", "skip"), ("sw-bridge", "skip")]
    assert "not closed" in rep.records[0].detail
    # the separations record the row's signature as what failed
    rep = separations(replaced(ENTRIES[row_id], path, value))
    assert [r.check for r in rep.failures] == ["signature"]
    verify._instance.cache_clear()


def catalog_with(monkeypatch, rows):
    """The shipped catalog with `rows` in place of (or after) its own rows,
    as the probe and `match_catalog` read it."""
    by_id = {e.row_id: e for e in rows}
    patched = [by_id.pop(e.row_id, e) for e in load_catalog()] + list(by_id.values())
    monkeypatch.setattr(verify, "load_catalog", lambda: patched)


def test_a_faulty_row_fails_probe_draws_instead_of_raising(monkeypatch):
    row_id, path, value, _, _ = FAULTY_ROWS["excluded"]
    catalog_with(monkeypatch, [replaced(ENTRIES[row_id], path, value)])
    with pytest.raises(CatalogFault, match="row d1_T_a1: ValueError"):
        match_catalog(generated_subalgebra([T(2, 1)]))
    rep = random_subalgebra_probe(1, 5)
    fails = [r.detail for r in rep.failures if r.check.startswith("seed draw")]
    assert fails and all(d.startswith("row d1_T_a1: ValueError(") for d in fails)
    assert rep.records[-1].detail == f"{5 - len(fails)}/5 matched, 0 skipped (irrational spectra)"


def test_a_probe_draw_with_irrational_spectra_is_still_a_skip(monkeypatch):
    # every 2-dimensional draw made irrational; the faulty row fails the 1-dimensional ones
    row_id, path, value, _, _ = FAULTY_ROWS["excluded"]
    catalog_with(monkeypatch, [replaced(ENTRIES[row_id], path, value)])
    candidates = verify._param_candidates

    def irrational_in_dim_2(work):
        if work.sub.dim == 2:
            raise IrrationalSpectrum("made irrational")
        return candidates(work)

    monkeypatch.setattr(verify, "_param_candidates", irrational_in_dim_2)
    rep = random_subalgebra_probe(11, 40)
    fails = [r for r in rep.failures if r.check.startswith("seed draw")]
    assert fails and all(r.detail.startswith("row d1_T_a1:") for r in fails)
    matched, skipped = rep.records[-1].detail.split(", ")
    assert skipped != "0 skipped (irrational spectra)"
    assert matched == f"{40 - len(fails)}/40 matched"


def test_a_draw_that_matches_two_rows_fails_naming_them(monkeypatch):
    copy = ENTRIES["d1_T_a1"].replace(row_id="d1_T_a1_copy")
    catalog_with(monkeypatch, [copy])
    assert match_catalog(generated_subalgebra([T(2, 1)])) == [
        ("d1_T_a1", Q(1, 2)), ("d1_T_a1_copy", Q(1, 2))]
    rep = random_subalgebra_probe(11, 40)
    fails = [r.detail for r in rep.failures if r.check.startswith("seed draw")]
    assert fails
    for detail in fails:
        assert detail.startswith("signature matches 2 rows: d1_T_a1@")
        assert ", d1_T_a1_copy@" in detail
    assert not rep.overall_pass


def test_the_stored_row_signatures_are_the_computed_ones():
    # the shipped file is what tools/rowsigs.py writes from the catalog: a
    # changed signature, or a parameter-free row left out, fails here
    assert Path(verify.ROW_SIGNATURES_FILE).read_text(encoding="utf-8").splitlines() == (
        rowsigs.render().splitlines())
    stored = verify._row_signatures()
    free = [e for e in load_catalog() if not e.param]
    assert len(free) == len(stored) == 57
    for e in free:
        assert stored[e.row_id, e.basis] == verify._instance(e, None).signature.to_json()


def test_the_stored_signatures_match_as_the_built_rows_do(monkeypatch):
    # with no stored signature every row is built: the sigdigest catalog
    # matches and the records of the probe at seed 11 are the same
    def run():
        matches = sigdigest.digest_lines(1)[2]
        return matches, [r.to_json() for r in random_subalgebra_probe(11, 400).records]
    shipped = run()
    assert shipped[0] == RECORDED["sigdigest catalog matches"]
    monkeypatch.setattr(verify, "_row_signatures", lambda: {})
    built = []
    instance = verify._instance
    monkeypatch.setattr(verify, "_instance",
                        lambda e, a: built.append(e.row_id) or instance(e, a))
    assert run() == shipped
    assert {e.row_id for e in load_catalog() if not e.param} <= set(built)


def test_a_row_is_compared_by_its_stored_signature_only_with_its_own_basis(monkeypatch):
    # d1_T_10 given the basis of d1_T_11: no stored entry has that row and
    # that basis, so the row is built as an instance and matches <T(1,1)>
    # beside d1_T_11, which is read from the file
    basis = ENTRIES["d1_T_11"].basis
    catalog_with(monkeypatch, [ENTRIES["d1_T_10"].replace(basis=basis)])
    built, instance = [], verify._instance
    monkeypatch.setattr(verify, "_instance", lambda e, a: built.append(e.row_id) or instance(e, a))
    assert match_catalog(generated_subalgebra([T(1, 1)])) == [("d1_T_10", None),
                                                              ("d1_T_11", None)]
    assert built == ["d1_T_10"]


def test_a_probe_count_above_the_bound_raises_before_any_work(monkeypatch):
    monkeypatch.setattr(verify, "PROBE_COUNT_BOUND", 3)
    assert random_subalgebra_probe(1, 3).overall_pass
    work = []
    monkeypatch.setattr(verify, "load_catalog", lambda: work.append("catalog") or [])
    monkeypatch.setattr(verify, "generated_subalgebra", lambda seeds: work.append(seeds))
    with pytest.raises(ProbeLimit, match="PROBE_COUNT_BOUND = 3"):
        random_subalgebra_probe(1, 4)
    with pytest.raises(ProbeLimit):
        verify_catalog(params=(Q(2),), probe_count=4)
    assert work == []


def expression_paths(x, path=()):
    """The paths of every expression of a row that verify_entry reads."""
    if isinstance(x, CatalogEntry):
        for name in ("basis", "excluded", "iso_columns", "equivalences"):
            yield from expression_paths(getattr(x, name), (name,))
        for name in ("degraaf", "sw"):
            if getattr(x, name) is not None:
                yield from expression_paths(getattr(x, name)[1], (name, 1))
    elif isinstance(x, EquivClaim):
        for name in ("src", "tgt", "tgt_param", "samples"):
            yield from expression_paths(getattr(x, name), path + (name,))
    elif isinstance(x, tuple):
        for i, y in enumerate(x):
            yield from expression_paths(y, path + (i,))
    elif x is not None:
        yield path


EXPRESSION_SLOTS = [(row_id, p) for row_id, e in ENTRIES.items() for p in expression_paths(e)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPRESSION_SLOTS), st.text(alphabet="a0123456789+-*/^()", max_size=8))
def test_a_row_with_one_expression_replaced_gives_records(slot, text):
    row_id, path = slot
    try:
        rep = verify_entry(replaced(ENTRIES[row_id], path, text))
    except (ExpressionLimit, FactorizationLimit):
        return  # a size bound is the caller's, not the row's: the CLI exits 3
    assert isinstance(rep, VerificationReport) and rep.records
