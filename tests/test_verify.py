import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable import identify, invariants, structure, verify
from sp4solvable.catalog import (DEFAULT_PARAM_SAMPLES, CatalogEntry, EquivClaim,
                                 catalog_from_json, load_catalog)
from sp4solvable.errors import (CatalogFault, ExpressionLimit, FactorizationLimit,
                                IrrationalSpectrum, ProbeLimit)
from sp4solvable.linalg import Mat4
from sp4solvable.rational import Q
from sp4solvable.sp4 import T, X_ALPHA, X_BETA, conjugate_subalgebra
from sp4solvable.invariants import signature
from sp4solvable.structure import Subalgebra, generated_subalgebra
from sp4solvable.verify import (VerificationReport, match_catalog,
                                random_subalgebra_probe, verify_catalog,
                                verify_entry, verify_separations)

from conftest import conjugator_pool, shipped_dicts

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


def test_a_claim_that_leaves_no_record_fails_the_report(monkeypatch):
    def claim_values(e):
        return [(c.desc, v) for i, a in enumerate(e.samples(DEFAULT_PARAM_SAMPLES))
                for c in e.equivalences for v in verify._claim_values(c, a, i == 0)]

    # a parameterized row, and a row whose claim runs at stated values once
    rows = [ENTRIES["d3_Ta1_Xa_Xa2b"], ENTRIES["d1_T11_Xb"]]
    for e in rows:
        assert not [r for r in verify_entry(e).records if r.status != "pass"]
    record = verify._record

    def dropping_claims(rep, row_id, param, check, body):
        if not check.startswith("equivalence: "):
            return record(rep, row_id, param, check, body)
    monkeypatch.setattr(verify, "_record", dropping_claims)
    for e in rows:
        rep = verify_entry(e)
        missing = [r for r in rep.records if r.detail == "the claim left no record"]
        assert not rep.overall_pass and all(r.status == "fail" for r in missing)
        assert ([(r.check, r.param) for r in missing]
                == [(f"equivalence: {d}", verify._p(v)) for d, v in claim_values(e)])
        assert len(missing) == (8 if e.param else 1 + 4)


def test_verify_catalog_computes_each_derived_series_once(monkeypatch):
    calls = []
    original = structure._series

    def counting(s, lower=False):
        calls.append(lower)
        return original(s, lower)

    monkeypatch.setattr(structure, "_series", counting)
    monkeypatch.setattr(invariants, "_series", counting)
    verify._instance.cache_clear()
    assert verify_catalog().overall_pass
    # per instance one derived series (solvability and signature share it)
    # and one lower central series
    assert 0 < calls.count(False) <= 120 and 0 < calls.count(True) <= 120
    verify._instance.cache_clear()


def test_separation_examples_record_witness_fields():
    # abelian flag separates <T(1,0),X_a> from the W-conjugate of <T(0,1),X_a>
    assert "is_abelian" in separating_fields("d2_T10_Xa", "d2_T10_Xa2b")
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
    original = CatalogEntry.basis_at

    def counting(entry, a):
        built.append((entry.row_id, a))
        return original(entry, a)

    monkeypatch.setattr(CatalogEntry, "basis_at", counting)
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
    monkeypatch.setattr(verify, "nilpotent_subspace", counting)
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
    cands = verify._param_candidates(sub, invariants.nilpotent_subspace(sub))
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


SIEGEL = [Mat4.unit(1, 3), Mat4.unit(2, 4), Mat4.unit(1, 4) + Mat4.unit(2, 3)]
# refused by match_catalog: a line with irrational eigenvalues (no rational
# parameter), the same with the Siegel radical, T(1, 1) beside two planes of
# the Siegel radical whose rank-1 lines are a conjugate irrational pair (the
# query's probe), and an element of spectrum +-1, +-i beside a root vector
# it normalizes (its nilpotent subspace)
IRRATIONAL = [[_levi([[0, 1], [1, 1]])], [_levi([[0, 1], [1, 1]]), *SIEGEL],
              [T(1, 1), SIEGEL[0] - SIEGEL[1], SIEGEL[2]],
              [T(1, 1), SIEGEL[0] * 2 - SIEGEL[1], SIEGEL[2]],
              [Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
               Mat4([[1, 0, -1, 0], [0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0]])]]


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
    refused = [Subalgebra.from_matrices(mats) for mats in IRRATIONAL]
    verify._instance.cache_clear()
    sigs: dict = {}
    for sub in subs + refused:
        assert outcome(match_catalog, sub) == outcome(
            lambda q: full_signature_match(q, sigs), sub)
    assert [outcome(match_catalog, sub) for sub in refused] == [IrrationalSpectrum] * 5
    assert all(match_catalog(sub) for sub in subs)


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
    head = signature(sub).head
    assert all(signature(s).head == head for s in rows)
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
        def f(s, *args):
            calls.append(s)
            return original(s, *args)
        return f

    for module, name in ((invariants, "_signature_head"), (verify, "_signature_head"),
                         (invariants, "_spectral_probe"), (verify, "nilpotent_subspace")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
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
    row = ENTRIES["d1_T_a1"].replace(param_equiv=("a+1",))
    stated = next(d for d in shipped_dicts() if d["row"] == "d1_T_a1")
    assert catalog_from_json([{**stated, "param_equiv": ["a+1"]}]) == [row]
    rep = verify_separations([row, ENTRIES["d1_T_10"]], params=(Q(2), Q(3)))
    assert not rep.overall_pass
    fails = [(r.row_id, r.check) for r in rep.failures]
    assert fails == [("d1_T_a1", "parameter orbit")] * 2


def test_two_rows_with_one_signature_fail_the_separations():
    d = ENTRIES["d2_t"]
    rep = verify_separations([d, d.replace(row_id="dup")])
    assert [(r.check, r.detail) for r in rep.failures] == [
        ("1 inequivalent pairs", "('d2_t@-', 'dup@-', '', 'signatures collide')")]


def test_a_claimed_equivalence_the_signatures_deny_fails_the_separations():
    # a -> 5-a puts 2 and 3 in one orbit, but T(2,1) and T(3,1) are not conjugate
    rep = verify_separations([ENTRIES["d1_T_a1"].replace(param_equiv=("5-a",))])
    (failure,) = rep.failures
    assert ("('d1_T_a1', Fraction(2, 1), Fraction(3, 1), 'equivalent params separated')"
            in failure.detail)


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
    # an excluded value and a self-equivalence that do not evaluate
    "excluded": ("d1_T_a1", ("excluded",), ("0", "1)"), verify_entry, "parameter samples"),
    "excluded, separations": ("d1_T_a1", ("excluded",), ("0", "1)"),
                              separations, "parameter samples"),
    "param_equiv": ("d1_T_a1", ("param_equiv",), ("-a", "1/"),
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

    def irrational_in_dim_2(sub, nspace):
        if sub.dim == 2:
            raise IrrationalSpectrum("made irrational")
        return candidates(sub, nspace)

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
