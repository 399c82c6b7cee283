import pytest

from sp4solvable import catalog, exprs
from sp4solvable.catalog import (DEFAULT_PARAM_SAMPLES, EXPECTED_COUNTS, CatalogEntry,
                                 EquivClaim, catalog_from_json, load_catalog)
from sp4solvable.errors import Sp4Error
from sp4solvable.jordan import classify_element
from sp4solvable.rational import Q
from sp4solvable.sp4 import in_sp4
from sp4solvable.structure import Subalgebra, is_solvable

from conftest import shipped_dicts


def test_frozen_row_counts():
    entries = load_catalog()
    assert len(entries) == 65
    by_table = {}
    for e in entries:
        by_table[e.table] = by_table.get(e.table, 0) + 1
    assert by_table == EXPECTED_COUNTS
    assert len({e.row_id for e in entries}) == 65


def test_the_tables_are_read_once_and_each_call_gets_its_own_list():
    first, second = load_catalog(), load_catalog()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    first.clear()
    assert len(load_catalog()) == 65


def test_every_row_is_a_solvable_subalgebra_of_stated_dimension():
    for e in load_catalog():
        for a in e.samples():
            mats = e.basis_at(a)
            assert all(in_sp4(m) for m in mats), e.row_id
            sub = Subalgebra.from_matrices(mats)
            assert sub.dim == e.dim, (e.row_id, a)
            assert is_solvable(sub), (e.row_id, a)


# the one-dimensional tables twice: the kind of `classify_element` label
# that each d1 row's line carries
_D1_KINDS = {
    "d1_T_a1": "T_ab", "d1_T_10": "T_a0", "d1_T_11": "T_aa",
    "d1_X_alpha": "X_alpha", "d1_X_beta": "X_beta", "d1_Xa_plus_Xb": "X_alpha_plus_X_beta",
    "d1_T10_Xa": "T_a0_plus_X_alpha", "d1_T11_Xb": "T_aa_plus_X_beta",
}


def test_each_d1_row_is_one_kind_of_element():
    rows = [e for e in load_catalog() if e.dim == 1]
    assert sorted(e.row_id for e in rows) == sorted(_D1_KINDS)
    # one to one onto the 8 nonzero kinds (the ninth label is zero)
    assert len(set(_D1_KINDS.values())) == 8
    checked = 0
    for e in rows:
        for a in e.samples():
            (x,) = e.space_at(a).basis
            label = classify_element(x)
            assert label.row == _D1_KINDS[e.row_id], (e.row_id, a)
            if label.row == "T_ab":
                orbit = e.equivalent_params(a)
                assert orbit == {a, -a, 1 / a, -1 / a}
                assert label.params["b"] / label.params["a"] in orbit, (e.row_id, a, label)
            checked += 1
    assert checked == 7 + len(DEFAULT_PARAM_SAMPLES)


def test_specific_rows_carry_the_stated_classes():
    entries = {e.row_id: e for e in load_catalog()}
    assert str(entries["d2_T10_Xa"].degraaf_at(None)) == "K1"
    assert str(entries["d2_Ta1_Xb"].degraaf_at(Q(2))) == "K2"
    assert str(entries["d3_T31_XaXb_Xa2b"].degraaf_at(None)) == "L3(-3/16)"
    assert str(entries["d6_b"].sw_at(None)) == "s_{6,242}"
    assert str(entries["d5_Ta1_n"].sw_at(Q(3))) == "s_{5,35}(A=1)"
    assert str(entries["d4_Ta1_np"].degraaf_at(Q(2))) == "M6(8/243,-26/81)"
    # a row without an isomorphism map has no columns at any parameter
    assert entries["d1_T_a1"].iso_columns is None
    assert entries["d1_T_a1"].iso_columns_at(Q(2)) is None


def test_equivalent_params_closure():
    entries = {e.row_id: e for e in load_catalog()}
    assert entries["d1_T_a1"].equivalent_params(Q(2)) == {
        Q(2), Q(-2), Q(1, 2), Q(-1, 2)}
    assert entries["d3_Ta1_Xa_Xa2b"].equivalent_params(Q(2)) == {Q(2), Q(1, 2)}
    assert entries["d4_Ta1_Xb_Xab_Xa2b"].equivalent_params(Q(3)) == {Q(3), Q(-3)}
    assert entries["d3_Ta1_Xa_Xab"].equivalent_params(Q(2)) == {Q(2)}
    # 1/a has no value at 0, so it adds nothing to the orbit of 0
    assert "1/a" in {c.tgt_param for c in entries["d1_T_a1"].equivalences}
    assert entries["d1_T_a1"].equivalent_params(0) == {Q(0)}


# the orbit of 7 under each parameterized row's self-equivalences, as the
# tables state the maps: a -> -a and a -> 1/a, or one of them, or none
ORBITS_OF_7 = {
    "d1_T_a1": {Q(7), Q(-7), Q(1, 7), Q(-1, 7)},
    "d2_Ta1_Xa": {Q(7), Q(-7)},
    "d2_Ta1_Xb": {Q(7), Q(1, 7)},
    "d3_Ta1_Xa_Xab": {Q(7)},
    "d3_Ta1_Xa_Xa2b": {Q(7), Q(1, 7)},
    "d4_Ta1_np": {Q(7), Q(1, 7)},
    "d4_Ta1_Xb_Xab_Xa2b": {Q(7), Q(-7)},
    "d5_Ta1_n": {Q(7)},
}


def test_each_parameterized_row_closes_its_stated_orbit():
    # the orbit is read off the claims the certifier proves by a conjugator
    rows = {e.row_id: e for e in load_catalog() if e.param}
    assert {r: e.equivalent_params(Q(7)) for r, e in rows.items()} == ORBITS_OF_7


def test_only_claims_on_the_rows_own_basis_at_any_a_extend_the_orbit():
    row = {e.row_id: e for e in load_catalog()}["d2_Ta1_Xa"]
    plain = EquivClaim("a -> a+1", "identity", tgt_param="a+1")
    for stated in ({"src": row.basis}, {"tgt": row.basis}, {"samples": ("2",)}):
        claim = plain.replace(**stated)
        assert row.replace(equivalences=(claim,)).equivalent_params(Q(7)) == {Q(7)}
    with pytest.raises(Sp4Error, match="exceeds 8 values"):
        row.replace(equivalences=(plain,)).equivalent_params(Q(7))


def test_sample_filtering():
    entries = {e.row_id: e for e in load_catalog()}
    samples = entries["d3_Ta1_Xa_Xab"].samples()
    assert Q(-3) not in samples and Q(2) in samples
    assert entries["d2_t"].samples() == (None,)


def test_row_facts_are_evaluated_once_and_a_fault_each_time(monkeypatch):
    evaluated = []
    original = exprs.eval_expr

    def counting(text, env=None):
        evaluated.append(text)
        return original(text, env)

    monkeypatch.setattr(exprs, "eval_expr", counting)
    catalog._constant.cache_clear()
    row = next(e for e in load_catalog() if e.row_id == "d1_T_a1").replace(
        excluded=("0", "7/11", "1)"))
    assert row.param and row.param
    # "1)" is not reached at a = 0 or 7/11, and raises wherever it is reached
    assert not row.conditions_ok(0) and not row.conditions_ok(Q(7, 11))
    for _ in range(2):
        with pytest.raises(ValueError):
            row.samples()
    assert evaluated.count("0") == 1 and evaluated.count("7/11") == 1
    assert evaluated.count("1)") == 2


def test_catalog_json_roundtrip():
    entries = load_catalog()
    data = shipped_dicts()
    assert catalog_from_json(data) == entries
    # the derived keys are written for readers, and not needed to load
    for d in data:
        del d["table"], d["param"]
        if d["isomap"] is not None:
            del d["isomap"]["source"]
        if d["sw"] == "auto":
            del d["sw"]
    assert catalog_from_json(data) == entries


def test_each_file_row_writes_the_keys_its_row_derives():
    # the keys written for readers agree with the row they load as
    sources, sws = set(), set()
    for d, row in zip(shipped_dicts(), load_catalog(), strict=True):
        assert (d["row"], d["table"], d["param"]) == (row.row_id, row.table, row.param)
        if row.sw is None:
            assert d["sw"] == ("auto" if row.degraaf else None), row.row_id
        sws.add("stated" if isinstance(d["sw"], dict) else d["sw"])
        assert (d["isomap"] is None) == (row.iso_columns is None), row.row_id
        if d["isomap"] is not None:
            assert d["isomap"]["source"] == ("degraaf" if row.degraaf else "sw"), row.row_id
            sources.add(d["isomap"]["source"])
    assert sources == {"degraaf", "sw"} and sws == {"auto", "stated"}


def test_equal_rows_hash_equal_and_survive_the_json_round_trip():
    rows = load_catalog()
    copies = catalog_from_json(shipped_dicts())
    assert copies == rows
    assert all(c is not r and hash(c) == hash(r) for c, r in zip(copies, rows))
    assert len(set(rows) | set(copies)) == 65
    assert rows[0] != rows[1] and rows[0] != rows[0].row_id


def test_lists_become_tuples_at_any_depth():
    spec = ["a", 1, 0, 0, 0, ["x"]]
    row = CatalogEntry("r", 1, "T", [spec], equivalences=[EquivClaim("d", "W", src=[spec])])
    assert row.basis == (("a", 1, 0, 0, 0, ("x",)),)
    assert row.equivalences[0].src == row.basis
    assert row == CatalogEntry("r", 1, "T", (tuple(spec[:5]) + (("x",),),),
                               equivalences=(EquivClaim("d", "W", src=row.basis),))
    replaced = row.replace(excluded=["0", ["1"]], iso_columns=[[1, 0], [0, 1]])
    assert replaced.excluded == ("0", ("1",))
    assert replaced.iso_columns == ((1, 0), (0, 1))
    assert replaced.basis == row.basis and replaced.replace() == replaced
    assert len({row, replaced, replaced.replace(excluded=("0", ("1",)))}) == 2


def test_a_row_is_frozen():
    row = next(r for r in load_catalog() if r.equivalences)
    dim = row.dim
    with pytest.raises(AttributeError):
        row.dim = dim + 1
    with pytest.raises(AttributeError):
        del row.basis
    with pytest.raises(AttributeError):
        row.comment = "x"
    with pytest.raises(AttributeError):
        row.equivalences[0].recipe = "W"
    assert row in load_catalog() and row.dim == dim


def test_an_unknown_or_missing_field_raises_type_error():
    row = load_catalog()[0]
    with pytest.raises(TypeError):
        CatalogEntry("r", 1, "T", (), colour="red")
    with pytest.raises(TypeError):
        row.replace(colour="red")
    with pytest.raises(TypeError):
        EquivClaim("d", "W", None, None, None, None, "extra")
    with pytest.raises(TypeError):
        EquivClaim("d", "W", desc="twice")
    with pytest.raises(TypeError):
        CatalogEntry("r", 1, "T")
    with pytest.raises(TypeError):
        catalog_from_json([{**shipped_dicts()[0], "equiv": [{"desc": "d"}]}])
    assert repr(EquivClaim("d", "W")) == ("EquivClaim(desc='d', recipe='W', src=None, "
                                          "tgt=None, tgt_param=None, samples=None)")
