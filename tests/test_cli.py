import argparse
import hashlib
import json
import time
from pathlib import Path

import pytest

from sp4solvable import catalog, cli, errors, verify
from sp4solvable.catalog import load_catalog
from sp4solvable.cli import build_parser, main
from sp4solvable.linalg import Mat4
from sp4solvable.sp4 import T, X_A2B, X_AB, X_ALPHA, X_BETA, standard_subalgebra
from sp4solvable.structure import Subalgebra


@pytest.fixture
def tn_path(tmp_path):
    sub = Subalgebra.from_matrices([T(1, 1), X_BETA, X_ALPHA, X_AB, X_A2B])
    p = tmp_path / "tn.json"
    p.write_text(json.dumps(sub.to_json()))
    return str(p)


@pytest.fixture
def ta_path(tmp_path):
    sub = Subalgebra.from_matrices([T(2, 1), X_ALPHA])
    p = tmp_path / "ta.json"
    p.write_text(json.dumps(sub.to_json()))
    return str(p)


def test_identify_tn_is_s537(tn_path, capsys):
    assert main(["identify", "--input", tn_path, "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sw"] == "s_{5,37}"
    assert out["catalog_rows"] == [{"row": "d5_T11_n", "param": None}]


def test_identify_dim2(ta_path, capsys):
    assert main(["identify", "--input", ta_path, "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degraaf"] == "K2" and out["sw"] == "s_{2,1}"


def test_classify_element_cli(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text(json.dumps(X_A2B.to_json()))
    assert main(["classify-element", "--input", str(p), "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["row"] == "X_alpha" and out["table"] == 2


def test_conjugate_cli_roundtrip(ta_path, tmp_path, capsys):
    assert main(["conjugate", "--input", ta_path, "--conjugator", "W",
                 "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    img = Subalgebra.from_json({"ambient": out["ambient"], "basis": out["basis"]})
    assert img.space == Subalgebra.from_matrices([T(1, 2), X_A2B]).space


def test_invariants_cli(ta_path, capsys):
    assert main(["invariants", "--input", ta_path, "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 2 and out["ss_content"] == "has_regular_ss"


def test_export_catalog_roundtrips(capsys):
    assert main(["export-catalog"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 65
    from sp4solvable.catalog import catalog_from_json
    assert len(catalog_from_json(data)) == 65


def test_export_catalog_output_is_pinned(capsys):
    # the catalog's wire format: derived keys are still written, byte for byte
    assert main(["export-catalog"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "af747a945f919184c3ce449a105aaf3250f52b4e81843c7f21cfa56ea6b49b34"


def test_export_catalog_prints_the_shipped_data_file(capsys):
    # the tables ship as the export itself: loading and exporting round-trip
    assert main(["export-catalog"]) == 0
    shipped = Path(catalog.__file__).with_name("catalog.json").read_bytes()
    assert capsys.readouterr().out.encode() == shipped


def test_a_closed_stdout_ends_the_command_with_exit_0(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["export-catalog"]) == 0


def test_export_catalog_refuses_a_drifted_row_count_before_printing(monkeypatch, capsys):
    monkeypatch.setattr(catalog, "EXPECTED_COUNTS", {**catalog.EXPECTED_COUNTS, 5: 7})
    catalog._shipped.cache_clear()
    try:
        assert main(["export-catalog"]) == 2
    finally:
        catalog._shipped.cache_clear()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: catalog row counts drifted")


@pytest.mark.parametrize("command", ["identify", "invariants", "conjugate",
                                     "classify-element"])
def test_commands_that_use_no_samples_print_none(command, ta_path, tmp_path, capsys):
    path, extra = ta_path, []
    if command == "classify-element":
        path = tmp_path / "x.json"
        path.write_text(json.dumps(X_ALPHA.to_json()))
    elif command == "conjugate":
        extra = ["--conjugator", "W"]
    assert main([command, "--input", str(path), *extra, "--output", "json"]) == 0
    assert "samples" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", ["classify-element", "identify"])
def test_string_matrix_rows_are_a_parse_error(command, tmp_path, capsys):
    # each row a string: read one character at a time, it looked like X_alpha
    grid = ["0000", "0001", "0000", "0000"]
    data = grid if command == "classify-element" else {"ambient": "sp4", "basis": [grid]}
    p = tmp_path / "string_rows.json"
    p.write_text(json.dumps(data))
    assert main([command, "--input", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_two_calls_build_one_parser(ta_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    build_parser.cache_clear()
    assert main(["invariants", "--input", ta_path]) == 0
    first = len(built)
    assert first > 0
    assert main(["invariants", "--input", ta_path]) == 0
    assert len(built) == first


# every error class that does not end in exit 2, the default
NON_DEFAULT_EXIT = {"CatalogFault": 1, "ExpressionLimit": 3, "FactorizationLimit": 3,
                    "IrrationalSpectrum": 3, "NotSolvable": 3, "ProbeLimit": 3,
                    "UnrecognizedFamily": 3, "UnsupportedDimension": 3}


@pytest.mark.parametrize("cls", [c for c in vars(errors).values()
                                 if isinstance(c, type) and issubclass(c, errors.Sp4Error)])
def test_each_error_class_ends_in_its_exit_code(cls, monkeypatch, capsys):
    def raising():
        raise cls("boom")
    monkeypatch.setattr(cli, "load_catalog", raising)
    code = NON_DEFAULT_EXIT.get(cls.__name__, 2)
    assert cls.exit_code == code
    assert main(["export-catalog"]) == code
    prefix = "error" if code == 2 else cls.__name__
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("[[nope")
    assert main(["identify", "--input", str(p)]) == 2
    p2 = tmp_path / "notclosed.json"
    p2.write_text(json.dumps({"ambient": "sp4", "basis": [
        X_ALPHA.to_json(), X_BETA.to_json()]}))
    assert main(["identify", "--input", str(p2)]) == 2


def test_irrational_spectrum_exit_code(tmp_path, capsys):
    # char poly t^4 - 1: eigenvalues +-1, +-i
    from sp4solvable.linalg import Mat4
    weird = Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    p = tmp_path / "weird.json"
    p.write_text(json.dumps(weird.to_json()))
    assert main(["classify-element", "--input", str(p)]) == 3


def test_unsupported_dimension_exits_3_without_the_spectrum_hint(tmp_path, capsys):
    # the characteristic-polynomial hint belongs to classify-element's eigenvalues only
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ambient": "sp4", "basis": []}))
    assert main(["identify", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("UnsupportedDimension:") and "characteristic" not in err


def test_deterministic_output(ta_path, capsys):
    main(["identify", "--input", ta_path, "--output", "json"])
    first = capsys.readouterr().out
    main(["identify", "--input", ta_path, "--output", "json"])
    assert capsys.readouterr().out == first


def test_verify_catalog_cli_small(capsys, monkeypatch):
    # restricted sample set keeps the CLI path fast; full run is in acceptance
    assert main(["verify-catalog", "--params", "2,1/2", "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["overall_pass"] is True
    assert out["samples"] == ["2", "1/2"]


def test_verify_catalog_cli_records_a_skipped_claim(capsys):
    # at a = -1/3 the 1/a claim of d3_Ta1_Xa_Xab targets the excluded -3
    assert main(["verify-catalog", "--params=-1/3", "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["overall_pass"] is True
    skips = [r for r in out["records"] if r["status"] == "skip"]
    assert [(r["row"], r["param"]) for r in skips] == [("d3_Ta1_Xa_Xab", "-1/3")]
    assert "not admissible" in skips[0]["detail"]


@pytest.mark.parametrize("args, option, value", [
    (["verify-catalog", "--output", "json"], "--params", "-1/3,2"),
    (["conjugate", "--input", "TA", "--conjugator", "shear:alpha:a"], "--param", "-1/3"),
])
def test_negative_first_value_after_a_space(args, option, value, ta_path, capsys):
    args = [ta_path if a == "TA" else a for a in args]
    assert main(args + [option, value]) == 0
    spaced = capsys.readouterr().out
    assert main(args + [f"{option}={value}"]) == 0
    assert capsys.readouterr().out == spaced


def test_identify_borel_cli(tmp_path, capsys):
    from sp4solvable.sp4 import T as TT
    sub = Subalgebra.from_matrices([TT(1, 0), TT(0, 1), X_BETA, X_ALPHA,
                                    X_AB, X_A2B])
    p = tmp_path / "b.json"
    p.write_text(json.dumps(sub.to_json()))
    assert main(["identify", "--input", str(p), "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sw"] == "s_{6,242}"
    assert out["catalog_rows"] == [{"row": "d6_b", "param": None}]


def test_verify_catalog_with_probe(capsys):
    assert main(["verify-catalog", "--params", "2", "--probe-count", "5",
                 "--seed", "3", "--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert any("random subalgebras" in r["check"] for r in out["records"])


@pytest.mark.parametrize("count", ["-1", "-5", "two"])
def test_bad_probe_count_is_a_parse_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-catalog", "--probe-count", count])
    assert exc.value.code == 2
    assert "--probe-count" in capsys.readouterr().err


def test_a_probe_count_above_the_bound_exits_3_before_any_work(monkeypatch, capsys):
    start = time.perf_counter()
    assert main(["verify-catalog", "--probe-count", "999999999999999999999"]) == 3
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"PROBE_COUNT_BOUND = {verify.PROBE_COUNT_BOUND}" in captured.err
    # the bound itself is allowed, one more draw is not
    monkeypatch.setattr(verify, "PROBE_COUNT_BOUND", 2)
    assert main(["verify-catalog", "--params", "2", "--probe-count", "2"]) == 0
    assert main(["verify-catalog", "--params", "2", "--probe-count", "3"]) == 3


def test_verify_catalog_reports_every_row_when_no_param_is_admissible(capsys):
    # 0, 1 and -1 are excluded on every parameterized row
    assert main(["verify-catalog", "--params", "0,1,-1", "--output", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert {r["row"] for r in records} >= {e.row_id for e in load_catalog()}
    skipped = [r for r in records if r["check"] == "parameter samples"]
    assert len(skipped) == 8
    assert all(r["status"] == "skip" and "0, 1, -1" in r["detail"]
               and "did not run" in r["detail"] for r in skipped)


@pytest.mark.parametrize("command", ["classify-element", "identify", "invariants",
                                     "conjugate"])
def test_zero_denominator_entry_is_a_parse_error(command, tmp_path, capsys):
    grid = X_ALPHA.to_json()
    grid[0][0] = "1/0"
    data = grid if command == "classify-element" else {"ambient": "sp4",
                                                       "basis": [grid]}
    p = tmp_path / "zero_den.json"
    p.write_text(json.dumps(data))
    extra = ["--conjugator", "W"] if command == "conjugate" else []
    assert main([command, "--input", str(p), *extra]) == 2
    assert "parse error" in capsys.readouterr().err


def test_malformed_params_are_a_parse_error(capsys):
    assert main(["verify-catalog", "--params", "2,x"]) == 2
    assert main(["verify-catalog", "--params", "2,1/0"]) == 2
    assert "--params" in capsys.readouterr().err


def test_empty_params_are_a_parse_error(capsys):
    # an empty list is not "the defaults": it names no sample at all
    assert main(["verify-catalog", "--params", ""]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "--params" in err


def test_empty_param_is_a_parse_error(ta_path, capsys):
    assert main(["conjugate", "--input", ta_path, "--conjugator", "shear:alpha:a",
                 "--param", ""]) == 2
    assert "--param" in capsys.readouterr().err


def test_a_repeated_sample_is_verified_once(capsys):
    assert main(["verify-catalog", "--params", "2", "--output", "json"]) == 0
    once = capsys.readouterr().out
    assert main(["verify-catalog", "--params", "2,4/2", "--output", "json"]) == 0
    assert capsys.readouterr().out == once
    assert main(["verify-catalog", "--params", "1/2,2,1/2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "parameter samples: 1/2, 2"


def test_a_sample_past_the_expression_bound_is_out_of_domain(capsys):
    # at a 700-digit a, (a+3)^2 in a de Graaf parameter of d3_Ta1_Xa_Xab is above
    # the evaluator's power bound: exit 3 with the reason, not a traceback
    assert main(["verify-catalog", "--params", "9" * 700]) == 3
    assert "ExpressionLimit: power above" in capsys.readouterr().err


def test_a_recipe_past_the_expression_bound_is_out_of_domain(ta_path, capsys):
    assert main(["conjugate", "--input", ta_path, "--conjugator",
                 "shear:alpha:(2^64)^64"]) == 3
    assert "ExpressionLimit: power above" in capsys.readouterr().err


def test_malformed_param_is_a_parse_error(ta_path, capsys):
    assert main(["conjugate", "--input", ta_path, "--conjugator", "W",
                 "--param", "x"]) == 2
    assert "--param" in capsys.readouterr().err


def test_identify_beyond_the_factoring_bound_exits_3(tmp_path, capsys):
    # closed 3-dim subalgebra whose identification squarefree-reduces the
    # 19-digit semiprime p; trial division up to sqrt(p) ran for over 8 s
    p = 1000000007 * 1000000009
    basis = [[[0, p, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -p, 0]],
             [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
             [[0, 0, p, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]]
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps({"ambient": "sp4", "basis": [
        [[str(x) for x in row] for row in m] for m in basis]}))
    start = time.perf_counter()
    assert main(["identify", "--input", str(path)]) == 3
    assert time.perf_counter() - start < 5
    assert "1000000" in capsys.readouterr().err


def _symplectic_block(a):
    """[[A, 0], [0, -A^T]] for a 2x2 rational A: an element of sp(4)."""
    (p, q), (r, s) = a
    return Mat4([[p, q, 0, 0], [r, s, 0, 0], [0, 0, -p, -r], [0, 0, -q, -s]])


X_GOLDEN = _symplectic_block([[0, 1], [1, 1]])  # spectrum +-phi, +-1/phi
Z_SQRT2 = _symplectic_block([[0, 2], [1, 0]])   # spectrum +-sqrt(2)
IDENTITY = _symplectic_block([[1, 0], [0, 1]])  # T(1, 1)
# the abelian radical of the Siegel parabolic, [[0, S], [0, 0]] with S symmetric
SIEGEL = [Mat4.unit(1, 3), Mat4.unit(2, 4), Mat4.unit(1, 4) + Mat4.unit(2, 3)]


@pytest.mark.parametrize("name, basis", [("x", [X_GOLDEN]),
                                         ("z+I", [Z_SQRT2 + IDENTITY]),
                                         ("x+siegel", [X_GOLDEN, *SIEGEL])])
def test_identify_of_a_row_at_an_irrational_parameter_is_out_of_domain(name, basis, tmp_path,
                                                                        capsys):
    # <T(a,1)> with a irrational over Q: no rational row matches, and that is
    # exit 3, never an empty match with exit 0; so is an M6 whose cubic does
    # not split over Q, whose sw label is out of the catalog
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps(Subalgebra.from_matrices(basis).to_json()))
    assert main(["identify", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("IrrationalSpectrum: no catalog row matches")


def test_the_characteristic_polynomial_hint_goes_with_classify_element_only(tmp_path, capsys):
    # <x> is out of domain for identify, without the hint; classify-element
    # refuses x with it; invariants computes the signature, as the
    # trace-form radical of <x> is 0
    sub, elt = tmp_path / "x.json", tmp_path / "x_matrix.json"
    sub.write_text(json.dumps(Subalgebra.from_matrices([X_GOLDEN]).to_json()))
    elt.write_text(json.dumps(X_GOLDEN.to_json()))
    assert main(["identify", "--input", str(sub)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("IrrationalSpectrum:") and "characteristic" not in err
    assert main(["classify-element", "--input", str(elt)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("IrrationalSpectrum:") and "compare characteristic polynomials" in err
    assert main(["invariants", "--input", str(sub), "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nilpotent_dim"] == 0


def test_identify_of_a_non_split_cartan_still_matches_the_cartan(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(Subalgebra.from_matrices([X_GOLDEN, IDENTITY]).to_json()))
    assert main(["identify", "--input", str(path), "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["catalog_rows"] == [
        {"row": "d2_t", "param": None}]


def test_identify_with_no_matching_row_is_a_completeness_failure(tmp_path, monkeypatch,
                                                                 capsys):
    rows = [e for e in load_catalog() if e.row_id != "d1_T_10"]
    monkeypatch.setattr(verify, "load_catalog", lambda: rows)
    path = tmp_path / "t10.json"
    path.write_text(json.dumps(Subalgebra.from_matrices([T(1, 0)]).to_json()))
    assert main(["identify", "--input", str(path), "--output", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["catalog_rows"] == []
    assert "no catalog row matches" in captured.err


@pytest.mark.parametrize("command", ["identify", "conjugate"])
def test_other_ambient_is_a_parse_error(command, tmp_path, capsys):
    data = Subalgebra.from_matrices([T(2, 1), X_ALPHA]).to_json()
    data["ambient"] = "gl4"
    path = tmp_path / "gl4.json"
    path.write_text(json.dumps(data))
    extra = ["--conjugator", "W"] if command == "conjugate" else []
    assert main([command, "--input", str(path), *extra]) == 2
    assert "gl4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["identify", "invariants"])
@pytest.mark.parametrize("name", ["parabolic", "sl2"])
def test_non_solvable_input_is_out_of_domain(command, name, tmp_path, capsys):
    sub = (Subalgebra(standard_subalgebra("p")) if name == "parabolic" else
           Subalgebra.from_matrices([T(1, 0), Mat4.unit(1, 3), Mat4.unit(3, 1)]))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(sub.to_json()))
    assert main([command, "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert "not solvable" in err and "characteristic" not in err


@pytest.mark.parametrize("recipe", ["shear:alpha", "diag:1,2", "shear:alpha:1/0",
                                    "shear:alpha:(1", "diag:a,1,1/a,1",
                                    "shear:alpha:3^99999999",
                                    pytest.param("shear:alpha:" + "(" * 3000 + "1" + ")" * 3000,
                                                 id="shear:alpha:deeply-nested")])
def test_bad_conjugator_recipe_is_a_parse_error(recipe, ta_path, capsys):
    start = time.perf_counter()
    assert main(["conjugate", "--input", ta_path, "--conjugator", recipe]) == 2
    assert time.perf_counter() - start < 5
    assert recipe in capsys.readouterr().err


def test_a_faulty_catalog_row_is_a_verification_failure_of_identify(tmp_path, monkeypatch,
                                                                     capsys):
    rows = [e.replace(excluded=("0", "1)")) if e.row_id == "d1_T_a1" else e
            for e in load_catalog()]
    monkeypatch.setattr(verify, "load_catalog", lambda: rows)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(Subalgebra.from_matrices([T(2, 1)]).to_json()))
    assert main(["identify", "--input", str(path)]) == 1
    assert "CatalogFault: row d1_T_a1: ValueError(" in capsys.readouterr().err
    verify._instance.cache_clear()
