import argparse
import hashlib
import json
import time

import pytest

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
    # the characteristic-polynomial hint belongs to IrrationalSpectrum only
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
