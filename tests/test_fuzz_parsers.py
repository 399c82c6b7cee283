"""Fuzzing the text parsers and the CLI wire formats: every expression
text evaluates or raises ValueError/ZeroDivisionError, every conjugator
recipe evaluates or raises Sp4Error, every class label formats itself and
builds its presentation or raises OutOfCatalog, and `identify` and
`invariants` and `conjugate` (on any subalgebra file, recipe and --param),
`classify-element` (on any matrix file) and `verify-catalog` (on any
--params string) exit with a contract code, quickly, in either --output
mode, whatever the nesting depth, exponent size or entry size: never with a
traceback, and with 1 only beside a verification message.  `export-catalog`,
which reads no input, keeps the same contract and prints rows that load
back to the shipped ones."""

import contextlib
import io
import json
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp4solvable.catalog import catalog_from_json, load_catalog
from sp4solvable.cli import main
from sp4solvable.errors import OutOfCatalog, Sp4Error
from sp4solvable.exprs import eval_expr
from sp4solvable.identify import _DEGRAAF, _SW, DeGraafClass, SWClass
from sp4solvable.linalg import Mat4
from sp4solvable.rational import Q
from sp4solvable.sp4 import (ROOT_LABELS, T, W_MAT, X_A2B, X_AB, X_ALPHA, X_BETA,
                             conjugate, conjugate_subalgebra, parse_conjugator,
                             shear)
from sp4solvable.structure import Subalgebra, generated_subalgebra

TIME_BOUND = 2.0

leaves = st.one_of(st.integers(0, 10**6).map(str),
                   st.sampled_from(["a", "b", "a_1", "0", "1/0", "0^0", "", "(", ")", "^"]))
well_formed = st.recursive(leaves, lambda sub: st.one_of(
    st.tuples(sub, st.sampled_from(["+", "-", "*", "/", " "]), sub).map("".join),
    sub.map(lambda t: f"({t})"),
    sub.map(lambda t: f"-{t}"),
    st.tuples(sub, st.integers(0, 10**9)).map(lambda p: f"({p[0]})^{p[1]}")),
    max_leaves=20)
# parentheses thousands deep, balanced or not, and towers of large powers
deep = st.integers(1, 5000).flatmap(lambda n: st.sampled_from([
    "(" * n + "a" + ")" * n, "(" * n + "2", "2" + ")" * n, "-" * n + "3",
    "(" * n + "9" + ")^64" * n]))
junk = st.text(alphabet="()+-*/^ a0123456789,.:_x", max_size=60)
expr_texts = st.one_of(well_formed, deep, junk)
envs = st.sampled_from([{}, {"a": Q(3)}, {"a": Q(0)}, {"a": Q(-1, 3)}])


@settings(max_examples=300, deadline=None)
@given(expr_texts, envs)
def test_eval_expr_gives_a_value_or_a_declared_error(text, env):
    start = time.perf_counter()
    try:
        assert isinstance(eval_expr(text, env), Q)
    except (ValueError, ZeroDivisionError):
        pass
    assert time.perf_counter() - start < TIME_BOUND


heads = st.sampled_from(["shear:alpha:", "shear:beta:", "shear:gamma:", "diag:",
                         "block:", "glblock:", "W", "AJ", "identity", "shear:", ""])
recipe_atoms = st.tuples(heads, st.lists(expr_texts, max_size=4)).map(
    lambda p: p[0] + ",".join(p[1]))
recipes = st.one_of(st.lists(recipe_atoms, max_size=3).map(" ".join), junk)


@settings(max_examples=300, deadline=None)
@given(recipes, envs)
def test_parse_conjugator_gives_a_matrix_or_sp4error(recipe, env):
    start = time.perf_counter()
    try:
        assert isinstance(parse_conjugator(recipe, env), Mat4)
    except Sp4Error:
        pass
    assert time.perf_counter() - start < TIME_BOUND


# -- the class labels -----------------------------------------------------------

# names made of the tables' class names, digits (multiplicity prefixes) and '+'
label_names = st.lists(st.one_of(st.sampled_from([*_DEGRAAF, *_SW]),
                                 st.text(alphabet="0123456789+", max_size=3),
                                 st.integers(0, 10**9).map(str)), max_size=4).map("".join)
label_params = st.lists(st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
                        max_size=3).map(tuple)


@settings(max_examples=300, deadline=TIME_BOUND * 1000)
@given(st.sampled_from([DeGraafClass, SWClass]), label_names, label_params)
def test_a_class_label_formats_and_builds_or_is_out_of_catalog(kind, name, params):
    label = kind(name, params)
    assert str(label).startswith(name)
    try:
        assert label.constants().dim <= 6
    except OutOfCatalog:
        pass


# -- the subalgebra wire format, through the CLI ------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=8), st.sampled_from(["sp4", "1/0", "-1/3", "a", "", "1e400"])),
    lambda sub: st.one_of(
        st.lists(sub, max_size=5),
        st.dictionaries(st.one_of(st.sampled_from(["ambient", "basis", "matrix"]),
                                  st.text(max_size=4)), sub, max_size=3)),
    max_leaves=40)
cells = st.one_of(st.integers(-10**30, 10**30).map(str), st.integers(-3, 3),
                  st.sampled_from(["1/0", "x", "", "1/2", "-3", "2^9", None]))
grids = st.lists(st.lists(cells, max_size=5), max_size=5)
near_misses = st.fixed_dictionaries({"ambient": st.sampled_from(["sp4", "gl4", 4]),
                                     "basis": st.lists(grids, max_size=4)})
big_rationals = st.builds(Q, st.integers(-10**40, 10**40), st.integers(1, 10**30))
INSTANCES = [(e, a) for e in load_catalog() for a in e.samples()]


def _disguise(inst, steps):
    (e, a), g = inst, Mat4.identity()
    for root, z in steps:
        g = g * shear(root, z)
    return Subalgebra(conjugate_subalgebra(g, e.space_at(a))).to_json()


disguised = st.builds(_disguise, st.sampled_from(INSTANCES),
                      st.lists(st.tuples(st.sampled_from(ROOT_LABELS), big_rationals),
                               min_size=1, max_size=3))
borel_elements = st.builds(
    lambda a, b, cs: T(a, b) + X_ALPHA * cs[0] + X_BETA * cs[1] + X_AB * cs[2] + X_A2B * cs[3],
    big_rationals, big_rationals, st.lists(st.one_of(st.just(Q(0)), big_rationals),
                                           min_size=4, max_size=4))
borel_closures = st.lists(borel_elements, min_size=1, max_size=3).map(
    lambda seeds: generated_subalgebra(seeds).to_json())


# entries of 1000-4000 digits: each fits the interpreter's limit on printing
# an int, but a value computed from two of them may not (OutputLimit, exit 3);
# spans of dimension 1-5 (`identify` on diag(a, b, -a, -b) plus the four
# positive root vectors at 4000 digits takes about 1.0 s in a fresh process
# on a 2-core x86-64 VM)
long_ints = st.builds(lambda n, d: d * (10**n - 1) // 9, st.integers(1000, 4000),
                      st.integers(1, 9))
long_spans = st.builds(
    lambda a, b, roots: generated_subalgebra([T(a, b), *roots]).to_json(),
    long_ints, st.one_of(long_ints, st.integers(-9, 9)),
    st.sampled_from([(), (X_ALPHA,), (X_A2B,), (X_ALPHA, X_A2B), (X_BETA, X_AB),
                     (X_ALPHA, X_BETA, X_AB, X_A2B)]))
# samples of every size: the catalog's formulas exceed the power bound near
# 600 digits, and int() refuses more than 4300 digits
samples = st.one_of(big_rationals.map(str), st.integers(-10**6, 10**6).map(str),
                    st.integers(1, 5000).map(lambda n: "9" * n),
                    st.sampled_from(["", "1/0", "x", "-", "--", "-1/3", "0", "1", "-1",
                                     " 2", "2 ", "1e3", "0x10", "1/2/3", "\u00bd"]),
                    junk)
# span(diag(a, b, -a, -b), X_alpha, X_alpha+2beta) at 4000-digit a and b, whose
# invariants exit 3 (`tests/test_cli.py::test_a_value_too_long_to_print_exits_3`)
_LONG_SPAN = generated_subalgebra([T(int("9" * 4000), int("7" * 3999 + "1")), X_ALPHA,
                                   X_A2B]).to_json()
outputs = st.sampled_from([[], ["--output", "text"], ["--output", "json"]])
conjugators = st.one_of(recipes, st.sampled_from(
    ["W", "A W A", "shear:alpha:a", "shear:gamma:1/a", "diag:a,1,1/a,1", "block:1,a,0,1"]))


def _run(argv) -> tuple[int, str, str]:
    """`main`'s exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a usage error, such as an option with no value, is exit 2
    return code, out.getvalue(), err.getvalue()


def _a_failing_report(out: str) -> bool:
    if out.startswith("{"):
        return json.loads(out)["overall_pass"] is False
    return out.rstrip().endswith(" problems")


def assert_contract(argv) -> tuple[int, str]:
    """Run argv: a contract code within the time bound, no traceback, and
    exit 1 only with a verification message (no catalog row matches, a
    faulty catalog row, or a failing report).  Returns the code and stdout."""
    start = time.perf_counter()
    code, out, err = _run(argv)
    assert time.perf_counter() - start < TIME_BOUND
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert ("no catalog row matches" in err or err.startswith("CatalogFault: ")
                or _a_failing_report(out)), (out, err)
    return code, out


commands = st.sampled_from(["identify", "invariants", "conjugate"])


def assert_subalgebra_contract(tmp_path_factory, data, command, output, recipe, param) -> int:
    path = tmp_path_factory.mktemp("wire") / "subalgebra.json"
    path.write_text(json.dumps(data))
    argv = [command, "--input", str(path), *output]
    if command == "conjugate":
        argv += ["--conjugator", recipe] + ([] if param is None else ["--param", param])
    return assert_contract(argv)[0]


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values, near_misses, disguised, borel_closures), commands, outputs,
       conjugators, st.one_of(st.none(), samples))
def test_cli_exits_with_a_contract_code_on_any_subalgebra_file(tmp_path_factory, data, command,
                                                               output, recipe, param):
    assert_subalgebra_contract(tmp_path_factory, data, command, output, recipe, param)


@settings(max_examples=60, deadline=None)
@given(long_spans, commands, outputs, conjugators, st.one_of(st.none(), long_ints.map(str)))
@example(_LONG_SPAN, "invariants", [], "W", None)
def test_cli_exits_with_a_contract_code_on_a_subalgebra_with_long_entries(
        tmp_path_factory, data, command, output, recipe, param):
    code = assert_subalgebra_contract(tmp_path_factory, data, command, output, recipe, param)
    if data == _LONG_SPAN and command == "invariants":
        assert code == 3


# -- the element matrix wire format and the --params string --------------------

# the sum of a Borel element and a conjugate of another by W leaves the Borel
# subalgebra, so its spectrum is often irrational and its entries are large
sp4_elements = st.builds(lambda b, c: b + conjugate(W_MAT, c), borel_elements, borel_elements)
matrices = st.one_of(borel_elements, sp4_elements).map(lambda m: m.to_json())
square_grids = st.lists(st.lists(cells, min_size=4, max_size=4), min_size=4, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values, grids, square_grids, matrices,
                 st.one_of(grids, matrices).map(lambda g: {"matrix": g})), outputs)
def test_classify_element_exits_with_a_contract_code_on_any_matrix_file(tmp_path_factory,
                                                                        data, output):
    path = tmp_path_factory.mktemp("wire") / "matrix.json"
    path.write_text(json.dumps(data))
    assert_contract(["classify-element", "--input", str(path), *output])


@settings(max_examples=25, deadline=None)
@given(st.lists(samples, min_size=1, max_size=2).map(",".join), outputs)
def test_verify_catalog_exits_with_a_contract_code_on_any_params_string(params, output):
    assert_contract(["verify-catalog", "--params", params, *output])


def test_export_catalog_keeps_the_contract_and_prints_the_loaded_rows():
    code, out = assert_contract(["export-catalog"])
    assert code == 0
    assert catalog_from_json(json.loads(out)) == load_catalog()


# -- the matrix wire reader against the Fraction one ---------------------------

def _fraction_from_json(data) -> Mat4:
    """`Mat4.from_json` through `Fraction`s: each entry's stripped text as
    Q(int(p), int(q)) or Q(int(p)), row by row, then `Mat4`'s own 4x4 shape
    check and common denominator."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("a matrix is a JSON list of four row lists")

    def parse(text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Q(int(num), int(den))
        return Q(int(text))
    return Mat4([[parse(str(x)) for x in r] for r in data])


def _outcome(read, data):
    try:
        return read(data)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


wire_cells = st.one_of(
    cells, st.floats(allow_nan=False), st.booleans(),
    st.builds(Q, st.integers(-10**20, 10**20), st.integers(-10**6, 10**6).filter(bool)).map(
        lambda q: f" {q.numerator * 3}/{q.denominator * 3} "),
    st.sampled_from(["3/-4", " +7 ", "1/0", "0/-0", "2.5", "1_000", "9" * 5000, "-0",
                     "1/2/3", " -6 / 4", "+1/+2", "½", "0x10"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.lists(wire_cells, min_size=4, max_size=4), min_size=4,
                          max_size=4),
                 st.lists(st.lists(wire_cells, max_size=5), max_size=5), json_values))
@example([["1", "2", "3", "4"], ["5", "x", "7", "8"], ["9", "10", "11", "12"]])
@example([["1/2", "2", "3", "4"]] * 3 + [["5", "6", "7", "8", "9"]])
@example([["3/-4", " +7 ", "1_000", "-0"]] * 4)
def test_the_wire_reader_is_the_fraction_reader(data):
    # the same matrix, or the same exception type and message: a 3x4 grid
    # with a bad entry raises that entry's parse error before the shape error
    assert _outcome(Mat4.from_json, data) == _outcome(_fraction_from_json, data)
