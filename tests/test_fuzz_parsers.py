"""Fuzzing the two text parsers and the subalgebra wire format: every
expression text evaluates or raises ValueError/ZeroDivisionError, every
conjugator recipe evaluates or raises Sp4Error, and `identify` and
`invariants` exit with a contract code on any JSON file, quickly, whatever
the nesting depth, exponent size or entry size."""

import contextlib
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable.catalog import load_catalog
from sp4solvable.cli import main
from sp4solvable.errors import Sp4Error
from sp4solvable.exprs import eval_expr
from sp4solvable.linalg import Mat4
from sp4solvable.rational import Q
from sp4solvable.sp4 import (ROOT_LABELS, T, X_A2B, X_AB, X_ALPHA, X_BETA,
                             conjugate_subalgebra, parse_conjugator, shear)
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


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values, near_misses, disguised, borel_closures),
       st.sampled_from(["identify", "invariants"]))
def test_cli_exits_with_a_contract_code_on_any_subalgebra_file(tmp_path_factory, data, command):
    path = tmp_path_factory.mktemp("wire") / "subalgebra.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert time.perf_counter() - start < TIME_BOUND
