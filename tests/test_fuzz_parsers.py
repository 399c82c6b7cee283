"""Fuzzing the two text parsers: every expression text evaluates or raises
ValueError/ZeroDivisionError, and every conjugator recipe evaluates or raises
Sp4Error, quickly, whatever the nesting depth or exponent size."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from sp4solvable.errors import Sp4Error
from sp4solvable.exprs import eval_expr
from sp4solvable.linalg import Mat4
from sp4solvable.rational import Q
from sp4solvable.sp4 import parse_conjugator

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
