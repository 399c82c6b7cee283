import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_fraction
from sp4solvable import exprs, verify
from sp4solvable.errors import ExpressionLimit
from sp4solvable.exprs import MAX_EXPONENT, MAX_POWER_BITS, eval_expr
from sp4solvable.rational import Q


def test_arithmetic():
    assert eval_expr("3/2") == Q(3, 2)
    assert eval_expr("1+2*3") == 7
    assert eval_expr("(1+2)*3") == 9
    assert eval_expr("-a", {"a": Q(5)}) == -5
    assert eval_expr("2^3") == 8
    assert eval_expr("-2*(a+1)/(a+3)^2", {"a": Q(2)}) == Q(-6, 25)
    assert eval_expr("(1-a^2)/(4*a^2)", {"a": Q(3)}) == Q(-2, 9)
    assert eval_expr("  1 - 1/2 ") == Q(1, 2)
    assert eval_expr("--3") == 3


def test_errors():
    with pytest.raises(ValueError):
        eval_expr("1+")
    with pytest.raises(ValueError):
        eval_expr("(1+2")
    with pytest.raises(ValueError):
        eval_expr("b", {"a": Q(1)})
    with pytest.raises(ValueError):
        eval_expr("1 2")
    with pytest.raises(ZeroDivisionError):
        eval_expr("1/a", {"a": Q(0)})


def test_long_sums_and_products_evaluate_without_deep_recursion():
    # a sum or product compiles to one flat node, not a nest of closures
    n = 10**4
    assert eval_expr("+".join(["1"] * n)) == n
    assert eval_expr("+".join(["a"] * n), {"a": Q(1, 2)}) == Q(n, 2)
    assert eval_expr("*".join(["2"] * n)) == 2**n
    assert eval_expr("*".join(["a"] * n), {"a": Q(-1)}) == 1


def test_malformed_text_is_refused_before_any_arithmetic():
    # the text is compiled before it is evaluated: the stray parenthesis is
    # found before the division by zero
    with pytest.raises(ValueError):
        eval_expr("1/0)")
    with pytest.raises(ValueError, match="exponent"):
        eval_expr("1/0 + 2^65")
    with pytest.raises(ZeroDivisionError):
        eval_expr("1/0")


def test_each_text_compiles_once_into_a_bounded_cache():
    exprs._compiled.cache_clear()
    for _ in range(3):
        assert eval_expr("2*a+1", {"a": Q(3)}) == 7
    assert exprs._compiled.cache_info().misses == 1
    for i in range(exprs.COMPILED_TEXTS + 50):
        eval_expr(f"{i}*a - (a)", {"a": Q(1)})
        with pytest.raises(ValueError):
            eval_expr(f"{i}*(a")
    info = exprs._compiled.cache_info()
    assert info.currsize == info.maxsize == exprs.COMPILED_TEXTS


def test_each_catalog_text_compiles_once_across_verify_catalog():
    exprs._compiled.cache_clear()
    verify._instance.cache_clear()
    assert verify.verify_catalog().overall_pass
    info = exprs._compiled.cache_info()
    # every miss compiled a new text and none was evicted
    assert info.misses == info.currsize < info.maxsize
    assert info.hits > info.misses


# well-formed texts only, so every refusal is one of the three value errors:
# unknown names (b is unset in some environments, z in all), zero divisors,
# and bases of 64 and 65 bits under the exponent 64, beside MAX_POWER_BITS
_leaves = st.one_of(st.integers(0, 99).map(str), st.sampled_from(
    ["a", "b", "z", "0", str(2**64 - 1), str(2**64), f"{2**65 - 2}/2", f"{2**64}/a"]))
_texts = st.recursive(_leaves, lambda sub: st.one_of(
    st.tuples(sub, st.sampled_from("+-*/"), sub).map("".join),
    sub.map("({})".format),
    sub.map("-{}".format),
    st.tuples(sub, st.sampled_from([0, 1, 2, 3, 63, MAX_EXPONENT])).map("({0[0]})^{0[1]}".format)),
    max_leaves=12)
_envs = st.sampled_from([{"a": Q(3)}, {"a": Q(0)}, {"a": Q(-1, 3), "b": 7},
                         {"a": Q(2), "b": Q(-5, 4)}, {"a": 1, "b": 0}])


def _outcome(evaluate, text, env):
    try:
        return evaluate(text, env)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_texts, _envs)
def test_int_pair_evaluation_matches_a_fraction_evaluator(text, env):
    got, want = _outcome(eval_expr, text, env), _outcome(eval_fraction, text, env)
    assert got == want
    assert type(got) is Q or type(got) is tuple


@pytest.mark.parametrize("text, env, want", [
    ("(18446744073709551615)^64", {}, Q(2**64 - 1) ** 64),  # 64 bits: exactly 4096
    ("(36893488147419103230/2)^64", {}, Q(2**64 - 1) ** 64),  # the reduced base counts
    ("(18446744073709551616)^64", {}, ExpressionLimit),  # 65 bits
    ("(1/18446744073709551616)^64", {}, ExpressionLimit),  # a 65-bit denominator
    ("b + 1/0", {"a": Q(1)}, ValueError),  # left to right: the unknown name first
    ("1/0 + b", {"a": Q(1)}, ZeroDivisionError),
    ("-a/(a-a)", {"a": Q(-3, 4)}, ZeroDivisionError),
    ("0/(a^2)", {"a": Q(0)}, ZeroDivisionError),
])
def test_the_value_errors_and_the_power_edge_match_fractions(text, env, want):
    got = _outcome(eval_expr, text, env)
    assert got == _outcome(eval_fraction, text, env)
    assert got == want if type(want) is Q else got[0] is want
    assert MAX_POWER_BITS == 64 * 64
