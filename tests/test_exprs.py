import pytest

from sp4solvable import exprs, verify
from sp4solvable.exprs import eval_expr
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
