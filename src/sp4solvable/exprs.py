"""A tiny expression language for catalog data.

Catalog rows are parameterized families; basis coefficients, conjugator
recipes and class parameters are stored as strings in one variable ``a``
(e.g. ``"-2*(a+1)/(a+3)^2"``) so the catalog is exportable/importable as JSON
and still evaluates exactly.  Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' integer]
    atom   := rational | name | '(' expr ')'

Values are exact rationals.  Each text is compiled once, on its first use,
into an evaluator over the environment (a bounded cache keeps the last
`COMPILED_TEXTS` texts); a sum or a product is one flat node over its
operands, so a long text evaluates without deep recursion.  The evaluator
runs on (numerator, denominator) int pairs, reduced to lowest terms at
every step as `Fraction` reduces its values, so no value grows past the
size a `Fraction` would have; each value becomes one `Fraction` when
`eval_expr` returns it.

The checks on the text run when it is compiled, before any arithmetic:
malformed text, an exponent above `MAX_EXPONENT` (the catalog's largest is
2) or parentheses nested deeper than `MAX_DEPTH` raise ValueError, so no text
can hang the caller or exhaust its stack.  The checks on values run when it
is evaluated: an unknown name raises ValueError, a zero divisor
`Fraction`'s own ZeroDivisionError, and a power of more than
`MAX_POWER_BITS` bits of its reduced base (a catalog formula at a huge
sample) `ExpressionLimit`, a ValueError that is also an out-of-domain
`Sp4Error`.

Whether a text names the parameter is read off its name tokens, not its
letters (`names_param`): a recipe's ``diag`` or ``shear:alpha`` names none.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ExpressionLimit
from .rational import Q, _lowest_terms

__all__ = ["eval_expr", "names_param"]

MAX_EXPONENT = 64
MAX_POWER_BITS = 1 << 12
MAX_DEPTH = 64
# The catalog, its recipes and samples use about 50 distinct texts.
COMPILED_TEXTS = 1024


def _add(x, y):
    return _lowest_terms(x[0] * y[1] + y[0] * x[1], x[1] * y[1])


def _sub(x, y):
    return _lowest_terms(x[0] * y[1] - y[0] * x[1], x[1] * y[1])


def _mul(x, y):
    return _lowest_terms(x[0] * y[0], x[1] * y[1])


def _div(x, y):
    if not y[0]:
        return Q(*x) / 0  # Fraction's own ZeroDivisionError and text
    return _lowest_terms(x[0] * y[1], x[1] * y[0])


_OPERATORS = {"+": _add, "-": _sub, "*": _mul, "/": _div}


def _chain(first, rest: tuple):
    """first, then each (operator, operand) of rest in turn: one node for a
    whole sum or product."""
    def chain(env):
        v = first(env)
        for op, operand in rest:
            v = op(v, operand(env))
        return v
    return chain


def _power(base, e: int, text: str):
    def power(env):
        n, d = base(env)
        if e * max(n.bit_length(), d.bit_length()) > MAX_POWER_BITS:
            raise ExpressionLimit(f"power above {MAX_POWER_BITS} bits in {text!r}")
        return n**e, d**e  # coprime, as n and d are
    return power


def _negated(f):
    def negated(env):
        n, d = f(env)
        return -n, d
    return negated


def _lookup(name: str, text: str):
    def lookup(env):
        if name not in env:
            raise ValueError(f"unknown name {name!r} in {text!r}")
        v = env[name]
        if type(v) is int:
            return v, 1
        if type(v) is not Q:
            v = Q(v)
        return v.numerator, v.denominator
    return lookup


class _Parser:
    """Compiles one text into an evaluator env -> (numerator, denominator)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self):
        f = self.expr()
        if self.peek():
            raise ValueError(f"trailing input in expression: {self.text!r}")
        return f

    def expr(self):
        return self.chain(self.term, ("+", "-"))

    def term(self):
        return self.chain(self.factor, ("*", "/"))

    def chain(self, operand, ops: tuple):
        first = operand()
        rest = []
        while self.peek() in ops:
            rest.append((_OPERATORS[self.take()], operand()))
        return _chain(first, tuple(rest)) if rest else first

    def factor(self):
        neg = False
        while self.peek() == "-":
            self.take()
            neg = not neg
        f = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.integer()
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} above {MAX_EXPONENT} in {self.text!r}")
            f = _power(f, e, self.text)
        return _negated(f) if neg else f

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ValueError(f"parentheses nested above {MAX_DEPTH} deep in {self.text!r}")
            f = self.expr()
            if self.take() != ")":
                raise ValueError(f"unbalanced parentheses in {self.text!r}")
            self.depth -= 1
            return f
        if ch.isdigit():
            v = self.integer(), 1
            return lambda env: v
        if ch.isalpha() or ch == "_":
            return _lookup(self.name(), self.text)
        raise ValueError(f"unexpected character {ch!r} in {self.text!r}")

    def integer(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected integer in {self.text!r}")
        return int(self.text[start:self.pos])

    def name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]


@lru_cache(maxsize=COMPILED_TEXTS)
def _compiled(text: str):
    """The evaluator of text."""
    return _Parser(text).parse()


def eval_expr(text: str, env: dict | None = None):
    """Evaluate an expression string to an exact rational."""
    return Q(*_compiled(str(text))(env or {}))


_WORDS = re.compile(r"\w+").findall


def names_param(*texts) -> bool:
    """Whether some text names the row parameter ``a``: whether one of its
    name tokens, the maximal runs of letters, digits and ``_`` as the
    parser reads a name, is ``a``.  A conjugator recipe's atom and root
    names (``diag``, ``shear:alpha``) are tokens of their own, and an int
    coefficient names nothing."""
    return any("a" in _WORDS(str(t)) for t in texts)
