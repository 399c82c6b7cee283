"""A tiny expression language for catalog data.

Catalog rows are parameterized families; basis coefficients, conjugator
recipes and class parameters are stored as strings in one variable ``a``
(e.g. ``"-2*(a+1)/(a+3)^2"``) so the catalog is exportable/importable as JSON
and still evaluates exactly.  Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' integer]
    atom   := rational | name | '(' expr ')'

Values are exact rationals.  An exponent above `MAX_EXPONENT` (the catalog's
largest is 2), a power of more than `MAX_POWER_BITS` bits, or parentheses
nested deeper than `MAX_DEPTH` raise ValueError, so no text can hang the
caller or exhaust its stack.  The power bound depends on the values as well
as the text (a catalog formula at a huge sample), so it raises
`ExpressionLimit`, a ValueError that is also an out-of-domain `Sp4Error`.
"""

from __future__ import annotations

from .errors import ExpressionLimit
from .rational import Q

__all__ = ["eval_expr"]

MAX_EXPONENT = 64
MAX_POWER_BITS = 1 << 12
MAX_DEPTH = 64


class _Parser:
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

    def parse(self, env):
        v = self.expr(env)
        if self.peek():
            raise ValueError(f"trailing input in expression: {self.text!r}")
        return v

    def expr(self, env):
        v = self.term(env)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term(env)
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self, env):
        v = self.factor(env)
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor(env)
            v = v * rhs if op == "*" else v / rhs
        return v

    def factor(self, env):
        neg = False
        while self.peek() == "-":
            self.take()
            neg = not neg
        v = self.atom(env)
        if self.peek() == "^":
            self.take()
            e = self.integer()
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} above {MAX_EXPONENT} in {self.text!r}")
            if e * max(v.numerator.bit_length(), v.denominator.bit_length()) > MAX_POWER_BITS:
                raise ExpressionLimit(f"power above {MAX_POWER_BITS} bits in {self.text!r}")
            v = v**e
        return -v if neg else v

    def atom(self, env):
        ch = self.peek()
        if ch == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ValueError(f"parentheses nested above {MAX_DEPTH} deep in {self.text!r}")
            v = self.expr(env)
            if self.take() != ")":
                raise ValueError(f"unbalanced parentheses in {self.text!r}")
            self.depth -= 1
            return v
        if ch.isdigit():
            return Q(self.integer())
        if ch.isalpha() or ch == "_":
            name = self.name()
            if name not in env:
                raise ValueError(f"unknown name {name!r} in {self.text!r}")
            return Q(env[name])
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


def eval_expr(text: str, env: dict | None = None):
    """Evaluate an expression string to an exact rational."""
    return _Parser(str(text)).parse(env or {})
