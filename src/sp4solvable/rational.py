"""Exact rational scalars.

Every quantity in this library is an exact rational number; no floating point
is used anywhere.  ``Q`` is ``fractions.Fraction``, which stores reduced
fractions with positive denominator, so bit-exact equality is value
equality.  ``Q`` is the boundary scalar: the matrix and polynomial kernels
(``Mat4`` and ``Poly`` arithmetic, elimination, the characteristic polynomial,
gcd, rational roots) run on integer numerators over a common denominator.

This is the one module that knows exact roots: ``exact_isqrt`` is the one
exactness check built on ``math.isqrt``, and ``power_free_split`` reads a
k-th root off the factorization that gives the k-th-power-free kernel.

The wire format for rationals is the string ``"p/q"`` in lowest terms, or just
``"p"`` when the denominator is 1 (e.g. ``"-3/16"``, ``"2"``).  Its one
reader is ``_parse_pair``, which gives the pair reduced by ``_lowest_terms``
(the one such reduction); ``parse_rational`` makes that pair a ``Q``, and
``Mat4.from_json`` keeps the pairs as ints.

``Record`` is the one base of the package's frozen values, kept in the module
every other one imports so that none needs ``dataclasses`` (and its ``inspect``).
"""

from __future__ import annotations

import sys
from fractions import Fraction as Q
from math import gcd, isqrt
from operator import attrgetter

from .errors import FactorizationLimit, OutputLimit

__all__ = [
    "Q",
    "ZERO",
    "ONE",
    "parse_rational",
    "format_rational",
    "exact_isqrt",
    "rational_sqrt",
    "factor_int",
    "power_free_split",
]

ZERO = Q(0)
ONE = Q(1)

# factor_int's trial divisors stop here: no input costs sqrt(n) time
TRIAL_DIVISION_BOUND = 10**6


class Record:
    """A frozen value of the subclass's `__slots__` (two or more), given by position
    or keyword (`_defaults` fills the rest); ==, hash, repr as for a frozen dataclass."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)  # unbound: called as self._values(self)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._complete(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> list:
        """The fields in order; TypeError for one missing, unknown or given twice."""
        names = cls.__slots__
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or kwargs.keys() & set(names[:len(args)])):
            raise TypeError(f"{cls.__name__} takes the fields {names}")
        return [values[name] for name in names]

    def replace(self, **changes):
        """A copy with the given fields changed, built by the constructor."""
        return type(self)(**{**dict(zip(self.__slots__, self._values(self))), **changes})

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return type(self), self._values(self)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


def parse_rational(s: str):
    """Parse ``"p/q"`` or ``"p"`` into an exact rational."""
    return Q(*_parse_pair(s))


def _parse_pair(s: str) -> tuple[int, int]:
    """The text ``"p/q"`` or ``"p"`` as the int pair (n, d) in lowest terms
    with d > 0: each part is read by `int()` (so surrounding space, a sign
    and digit underscores pass), and q = 0 raises `Fraction`'s own
    ZeroDivisionError."""
    s = s.strip()
    if "/" not in s:
        return int(s), 1
    num, den = s.split("/", 1)
    n, d = int(num), int(den)
    if not d:
        Q(n, d)  # raises Fraction's own ZeroDivisionError and text
    return _lowest_terms(n, d)


def _lowest_terms(n: int, d: int) -> tuple[int, int]:
    """n/d (d != 0) as the int pair in lowest terms with a positive denominator."""
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // g, d // g


def format_rational(q) -> str:
    """Render in lowest terms as ``"p/q"``, or ``"p"`` when q = 1; OutputLimit
    for a part longer than `sys.get_int_max_str_digits` digits."""
    if type(q) is not Q and type(q) is not int:
        q = Q(q)
    num, den = q.numerator, q.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise OutputLimit(f"a computed value has more than {sys.get_int_max_str_digits()} "
                          "digits, the interpreter's limit on printing an int") from exc


def exact_isqrt(n: int):
    """The int square root of n, or None when n is not a perfect square."""
    r = isqrt(n) if n >= 0 else -1
    return r if r * r == n else None


def rational_sqrt(q):
    """Exact square root of a rational, or None if irrational/negative."""
    q = Q(q)
    rn, rd = exact_isqrt(q.numerator), exact_isqrt(q.denominator)
    return None if rn is None or rd is None else Q(rn, rd)


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to TRIAL_DIVISION_BOUND; a
    cofactor left below its square is prime, else FactorizationLimit."""
    if n < 0:
        n = -n
    if n in (0, 1):
        return {}
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if f > TRIAL_DIVISION_BOUND:
            raise FactorizationLimit(f"cannot factor {n}: no prime factor up to "
                                     f"the trial-division bound {TRIAL_DIVISION_BOUND}")
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def power_free_split(q, k: int = 2):
    """(kernel, root) with q == root**k * kernel and root > 0: the kernel is
    the sign-carrying k-th-power-free integer that represents q modulo
    nonzero rational k-th powers, and the root is read off the same
    factorization.  split(0) = (0, 1), split(4) = (1, 2),
    split(-8/9) = (-2, 2/3), split(54, 3) = (2, 3).
    """
    q = Q(q)
    if q == 0:
        return ZERO, ONE
    n = q.numerator * q.denominator ** (k - 1)  # q = n / den^k
    kernel, root = -1 if n < 0 else 1, 1
    for p, e in factor_int(n).items():
        kernel *= p ** (e % k)
        root *= p ** (e // k)
    return Q(kernel), Q(root, q.denominator)
