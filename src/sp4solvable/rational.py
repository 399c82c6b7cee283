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
``"p"`` when the denominator is 1 (e.g. ``"-3/16"``, ``"2"``).
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import isqrt

from .errors import FactorizationLimit

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


def parse_rational(s: str):
    """Parse ``"p/q"`` or ``"p"`` into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Q(int(num), int(den))
    return Q(int(s))


def format_rational(q) -> str:
    """Render in lowest terms as ``"p/q"``, or ``"p"`` when q = 1."""
    q = Q(q)
    num, den = q.numerator, q.denominator
    return str(num) if den == 1 else f"{num}/{den}"


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
