"""Exact rational scalars.

Every quantity in this library is an exact rational number; no floating point
is used anywhere.  ``Q`` is ``fractions.Fraction``, which stores reduced
fractions with positive denominator, so bit-exact equality is value
equality.  ``Q`` is the boundary scalar: the matrix and polynomial kernels
(``Mat4`` and ``Poly`` arithmetic, elimination, the characteristic polynomial,
gcd, rational roots) run on integer numerators over a common denominator.

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
    "rational_sqrt",
    "rational_nth_root",
    "factor_int",
    "power_free_kernel",
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


def _int_nth_root(n: int, k: int):
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    if k == 1:
        return n
    if k == 2:
        r = isqrt(n)
        return r if r * r == n else None
    lo, hi = 1, 1
    while hi**k < n:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def rational_sqrt(q):
    """Exact square root of a rational, or None if irrational/negative."""
    return rational_nth_root(q, 2)


def rational_nth_root(q, k: int):
    """Exact rational k-th root, or None.

    For even k the input must be nonnegative; for odd k the sign is carried
    through.
    """
    q = Q(q)
    neg = q < 0
    if neg and k % 2 == 0:
        return None
    rn, rd = _int_nth_root(abs(q.numerator), k), _int_nth_root(q.denominator, k)
    if rn is None or rd is None:
        return None
    root = Q(rn, rd)
    return -root if neg else root


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


def power_free_kernel(q, k: int = 2):
    """Canonical representative of q modulo nonzero rational k-th powers.

    Returns the sign-carrying k-th-power-free integer part: q = s^k * kernel
    for some rational s.  kernel(0) = 0, kernel(4) = 1, kernel(-8/9) = -2,
    kernel(54, 3) = 2.
    """
    q = Q(q)
    if q == 0:
        return ZERO
    n = q.numerator * q.denominator ** (k - 1)  # q = n / den^k
    out = -1 if n < 0 else 1
    for p, e in factor_int(n).items():
        out *= p ** (e % k)
    return Q(out)
