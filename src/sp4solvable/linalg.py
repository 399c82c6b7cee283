"""Exact rational linear algebra on 4x4 matrices and small vector spaces.

Everything here is over the rationals with no rounding: 4x4 matrices and
polynomials are int numerators over one common denominator, subspaces are held
in reduced row echelon form of the row-major flattened entries (so equal
subspaces have identical basis lists), and elimination, kernels, inverses,
polynomial division, gcd and rational roots run on ints.  Rationals appear
only at the boundary: the constructors and entry reads of `Mat4` and `Poly`,
and the vectors of `kernel`.  `rref` eliminates int rows and returns
(pivot, int row) pairs, the one coordinate form of a span.
Coordinates in a span are read at its echelon pivots as ints
(`_pivot_coords`, `Subspace.coords_num`), never solved for: the one solve
against another basis is `inverse`.

`Poly` is the one polynomial type, and `rref` the one elimination:
nothing is eliminated over Q[t].  The generic rank of a span
(`generic_rank`) is the integer rank of the span's Kronecker substitution
at one integer t beyond every root of its minors (Cauchy's bound), and the
rank strata of a nilpotent pencil (`invariants.pencil_rank_strata`) are
gcds of integer bases of two families of quadratics in t.  Cofactor
expansion (`det_mpoly`) remains only as the oracle the tests check both
against (and the benchmark traces by name).

Characteristic polynomials come from the power traces tr(a^k) of an int
matrix by Newton's identities (`_newton`), exact in ints: `char_poly` reads
the four traces of a 4x4 matrix off one int product, `_char_poly_int` those
of an n x n one off the powers up to ceil(n/2).  The tests cross-check both
against a cofactor expansion of det(lambda*I - m).  An sp(4) element has
tr x = tr x^3 = 0, so its spectrum is read off tr x^2 and tr x^4 alone
(`_even_traces`, which `char_poly` also reads), with no polynomial built.
"""

from __future__ import annotations

import math
from itertools import chain, zip_longest
from operator import mul
from typing import Iterable, Sequence

from .errors import SingularMatrix, ZeroPolynomial
from .rational import Q, ZERO, exact_isqrt, format_rational, parse_rational


# ---------------------------------------------------------------------------
# generic reduced row echelon form over Q, eliminated on ints
# ---------------------------------------------------------------------------

def rref(rows: Iterable[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Fraction-free Gauss-Jordan elimination of int rows (Bareiss, Math.
    Comp. 22, 1968, with content removal in place of exact division).
    Returns (pivot column, row) in pivot-column order, where each row is the
    RREF row times its pivot: primitive, with a positive pivot and zeros at
    the other pivot columns.  Each pivot row eliminates its column from the
    others by one closure: r -> (a*r - b*piv) over its content, with
    a/b = piv[col]/r[col] in lowest terms."""
    work = [r for r in rows if any(r)]
    out: list[tuple[int, list[int]]] = []
    for col in range(len(work[0]) if work else 0):
        for i, piv in enumerate(work):
            if piv[col]:
                break
        else:
            continue
        del work[i]
        g = math.gcd(*piv)
        if piv[col] < 0:
            g = -g
        piv = list(piv) if g == 1 else [x // g for x in piv]
        p = piv[col]

        def eliminate(r):
            h = math.gcd(p, r[col])
            a, b = p // h, r[col] // h
            new = [a * x - b * y for x, y in zip(r, piv)]
            h = math.gcd(*new)
            return new if h < 2 else [x // h for x in new]

        rest = []
        for r in work:
            if r[col]:
                r = eliminate(r)
                if not any(r):
                    continue
            rest.append(r)
        work = rest
        out = [(c, eliminate(r) if r[col] else r) for c, r in out]
        out.append((col, piv))
        if not work:
            break
    return out


def _kernel_int(rows: list[Sequence[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """(free column f, v) for each free column of the echelon form of int
    rows: v is the kernel vector with 1 at f and 0 at the other free
    columns, times the lcm of the pivots, so v is integral."""
    echelon = rref(rows)
    pivots = {c for c, _ in echelon}
    l = math.lcm(*[r[c] for c, r in echelon])
    out = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = l
            for c, r in echelon:
                v[c] = -r[f] * (l // r[c])
            out.append((f, v))
    return out


def _pivot_coords(rows: Sequence[tuple[Sequence[int], int]], w: Sequence[int]):
    """The coordinates of the int row w in the span of RREF rows, each given
    as an int row n over its den d, or None if w is outside.  The i-th is
    w's entry at row i's pivot (the first entry of n equal to d); w is
    inside iff their combination is w, checked as one comparison of int rows."""
    cs = [w[n.index(d)] for n, d in rows]
    l = math.lcm(*[d for _, d in rows])
    combo = None
    for c, (n, d) in zip(cs, rows):
        if c:
            c *= l // d
            combo = [c * y for y in n] if combo is None else [x + c * y for x, y in zip(combo, n)]
    if combo is None:  # every coordinate is 0
        return None if any(w) else cs
    return cs if combo == [l * x for x in w] else None


# ---------------------------------------------------------------------------
# univariate polynomials over Q, held as int numerators over one denominator
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial over Q, held like `Mat4`: int numerators `num`
    (lowest degree first, no trailing zeros) over one denominator `den` > 0
    with gcd(den, *num) == 1, so == and hash are exact value equality.
    Rationals appear only at the boundary (`__init__`, `p[i]`, the value
    `p(x)`, `repr`); every kernel runs on the ints."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        p = Poly._make(*_over_common_den(coeffs))
        self.num, self.den = p.num, p.den

    @classmethod
    def _make(cls, num: Sequence[int], den: int) -> "Poly":
        """The polynomial num/den (den != 0) in canonical form."""
        p, num = cls.__new__(cls), list(num)
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        p.num, p.den = (tuple(num), den) if g == 1 else (tuple([x // g for x in num]), den // g)
        return p

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __getitem__(self, i: int):
        return Q(self.num[i], self.den) if 0 <= i < len(self.num) else ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "Poly") -> "Poly":
        d1, d2 = self.den, other.den
        return Poly._make([a * d2 + b * d1 for a, b in zip_longest(self.num, other.num, fillvalue=0)],
                          d1 * d2)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._make([-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly._make(_conv(self.num, other.num), self.den * other.den)
        return Poly._make([x * other.numerator for x in self.num], self.den * other.denominator)

    def __call__(self, x):
        """p(x) for a rational x = n/d, by Horner on d^deg * den * p(x) (the
        zero polynomial gives acc = 0)."""
        n, d = x.numerator, x.denominator
        acc, dk = 0, 1
        for c in reversed(self.num):
            acc = acc * n + c * dk
            dk *= d
        return Q(acc * d, self.den * dk)

    def derivative(self) -> "Poly":
        return Poly._make([i * c for i, c in enumerate(self.num)][1:], self.den)

    def monic(self) -> "Poly":
        return Poly._make(self.num, self.num[-1]) if self.num else self

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd (zero for two zeros), by the primitive
        pseudo-remainder sequence of the numerators (Brown, J. ACM 18, 1971)."""
        a, b = _primitive(self.num), _primitive(other.num)
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        return Poly._make(a, a[-1]) if a else Poly()

    def squarefree_part(self) -> "Poly":
        """p / gcd(p, p'), monic; shares p's roots, each exactly once.  The
        primitive forms divide exactly over Z (Gauss's lemma)."""
        if self.degree <= 0:
            return self.monic()
        q = _pseudo_divmod(_primitive(self.num), _primitive(self.gcd(self.derivative()).num))[0]
        return Poly._make(q, q[-1])

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            s = format_rational(Q(c, self.den))
            terms.append(s if i == 0 else (f"{s}*x^{i}" if i > 1 else f"{s}*x"))
        return "Poly(" + " + ".join(terms) + ")"


def _conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two int coefficient lists."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(num: Sequence[int]) -> tuple[int, ...]:
    """The int coefficients over their content, without trailing zeros."""
    return Poly._make(num, math.gcd(*num) or 1).num


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Lazy pseudo-division of int coefficient lists (b[-1] != 0): (q, r, s)
    with s*a == q*b + r and len(r) < len(b).  Each step scales by
    b[-1]/gcd(top, b[-1]) only, so s == 1 when b divides a over the ints."""
    n, lc = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(0, len(a) - n)
    s = 1
    for i in range(len(a) - 1, n - 1, -1):
        c = r[i]
        if not c:
            continue
        g = math.gcd(c, lc) if lc > 0 else -math.gcd(c, lc)
        m, f = lc // g, c // g
        if m != 1:
            r = [x * m for x in r]
            q = [x * m for x in q]
            s *= m
        k = i - n
        q[k] = f
        for j in range(n):
            r[k + j] -= f * b[j]
        r[i] = 0
    return q, r[:n], s


def rational_roots(p: Poly) -> dict:
    """All rational roots of p with multiplicities: each candidate n/d (from
    the quadratic formula, or lifted p-adically from degree 3 on) deflates
    the primitive int form by d*x - n as often as it divides.  Irrational and
    complex roots are not returned."""
    if p.is_zero():
        raise ZeroPolynomial("rational_roots of the zero polynomial")
    roots: dict = {}
    k = next(i for i, c in enumerate(p.num) if c)
    if k:
        roots[ZERO] = k
    work = _primitive(p.num[k:])
    if len(work) < 2:
        return roots
    for n, d in _root_candidates(work):
        mult = 0
        while len(work) > 1 and (q := _deflate(work, n, d)) is not None:
            work = q
            mult += 1
        if mult:
            roots[Q(n, d)] = mult
            if len(work) < 2:
                break
    return roots


def _deflate(a: Sequence[int], n: int, d: int):
    """a / (d*x - n) for gcd(n, d) == 1, or None if it does not divide a: the
    quotient is integral (Gauss), so synthetic division stops when inexact."""
    q = [0] * (len(a) - 1)
    c = 0
    for j in range(len(a) - 1, 0, -1):
        c, r = divmod(a[j] + n * c, d)
        if r:
            return None
        q[j - 1] = c
    return q if a[0] + n * c == 0 else None


def _root_candidates(c: Sequence[int]):
    """Candidate rational roots (n, d), in lowest terms with d > 0, of a
    primitive int polynomial of degree >= 1 with nonzero constant term."""
    if len(c) == 2:
        yield _ratio(-c[0], c[1])
    elif len(c) == 3:
        yield from _quadratic_roots(c[2], c[1], c[0])
    elif len(c) == 5 and c[1] == 0 and c[3] == 0:
        # biquadratic: the char-poly shape of every sp(4) element
        for r in dict.fromkeys(_biquadratic_roots(c[4], c[2], c[0])):
            if r is not None:  # r[0] != 0, as c[0] != 0
                n, d = _ratio(*r)
                yield from ((n, d), (-n, d))
    else:
        # general case: lifted roots, sorted as a scan of divisor quotients
        # meets them (n over divisors of c[0], d over divisors of c[-1], +n
        # before -n) so that the roots dict keeps that order
        yield from sorted(_lifted_roots(c), key=lambda nd: (abs(nd[0]), nd[1], nd[0] < 0))


def _lifted_roots(c: Sequence[int]) -> set:
    """Candidates (n, d) that include every rational root of a primitive
    int polynomial c of degree >= 3 with nonzero constant term, found
    without enumerating divisors (whose number grows with the coefficients).
    The search runs on the primitive squarefree part s, whose roots are c's,
    each simple, and stay simple modulo all but finitely many primes.
    Modulo such a prime p not dividing the leading coefficient l of s, a root
    x = n/d (d | l) is the Hensel lift of one root (Newton steps modulo
    p^(2^k)), and l*x is an integer no larger than l + max|s_i|.  A
    candidate that is not a root fails the caller's deflation."""
    s = _primitive(Poly._make(c, 1).squarefree_part().num)
    for p in _primes():
        if s[-1] % p:
            values = [_eval_mod(s, r, p) for r in range(p)]
            if all(d for v, d in values if v == 0):
                break
    lead, out = s[-1], set()
    bound = lead + max(map(abs, s))
    for r, (v, _) in enumerate(values):
        if v:
            continue
        mod = p
        while mod <= 2 * bound:
            mod *= mod
            v, d = _eval_mod(s, r, mod)
            r = (r - v * pow(d, -1, mod)) % mod
        y = lead * r % mod
        out.add(_ratio(y - mod if 2 * y > mod else y, lead))
    return out


def _eval_mod(a: Sequence[int], x: int, mod: int) -> tuple[int, int]:
    """(a(x), a'(x)) modulo `mod`, by one Horner pass."""
    v = d = 0
    for coeff in reversed(a):
        d = (d * x + v) % mod
        v = (v * x + coeff) % mod
    return v, d


def _primes():
    yield 2
    p = 3
    while True:
        if all(p % f for f in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _quadratic_roots(a: int, b: int, c: int):
    s = exact_isqrt(b * b - 4 * a * c)
    if s is None:
        return
    yield _ratio(-b + s, 2 * a)
    if s != 0:
        yield _ratio(-b - s, 2 * a)


def _biquadratic_roots(c4: int, c2: int, c0: int) -> list:
    """The nonnegative roots of c4*l^4 + c2*l^2 + c0 (c4 != 0), one per root
    mu = (-c2 +- s) / (2*c4) of c4*mu^2 + c2*mu + c0, + first, with s^2 the
    discriminant: sqrt(mu) = isqrt((-c2 +- s)*2*c4) / |2*c4| as an int pair
    (not in lowest terms) when it is rational, else None.  Empty when s is
    irrational, since then neither mu is rational."""
    s = exact_isqrt(c2 * c2 - 4 * c4 * c0)
    if s is None:
        return []
    d = 2 * c4
    return [None if (r := exact_isqrt((e - c2) * d)) is None else (r, abs(d)) for e in (s, -s)]


def _ratio(n: int, d: int) -> tuple[int, int]:
    """n/d (d != 0) as (numerator, denominator) in lowest terms, d > 0."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return n // g, d // g


# ---------------------------------------------------------------------------
# 4x4 matrices
# ---------------------------------------------------------------------------

class Mat4:
    """Immutable 4x4 matrix of exact rationals, held as 16 int numerators
    (`num`, row-major) over one positive common denominator (`den`) in
    lowest terms: gcd(den, *num) == 1, and the zero matrix has den == 1.
    The form is canonical, so == and hash are exact value equality.
    Rationals appear only at the boundary (`__init__`, `rows`, `flatten`,
    `entry`, the JSON wire format); arithmetic runs on the ints."""

    __slots__ = ("num", "den")

    def __init__(self, rows):
        grid = [tuple(r) for r in rows]
        if len(grid) != 4 or any(len(r) != 4 for r in grid):
            raise ValueError("Mat4 needs a 4x4 grid")
        self.num, self.den = _over_common_den([x for r in grid for x in r])

    @classmethod
    def _make(cls, num, den: int) -> "Mat4":
        """The matrix num/den (den > 0), reduced by one gcd pass."""
        m = cls.__new__(cls)
        g = math.gcd(den, *num)
        if g == 1:
            m.num, m.den = tuple(num), den
        else:
            m.num, m.den = tuple(x // g for x in num), den // g
        return m

    @classmethod
    def zero(cls) -> "Mat4":
        return _ZERO4

    @classmethod
    def identity(cls) -> "Mat4":
        return _ID4

    @classmethod
    def diag(cls, d1, d2, d3, d4) -> "Mat4":
        d = (d1, d2, d3, d4)
        return cls([[d[i] if i == j else 0 for j in range(4)] for i in range(4)])

    @classmethod
    def unit(cls, i: int, j: int) -> "Mat4":
        """Elementary matrix E_ij (1-based indices, as in the matrix displays)."""
        return cls([[1 if (r == i - 1 and c == j - 1) else 0 for c in range(4)]
                    for r in range(4)])

    def flatten(self) -> tuple:
        d = self.den
        return tuple([Q(x, d) if x else ZERO for x in self.num])

    @property
    def rows(self) -> tuple:
        f = self.flatten()
        return (f[0:4], f[4:8], f[8:12], f[12:16])

    def entry(self, i: int, j: int):
        return Q(self.num[4 * i + j], self.den)

    def __add__(self, other: "Mat4") -> "Mat4":
        d1, d2 = self.den, other.den
        return Mat4._make([a * d2 + b * d1 for a, b in zip(self.num, other.num)], d1 * d2)

    def __sub__(self, other: "Mat4") -> "Mat4":
        d1, d2 = self.den, other.den
        return Mat4._make([a * d2 - b * d1 for a, b in zip(self.num, other.num)], d1 * d2)

    def __neg__(self) -> "Mat4":
        return Mat4._make([-a for a in self.num], self.den)

    def __mul__(self, other):
        a = self.num
        if isinstance(other, Mat4):
            return Mat4._make(_mul_num(a, other.num), self.den * other.den)
        q = Q(other)
        p = q.numerator
        return Mat4._make([x * p for x in a], self.den * q.denominator)

    def __rmul__(self, other) -> "Mat4":
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat4) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def transpose(self) -> "Mat4":
        a = self.num
        return Mat4._make(a[0::4] + a[1::4] + a[2::4] + a[3::4], self.den)

    def trace(self):
        a = self.num
        return Q(a[0] + a[5] + a[10] + a[15], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(x) for x in r) for r in self.rows)
        return f"Mat4[{body}]"

    def to_json(self) -> list[list[str]]:
        return [[format_rational(x) for x in r] for r in self.rows]

    @classmethod
    def from_json(cls, data) -> "Mat4":
        """The matrix of a JSON grid: a list of four lists of four rationals
        (a string row would otherwise be read one character at a time)."""
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("a matrix is a JSON list of four row lists")
        return cls([[parse_rational(str(x)) for x in r] for r in data])


def _mul_num(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two row-major 4x4 int grids."""
    cols = (b[0::4], b[1::4], b[2::4], b[3::4])
    return [x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3
            for x0, x1, x2, x3 in (a[0:4], a[4:8], a[8:12], a[12:16])
            for y0, y1, y2, y3 in cols]


_ZERO4 = Mat4._make([0] * 16, 1)
_ID4 = Mat4._make([int(i % 5 == 0) for i in range(16)], 1)


def _over_common_den(values) -> tuple[tuple[int, ...], int]:
    """Rationals as int numerators over their least common denominator; the
    result is in lowest terms, since some denominator holds each prime power
    of the lcm and its (reduced) numerator is prime to that prime."""
    qs = [x if type(x) is Q or type(x) is int else Q(x) for x in values]
    dens = [q.denominator for q in qs]
    den = math.lcm(*dens)
    return tuple([q.numerator * (den // d) for q, d in zip(qs, dens)]), den


def _even_traces(a: Sequence[int]) -> tuple[list[int], int, int]:
    """(a^2, tr a^2, tr a^4) of a row-major 4x4 int grid a, off one int
    product: tr a^4 is the dot product of a^2 with its flat transpose."""
    a2 = _mul_num(a, a)
    return (a2, a2[0] + a2[5] + a2[10] + a2[15],
            sum(map(mul, a2, a2[0::4] + a2[1::4] + a2[2::4] + a2[3::4])))


def char_poly(m: Mat4) -> Poly:
    """Characteristic polynomial det(lambda*I - m), exact, degree 4, from
    the traces of m, m^2, m^3 and m^4 (`_even_traces`): tr m^3 is the dot
    product of m^2 with the flat transpose of m."""
    a = m.num
    a2, t2, t4 = _even_traces(a)
    return _newton((a[0] + a[5] + a[10] + a[15], t2,
                    sum(map(mul, a2, a[0::4] + a[1::4] + a[2::4] + a[3::4])), t4), m.den)


def _char_poly_int(a: Sequence[Sequence[int]], den: int) -> Poly:
    """det(lambda*I - a/den) for an n x n int matrix a, n >= 1, from its
    power traces (`_newton`): with the flat powers a^i for i <= ceil(n/2)
    and their transposes, tr(a^(i+j)) is the dot product of a^i with the
    transpose of a^j."""
    n = len(a)
    flat = list(chain.from_iterable(a))
    cols = list(zip(*a))
    powers, trans = [flat], [list(chain.from_iterable(cols))]
    for _ in range((n - 1) // 2):
        p = powers[-1]
        p = [sum(map(mul, p[i:i + n], col)) for i in range(0, n * n, n) for col in cols]
        powers.append(p)
        trans.append(list(chain.from_iterable(p[c::n] for c in range(n))))
    return _newton([sum(flat[::n + 1])] + [sum(map(mul, powers[(k - 1) // 2], trans[k // 2 - 1]))
                                           for k in range(2, n + 1)], den)


def _newton(traces: Sequence[int], den: int) -> Poly:
    """det(lambda*I - a/den) from the power traces t_k = tr(a^k), k = 1..n,
    of an n x n int matrix a, by Newton's identities: the coefficients c_k
    of det(lambda*I - a) = sum_k c_k lambda^(n-k) satisfy c_0 = 1 and
    k c_k = -(c_0 t_k + c_1 t_(k-1) + ... + c_(k-1) t_1), and are ints, so
    each division by k is exact; the coefficient of lambda^(n-k) over den
    is c_k / den^k = c_k den^(n-k) / den^n."""
    n = len(traces)
    c = [1]
    for k in range(1, n + 1):
        c.append(-sum(map(mul, c, traces[k - 1::-1])) // k)
    return Poly._make([c[n - j] * den**j for j in range(n + 1)], den**n)


def poly_eval_mat(p: Poly, m: Mat4) -> Mat4:
    """p(m) by Horner on the numerators: for p = P/e of degree k and m = M/D,
    acc <- acc*M + P_i D^(k-i) I ends at e D^k p(m), divided out once."""
    if p.is_zero():
        return _ZERO4
    mm, d = m.num, m.den
    acc = [p.num[-1] if i % 5 == 0 else 0 for i in range(16)]
    dk = 1
    for c in reversed(p.num[:-1]):
        dk *= d
        acc = _mul_num(acc, mm)
        if c:
            for i in (0, 5, 10, 15):
                acc[i] += c * dk
    return Mat4._make(acc, p.den * dk)


def _num_rows(m: Mat4) -> list[tuple]:
    """The rows of den*m: integers with the span, rank and kernel of m."""
    return [m.num[i:i + 4] for i in (0, 4, 8, 12)]


def rank(m: Mat4) -> int:
    """Exact rank by fraction-free elimination of den*m."""
    return len(rref(_num_rows(m)))


def kernel(m: Mat4) -> list[tuple]:
    """Basis of the right kernel of m as 4-vectors: for each free column,
    the vector with 1 there and 0 at the other free columns (`_kernel_int`
    divided by its entry at the free column)."""
    return [tuple([Q(x, v[f]) if x else ZERO for x in v])
            for f, v in _kernel_int(_num_rows(m), 4)]


def inverse(m: Mat4) -> Mat4:
    """Exact inverse, the right half of the echelon form of [den*m | den*I]
    (`rref`), each row over its pivot, put over the lcm of the pivots;
    raises SingularMatrix when a pivot lands in the right half."""
    d = m.den
    echelon = rref([r + tuple(d if j == i else 0 for j in range(4))
                    for i, r in enumerate(_num_rows(m))])
    if echelon[3][0] != 3:
        raise SingularMatrix("matrix is singular")
    l = math.lcm(*[r[c] for c, r in echelon])
    return Mat4._make([x * (l // r[c]) for c, r in echelon for x in r[4:]], l)


# ---------------------------------------------------------------------------
# subspaces of 4x4 matrices (canonical echelonized bases)
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of the 16-dimensional matrix space, held as the unique
    reduced-row-echelon basis with respect to row-major flattening.  Equality
    of subspaces is therefore equality of basis lists."""

    __slots__ = ("basis",)

    def __init__(self, mats: Iterable[Mat4]):
        self.basis = tuple(Mat4._make(r, r[c]) for c, r in rref([m.num for m in mats]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def contains(self, m: Mat4) -> bool:
        return self.coords_num(m) is not None

    def coords_num(self, m: Mat4):
        """The coefficients of m in the echelon basis times m.den (ints), or
        None if m is outside (`_pivot_coords` on the numerators)."""
        return _pivot_coords([(b.num, b.den) for b in self.basis], m.num)

    def span_coords(self, pairs: Sequence[tuple[int, Sequence[int]]]) -> "Subspace":
        """The subspace of the combinations of this basis with the int
        coordinate rows of `rref` pairs (c, r), with no elimination on
        the 16 entries: each basis element has its pivot ahead of the next
        one's and zeros at the others', so the combination with r / r[c]
        has 1 at the pivot of element c and 0 at those of the other rows,
        and these are the echelon basis of the span."""
        l = math.lcm(*[b.den for b in self.basis])
        basis = []
        for c, r in pairs:
            acc = [0] * 16
            for x, b in zip(r, self.basis):
                if x:
                    f = x * (l // b.den)
                    acc = [u + f * v for u, v in zip(acc, b.num)]
            basis.append(Mat4._make(acc, l * r[c]))
        sub = Subspace.__new__(Subspace)
        sub.basis = tuple(basis)
        return sub

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim})"


def echelon_span(vectors: Iterable[Mat4]) -> Subspace:
    """The unique echelonized basis of the linear span (empty input: dim 0)."""
    return Subspace(vectors)


# ---------------------------------------------------------------------------
# matrices over Q[t]: generic ranks at one point, and the cofactor oracle
# ---------------------------------------------------------------------------

def det_mpoly(entries: list[list[Poly]]) -> Poly:
    """Determinant of a small square matrix of `Poly` entries by cofactor
    expansion along the first row.  No production path calls it: it is the
    independent oracle that the tests check `generic_rank` and
    `invariants.pencil_rank_strata` (and the cofactor characteristic
    polynomial) against, and the benchmark traces it by name to show it
    stays unused."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = Poly()
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = [[entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entries[0][j] * det_mpoly(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def generic_rank(mats: Sequence[Mat4]) -> int:
    """Rank of a generic element of span(mats): the integer rank of
    M(t) = sum_i t^(e_i) A_i, e_0 = 0 and e_i = 5^(i-1), the A_i the n
    matrices over one common denominator, at t = 1 + 24 (n h)^4 (h the
    largest |entry|).  A k-minor of sum_i t_i A_i (k <= 4) is homogeneous of
    degree k, so it vanishes identically iff it does at t_0 = 1, where each
    t_i has degree below 5: t_i = t^(e_i) maps its monomials to distinct
    powers of t, read in base 5 (Kronecker substitution).  So each
    coefficient of a k-minor of M is one of sum_i t_i A_i, at most
    k! n^k h^k <= t - 1, and by Cauchy's bound the roots of a nonzero integer
    minor have modulus below t: the minors vanishing at t are those
    vanishing identically."""
    den = math.lcm(*[m.den for m in mats])
    nums = [[x * (den // m.den) for x in m.num] for m in mats]
    t = 1 + 24 * (len(nums) * max([abs(x) for num in nums for x in num], default=0))**4
    powers = [1] + [t**(5**i) for i in range(len(nums) - 1)]
    combo = [sum([p * num[ij] for p, num in zip(powers, nums)]) for ij in range(16)]
    return len(rref([combo[i:i + 4] for i in (0, 4, 8, 12)]))
