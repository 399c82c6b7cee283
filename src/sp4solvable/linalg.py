"""Exact rational linear algebra on 4x4 matrices and spans of sp(4).

Everything here is over the rationals with no rounding: 4x4 matrices and
polynomials are int numerators over one common denominator, and
elimination, kernels, inverses, polynomial division, gcd and rational roots
run on ints.  Rationals appear only at the boundary: the constructors and
entry reads of `Mat4` and `Poly`, and the vectors of `kernel`.  The JSON
wire grid is read without them: `Mat4.from_json` parses each entry to a
reduced int pair (`rational._parse_pair`) and puts the sixteen over their
lcm.  `rref` eliminates int rows and returns (pivot, int row) pairs, the
one coordinate form of a span, which holds a span of sp(4) (`Subspace`) on
its ten root coordinates (`_COORDS`), a format this module owns:
`_from_coords` lays them out, and `_sp4_coords`, the one membership test,
made where matrices enter a span, reads them back; rows already in those
coordinates (the catalog's, a closure round's, a conjugate's) are spanned
by `Subspace._of` of their `rref`.  Coordinates in a span are read at its
echelon pivots as ints (`_pivot_coords`, `Subspace.coords_num`), never
solved for: the one solve against another basis is `inverse`.  The trace
form tr(xy) is read on the coordinates too: the layout pairs each
coordinate with one partner under a fixed weight (`_TRACE_FORM`, built at
import off `_LAYOUT`), so a Gram matrix of int coordinate rows
(`_trace_gram`) lays out no matrix.

`Poly` is the one polynomial type, and `rref` the one elimination:
nothing is eliminated over Q[t].  The generic rank of a span
(`generic_rank`) is the integer rank of the span's Kronecker substitution
at one integer t beyond every root of its minors (Cauchy's bound), and the
rank strata of a nilpotent pencil (`invariants.pencil_rank_strata`) are
gcds of integer bases of two families of quadratics in t.  Cofactor
expansion (`det_mpoly`) remains only as the oracle the tests check both
against (and the benchmark traces by name).  Rational roots have one
search at every degree (`rational_roots`): candidates Hensel-lifted from
the squarefree part (`_lifted_roots`), each deflated exactly.

Characteristic polynomials come from the power traces tr(a^k) of an int
matrix by Newton's identities (`_newton`), exact in ints: `_char_poly_int`
reads those of an n x n one off the powers up to ceil(n/2), and `char_poly`
is it on a 4x4 matrix.  The tests cross-check both against a cofactor
expansion of det(lambda*I - m).  An sp(4) element has tr x = tr x^3 = 0,
so its spectrum is read off tr x^2 and tr x^4 alone, with no polynomial
built; the signature's x0 has the char poly `_newton((0, t2, 0, t4), den)`.
Both traces come from the one square kernel on the ten coordinates
(`_sp4_square`): x = [[A, B], [C, -A^t]] squares to [[P, qJ], [rJ, P^t]],
so six ints fix x^2 and no 4x4 product is made; x^3 = x^2 x is read on
the coordinates too (`_sp4_cube`).
"""

from __future__ import annotations

import math
from itertools import chain, zip_longest
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .errors import NotInSp4, SingularMatrix, ZeroPolynomial
from .rational import Q, ZERO, _lowest_terms, _parse_pair, format_rational


# ---------------------------------------------------------------------------
# generic reduced row echelon form over Q, eliminated on ints
# ---------------------------------------------------------------------------

def rref(rows: Iterable[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Fraction-free Gauss-Jordan elimination of int rows (Bareiss, Math.
    Comp. 22, 1968, with content removal in place of exact division).
    Returns (pivot column, row) in pivot-column order, where each row is a
    list, the RREF row times its pivot: primitive, with a positive pivot and
    zeros at the other pivot columns.  Each pivot row eliminates its column
    from every row with a nonzero there, the rows above it included:
    r -> (a*r - b*piv) over its content, with a/b = piv[col]/r[col] in
    lowest terms."""
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
        # the step is written out in both loops: a call per row costs more
        rest = []
        for r in work:
            b = r[col]
            if b:
                h = math.gcd(p, b)
                a, b = p // h, b // h
                r = [a * x - b * y for x, y in zip(r, piv)]
                h = math.gcd(*r)
                if not h:  # r was a multiple of piv
                    continue
                if h > 1:
                    r = [x // h for x in r]
            rest.append(r)
        work = rest
        for n, (c, r) in enumerate(out):
            b = r[col]
            if b:
                h = math.gcd(p, b)
                a, b = p // h, b // h
                r = [a * x - b * y for x, y in zip(r, piv)]
                h = math.gcd(*r)
                out[n] = c, (r if h == 1 else [x // h for x in r])
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


def _pivot_coords(pairs: Sequence[tuple[int, Sequence[int]]], w: Sequence[int]):
    """The coordinates of the int row w in the span of `rref` pairs (c, r),
    each on the RREF row r / r[c], or None if w is outside.  The i-th is w's
    entry at pair i's pivot; w is inside iff their combination is w, checked
    as one comparison of int rows."""
    cs = [w[c] for c, _ in pairs]
    l = math.lcm(*[r[c] for c, r in pairs])
    combo = None
    for f, (c, r) in zip(cs, pairs):
        if f:
            f *= l // r[c]
            combo = [f * y for y in r] if combo is None else [x + f * y for x, y in zip(combo, r)]
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
    """All rational roots of p with multiplicities: each candidate n/d,
    lifted p-adically (`_lifted_roots`), deflates the primitive int form by
    d*x - n as often as it divides.  The candidates are tried in the order a
    scan of divisor quotients meets them (n over divisors of the constant
    term, d over divisors of the leading coefficient, +n before -n), so the
    dict keeps that order after a root at zero.  Irrational and complex
    roots are not returned."""
    if p.is_zero():
        raise ZeroPolynomial("rational_roots of the zero polynomial")
    roots: dict = {}
    k = next(i for i, c in enumerate(p.num) if c)
    if k:
        roots[ZERO] = k
    work = _primitive(p.num[k:])
    if len(work) < 2:
        return roots
    for n, d in sorted(_lifted_roots(work), key=lambda nd: (abs(nd[0]), nd[1], nd[0] < 0)):
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


def _lifted_roots(c: Sequence[int]) -> set:
    """Candidates (n, d) that include every rational root of a primitive
    int polynomial c of degree >= 1 with nonzero constant term, found
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
        out.add(_lowest_terms(y - mod if 2 * y > mod else y, lead))
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
        (a string row would otherwise be read one character at a time).
        Each entry is read as an int pair by `parse_rational`'s rules, row
        by row, before the shape is checked, and the matrix is put over
        the lcm of their denominators."""
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("a matrix is a JSON list of four row lists")
        pairs = [_parse_pair(str(x)) for r in data for x in r]
        if len(data) != 4 or any(len(r) != 4 for r in data):
            raise ValueError("Mat4 needs a 4x4 grid")
        den = math.lcm(*[d for _, d in pairs])
        return cls._make([n * (den // d) for n, d in pairs], den)


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


def char_poly(m: Mat4) -> Poly:
    """Characteristic polynomial det(lambda*I - m), exact, degree 4
    (`_char_poly_int` on the int rows of den*m)."""
    return _char_poly_int(_num_rows(m), m.den)


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
# spans of sp(4), held in its ten root coordinates
# ---------------------------------------------------------------------------

# [[A, B], [C, -A^t]] in sp(4), B and C symmetric, is fixed by its entries
# A11 A12 B11 B12 A21 A22 B22 C11 C12 C22 (Humphreys, Introduction to Lie
# Algebras, 1.2), a root-space basis (ibid., 8): the Cartan 0 and 5, the
# positive root vectors (`sp4._ROOTS` places each) and the negative ones 4,
# 7, 8 and 9.  Each other entry is +- one at an earlier position, so each
# pivot of an echelon basis lies at one of these.
_COORDS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 13)
# (coordinate, sign) of each of the 16 entries: entry 6 is B21 = B12, 10 and
# 15 are -A11 and -A22, 11 and 14 are -A21 and -A12, 12 is C21 = C12
_LAYOUT = ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (3, 1), (6, 1),
           (7, 1), (8, 1), (0, -1), (4, -1), (8, 1), (9, 1), (1, -1), (5, -1))
_read_coords = itemgetter(*_COORDS)


def _from_coords(c: Sequence[int], den: int) -> Mat4:
    """The sp(4) element whose ten coordinates are the ints c over den > 0."""
    return Mat4._make([s * c[k] for k, s in _LAYOUT], den)


def _sp4_coords(m: Mat4) -> tuple[int, ...] | None:
    """The ten coordinates of m over m.den, or None when m is outside sp(4):
    the one membership test, m is in sp(4) iff its coordinates lay out to it."""
    c = _read_coords(m.num)
    return c if tuple([s * c[k] for k, s in _LAYOUT]) == m.num else None


# x = [[A, B], [C, -A^t]] with B, C symmetric squares to [[P, qJ], [rJ, P^t]],
# J = [[0, 1], [-1, 0]]: P = A^2 + BC, and AB - BA^t and CA - A^tC are
# antisymmetric, q and r their entries at (1, 2).  So x^4 has the diagonal
# blocks P^2 - qr I and (P^2)^t - qr I.

def _sp4_square(c: Sequence[int]) -> tuple[tuple[int, ...], int, int]:
    """(s, tr x^2, tr x^4) of the sp(4) element x with the ten int
    coordinates c, where s = (P11, P12, P21, P22, q, r) fixes x^2 (see
    above): tr x^2 = 2 tr P and tr x^4 = 2 tr P^2 - 4qr, off 18 int products
    and 4 more, with no matrix laid out."""
    a11, a12, b11, b12, a21, a22, b22, c11, c12, c22 = c
    ta, u, v = a11 + a22, a12 * a21, b12 * c12
    p11 = a11 * a11 + u + b11 * c11 + v
    p22 = a22 * a22 + u + b22 * c22 + v
    p12 = a12 * ta + b11 * c12 + b12 * c22
    p21 = a21 * ta + b12 * c11 + b22 * c12
    q = b12 * (a11 - a22) + a12 * b22 - b11 * a21
    r = c12 * (a22 - a11) + c11 * a12 - c22 * a21
    return ((p11, p12, p21, p22, q, r), 2 * (p11 + p22),
            2 * (p11 * p11 + 2 * p12 * p21 + p22 * p22) - 4 * q * r)


def _sp4_cube(c: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
    """The ten coordinates of x^3 = x^2 x, which lies in sp(4), for the
    coordinates c of x and the square s of `_sp4_square`: its blocks are
    PA + qJC, PB - qJA^t and rJA + P^tC."""
    a11, a12, b11, b12, a21, a22, b22, c11, c12, c22 = c
    p11, p12, p21, p22, q, r = s
    return (p11 * a11 + p12 * a21 + q * c12, p11 * a12 + p12 * a22 + q * c22,
            p11 * b11 + p12 * b12 - q * a12, p11 * b12 + p12 * b22 - q * a22,
            p21 * a11 + p22 * a21 - q * c11, p21 * a12 + p22 * a22 - q * c12,
            p21 * b12 + p22 * b22 + q * a21, r * a21 + p11 * c11 + p21 * c12,
            r * a22 + p11 * c12 + p21 * c22, p12 * c12 + p22 * c22 - r * a12)


def _trace_pairing() -> tuple[tuple[int, int, int], ...]:
    """(k, partner q, weight w) for each coordinate k, with
    tr(xy) = sum_k w x_k y_q for sp(4) elements x and y in coordinates: entry
    p of x meets the transposed entry of y, both placed by `_LAYOUT`, and
    every entry of coordinate k meets one of coordinate q."""
    pairing = {}
    for p, (k, s) in enumerate(_LAYOUT):
        q, t = _LAYOUT[4 * (p % 4) + p // 4]
        pairing[k] = (k, q, pairing.get(k, (k, q, 0))[2] + s * t)
    return tuple([pairing[k] for k in range(len(_COORDS))])


# the trace form on the ten coordinates: 0-0, 1-4, 3-8 and 5-5 with weight 2,
# 2-7 and 6-9 with weight 1
_TRACE_FORM = _trace_pairing()


def _trace_gram(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The int Gram matrix tr(x_i x_j) of the sp(4) elements whose ten
    coordinates are the int rows x_i, read through `_TRACE_FORM`, with no
    matrix laid out."""
    paired = [[w * r[q] for _, q, w in _TRACE_FORM] for r in rows]
    return [[sum(map(mul, a, r)) for r in rows] for a in paired]


class Subspace:
    """A subspace of sp(4), held as the unique `rref` pairs of its ten-coordinate
    rows, so equal subspaces have equal pairs.  Matrices enter by the constructor
    (NotInSp4 for one outside sp(4)) and leave by `basis`, laid out on read."""

    __slots__ = ("pairs",)

    def __init__(self, mats: Iterable[Mat4]):
        rows = [_sp4_coords(m) for m in mats]
        if None in rows:
            raise NotInSp4("subalgebra basis element is not in sp(4)")
        self.pairs = Subspace._of(rref(rows)).pairs

    @classmethod
    def _of(cls, pairs: Iterable[tuple[int, Sequence[int]]]) -> "Subspace":
        """The subspace whose canonical pairs are given."""
        sub = cls.__new__(cls)
        sub.pairs = tuple([(c, tuple(r)) for c, r in pairs])
        return sub

    @property
    def dim(self) -> int:
        return len(self.pairs)

    @property
    def basis(self) -> tuple[Mat4, ...]:
        """The echelon basis as matrices, each row over its pivot."""
        return tuple([_from_coords(r, r[c]) for c, r in self.pairs])

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def contains(self, m: Mat4) -> bool:
        return self.coords_num(m) is not None

    def coords_num(self, m: Mat4):
        """The coefficients of m in the echelon basis times m.den (ints), or
        None if m is outside (`_pivot_coords` on its coordinates)."""
        c = _sp4_coords(m)
        return None if c is None else _pivot_coords(self.pairs, c)

    def span_coords(self, pairs: Sequence[tuple[int, Sequence[int]]]) -> "Subspace":
        """The span of the combinations of this basis with the int coordinate
        rows of `rref` pairs (c, r), with no elimination: over its content,
        sum_k r[k] b_k / b_k[pivot] is the canonical row with the pivot of
        b_c, as each b_k has zeros at the other basis pivots."""
        own = self.pairs
        l = math.lcm(*[b[p] for p, b in own])
        out = []
        for c, r in pairs:
            acc = [0] * 10
            for x, (p, b) in zip(r, own):
                if x:
                    f = x * (l // b[p])
                    acc = [u + f * v for u, v in zip(acc, b)]
            g = math.gcd(*acc)
            out.append((own[c][0], [u // g for u in acc]))
        return Subspace._of(out)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim})"


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
