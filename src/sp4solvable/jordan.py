"""Jordan-Chevalley decomposition over Q and conjugacy typing of elements.

The decomposition x = S + N (S semisimple, N nilpotent, [S,N] = 0) of an
sp(4) element is a closed form: S is x (for a regular x, by the one
regularity test `_regular`, which the signature's x0 shares), 0, or one of
two fixed polynomials in x, chosen and scaled by t2 = tr m^2 and
t4 = tr m^4 of the numerators m of x (`jordan_decompose`), so it costs one
int product beyond the traces and solves nothing.

Element classification follows the two conjugacy tables and reads the
spectrum off t2 = tr m^2 and t4 = tr m^4 of the numerators m of x, from one
int product (`linalg._even_traces`); no polynomial is built.  As tr m and
tr m^3 vanish on sp(4), the char poly of m is
lambda^4 - (t2/2) lambda^2 + (t2^2 - 2 t4)/8, so x is nilpotent iff
t2 = t4 = 0 (three nonzero orbits, blocks (2,1,1), (2,2), (4), of ranks 1, 2
and 3, told apart by m^2 and one rank-one test with no elimination,
`_nilpotent_rank`); otherwise it has the roots +-a, +-b, a >= b >= 0, which
three integer square roots read off t2 and t4 or refuse as irrational
(`_eigen_pair`), and x is semisimple iff the squarefree part p of its char
poly kills it.
With a != b both nonzero p is the char poly itself; with a = b it is
lambda^2 - a^2 and with b = 0 it is lambda^3 - a^2 lambda, so m^2 decides,
or one more int product m^2 m.  Only `jordan_type`, the block sizes of any
4x4 matrix with a rational spectrum, builds a polynomial: `linalg`'s one
char poly and its one rational-root search.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .errors import IrrationalSpectrum, NotInBorel, NotInSp4, NotSemisimple
from .linalg import Mat4, _even_traces, _mul_num, _sp4_coords, char_poly, rank, rational_roots
from .rational import Q, Record, exact_isqrt, format_rational
from .sp4 import _ROOTS, _STANDARD, conjugate, in_sp4, root_value, shear

__all__ = [
    "JordanDecomposition", "jordan_decompose", "jordan_type", "OrbitLabel",
    "classify_element", "conjugate_ss_into_cartan",
]


class JordanDecomposition(Record):
    __slots__ = ("semisimple", "nilpotent")


def jordan_decompose(x: Mat4) -> JordanDecomposition:
    """The unique Chevalley decomposition x = S + N of an sp(4) element,
    with S a polynomial in x read off t2 = tr m^2 and t4 = tr m^4 of its
    numerators m = d x (`linalg._even_traces`); NotInSp4 for any other
    matrix.  The eigenvalues are +-a, +-b over the algebraic closure, with
    t2 = 2 d^2 (a^2 + b^2) and t4 = 2 d^4 (a^4 + b^4), so
    t2^2 = 2 t4 iff ab = 0 and t2^2 = 4 t4 iff a^2 = b^2; in both cases a^2
    is rational (possibly negative).  S interpolates the eigenvalues with
    each Jordan block's multiplicity (Humphreys, Introduction to Lie
    Algebras, 4.2):
    - t2 = t4 = 0: x is nilpotent and S = 0;
    - the pair (a, 0): S = x^3 / a^2 = 2 m^3 / (d t2), as l^3 / a^2 fixes
      +-a and vanishes twice at 0;
    - the pair (a, a): S = (3 a^2 x - x^3) / (2 a^2) = (3 t2 m - 4 m^3) /
      (2 d t2), as (3 a^2 l - l^3) / (2 a^2) fixes +-a with derivative 0;
    - four distinct eigenvalues: x is semisimple and S = x."""
    if not in_sp4(x):
        raise NotInSp4("jordan_decompose needs an sp(4) element")
    m, d = x.num, x.den
    m2, t2, t4 = _even_traces(m)
    if _regular(t2, t4):
        s = x
    elif not (t2 or t4):
        s = Mat4.zero()
    else:
        m3 = _mul_num(m2, m)
        if t2 * t2 == 2 * t4:  # the pair (a, 0)
            num, den = [2 * v for v in m3], d * t2
        else:  # the pair (a, a)
            num, den = [3 * t2 * u - 4 * v for u, v in zip(m, m3)], 2 * d * t2
        if den < 0:  # a^2 < 0: an imaginary pair
            num, den = [-v for v in num], -den
        s = Mat4._make(num, den)
    return JordanDecomposition(s, x - s)


def _regular(t2: int, t4: int) -> bool:
    """Whether an sp(4) element with the traces t2, t4 of `jordan_decompose`
    has four distinct eigenvalues (ab != 0, a^2 != b^2), rational or not."""
    return t2 * t2 not in (2 * t4, 4 * t4)


def jordan_type(x: Mat4) -> dict:
    """Jordan block sizes per rational eigenvalue: {eigenvalue: [sizes]}.

    Requires the characteristic polynomial to split over Q; otherwise raises
    IrrationalSpectrum (callers fall back to comparing polynomials).
    """
    p = char_poly(x)
    roots = rational_roots(p)
    if sum(roots.values()) != 4:
        raise IrrationalSpectrum(
            "characteristic polynomial does not split over Q: "
            + repr(p))
    out: dict = {}
    for lam, mult in roots.items():
        shifted = x - Mat4.identity() * lam
        kdims = [0]
        power = Mat4.identity()
        for k in range(1, mult + 1):
            power = power * shifted
            kdims.append(4 - rank(power))
        blocks_ge = [kdims[k] - kdims[k - 1] for k in range(1, len(kdims))]
        sizes = []
        for k in range(len(blocks_ge), 0, -1):
            count = blocks_ge[k - 1] - (blocks_ge[k] if k < len(blocks_ge) else 0)
            sizes.extend([k] * count)
        out[lam] = sorted(sizes, reverse=True)
    return out


# ---------------------------------------------------------------------------
# element classification per the conjugacy tables
# ---------------------------------------------------------------------------

class OrbitLabel(Record):
    """One row of the one-dimensional conjugacy tables, with parameters."""

    __slots__ = ("table", "row", "params")

    def __init__(self, table: int, row: str, params: dict | None = None):
        super().__init__(table, row, {} if params is None else params)

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "row": self.row,
            "params": {k: format_rational(v) for k, v in self.params.items()},
        }

    def __hash__(self) -> int:
        return hash((self.table, self.row, frozenset(self.params.items())))


def _eigen_pair(t2: int, t4: int, den: int) -> tuple:
    """The pair (a, b), a >= b >= 0, of a rational-spectrum sp(4) element
    x = m/den with the eigenvalues {a, b, -a, -b}, from t2 = tr m^2 and
    t4 = tr m^4 (`linalg._even_traces`), by three integer square roots.
    With A = den*a and B = den*b, t2 = 2(A^2 + B^2) and t4 = 2(A^4 + B^4),
    so 4 t4 - t2^2 = s^2 with s = 2|A^2 - B^2|, and t2 + s = (2A)^2 and
    t2 - s = (2B)^2.  A and B are eigenvalues of an int matrix, so they
    are rational iff they are ints, iff s, 2A and 2B are; otherwise raises
    IrrationalSpectrum."""
    s = exact_isqrt(4 * t4 - t2 * t2)
    two_a = None if s is None else exact_isqrt(t2 + s)
    two_b = None if two_a is None else exact_isqrt(t2 - s)
    if two_b is None:
        raise IrrationalSpectrum("element has irrational eigenvalues; compare characteristic "
                                 "polynomials instead of eigenvalue data")
    return Q(two_a, 2 * den), Q(two_b, 2 * den)


def _nilpotent_rank(m: Sequence[int], m2: Sequence[int]) -> int:
    """The rank of a nilpotent sp(4) element from its row-major int
    numerators m and m2 = m m, with no elimination.  Odd Jordan blocks of a
    nilpotent element of sp(4) come in pairs, so its nonzero types are
    (2,1,1), (2,2) and (4), of ranks 1, 2 and 3, and no (3,1) (Collingwood
    and McGovern, 1993): the rank is 3 iff m2 != 0.  Otherwise m is 0, or
    of rank 1 iff it is an outer product, m[i][j] p = m[i][j0] m[i0][j] for
    its first nonzero entry p = m[i0][j0], or else of rank 2."""
    if any(m2):
        return 3
    k = next((k for k, v in enumerate(m) if v), None)
    if k is None:
        return 0
    p, j0 = m[k], k % 4
    # m[i][j0] m[i0][j] in row-major order; row i0 starts at k - j0
    outer = product(m[j0::4], m[k - j0:k - j0 + 4])
    if all(v * p == c * r for v, (c, r) in zip(m, outer)):
        return 1
    return 2


def classify_element(x: Mat4) -> OrbitLabel:
    """Assign the conjugacy-table row of an sp(4) element (rational spectrum).

    With x = m/d, m^2, t2 = tr m^2 and t4 = tr m^4 come off one int product
    (`linalg._even_traces`).  Nilpotent (t2 = t4 = 0): zero, or one of the
    three nonzero nilpotent rows, typed by the rank that `_nilpotent_rank`
    reads off m^2 and one rank-one test.  Otherwise x has the
    eigenvalues +-a, +-b with a >= b >= 0 (`_eigen_pair`, three integer
    square roots, which raises IrrationalSpectrum).
    Four distinct eigenvalues make x semisimple: table 1, the Weyl-normalized
    pair putting first the one of a, b = n/d with the smaller (|n|*d, |n|).
    For a = b or b = 0, x is semisimple iff x^2 = a^2 I or x^3 = a^2 x,
    tested on m^2 (and m^2 m for b = 0); if not, it is one of the two
    nontrivial-Jordan rows.
    """
    if not in_sp4(x):
        raise NotInSp4("classify_element needs an sp(4) element")
    m = x.num
    m2, t2, t4 = _even_traces(m)
    if not (t2 or t4):
        r = _nilpotent_rank(m, m2)
        if r == 0:
            return OrbitLabel(1, "zero", {})
        return OrbitLabel(2, ("X_alpha", "X_beta", "X_alpha_plus_X_beta")[r - 1], {})
    a, b = _eigen_pair(t2, t4, x.den)
    if b and a != b:
        if (b.numerator * b.denominator, b.numerator) < (a.numerator * a.denominator,
                                                         a.numerator):
            a, b = b, a
        return OrbitLabel(1, "T_ab", {"a": a, "b": b})
    # x = m/d: x^2 = a^2 I is m^2 = (a d)^2 I, and x^3 = a^2 x is m^3 = (a d)^2 m
    lhs, rhs = (m2, Mat4.identity().num) if b else (_mul_num(m2, m), m)
    ad = a * x.den
    f, g = ad.numerator ** 2, ad.denominator ** 2
    if all(g * y == f * z for y, z in zip(lhs, rhs)):
        return OrbitLabel(1, "T_aa" if b else "T_a0", {"a": a})
    return OrbitLabel(2, "T_aa_plus_X_beta" if b else "T_a0_plus_X_alpha", {"a": a})


# ---------------------------------------------------------------------------
# constructive Cartan reduction inside the Borel
# ---------------------------------------------------------------------------

_HEIGHT_ORDER = ("beta", "alpha", "alpha_plus_beta", "alpha_plus_2beta")


def _borel_components(x: Mat4):
    """Split x in b as (a, b, {root: coefficient}) off its coordinates, where
    `sp4._ROOTS` puts them; raises NotInBorel."""
    c = _sp4_coords(x)
    if c is None or any(v for k, v in enumerate(c) if k not in _STANDARD["b"]):
        raise NotInBorel("element is outside the fixed Borel subalgebra")
    a, b = [Q(c[k], x.den) for k in _STANDARD["t"]]
    return a, b, {g: Q(c[k], x.den) for g, (k, _, _) in _ROOTS.items()}


def conjugate_ss_into_cartan(x: Mat4) -> tuple[Mat4, tuple]:
    """For semisimple x in b, a Borel element g with g x g^{-1} = T diagonal.

    Returns (g, (a, b)) with g x g^{-1} = T_{a,b}; the diagonal equals the
    t-part of x.  Root components are cleared in one sweep in height order
    by shears id + z X_gamma, z = c_gamma / gamma(T): a shear at gamma
    changes no other component of height at most gamma's.  A component left
    at the end sits at a root with gamma(T) = 0 and commutes with the
    diagonal part, which contradicts semisimplicity.
    """
    a, b, coeffs = _borel_components(x)
    g, cur = Mat4.identity(), x
    for label in _HEIGHT_ORDER:
        if coeffs[label] != 0 and (ev := root_value(label, a, b)) != 0:
            s = shear(label, coeffs[label] / ev)
            g, cur = s * g, conjugate(s, cur)
            coeffs = _borel_components(cur)[2]
    if any(c != 0 for c in coeffs.values()):
        raise NotSemisimple("element is not semisimple: nilpotent component commutes "
                            "with its diagonal part")
    return g, (a, b)
