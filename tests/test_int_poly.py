"""The int-numerator polynomial kernels against sympy over QQ, the matrix
kernels that read them (`char_poly`, `rank`, `jordan_type`, and the Horner
`poly_eval_mat` of the Newton Jordan oracle in `oracles`), and a guard that
keeps `Fraction` construction out of them."""

import random
import time
from fractions import Fraction

import pytest

from sp4solvable import linalg
from sp4solvable.errors import IrrationalSpectrum
from sp4solvable.jordan import jordan_type
from sp4solvable.linalg import Mat4, Poly, char_poly, rank, rational_roots
from sp4solvable.rational import Q

from oracles import poly_eval_mat

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")
DENS = (1, 1, 2, 3, 4, 6, 9)


def _rat(rng, span=6):
    return Q(rng.randint(-span, span), rng.choice(DENS))


def random_poly(rng):
    """Degree <= 6 with mixed denominators: zero and constant polynomials,
    products of rational linear factors (repeated ones included) times a
    random factor, and fully random ones."""
    kind = rng.random()
    if kind < 0.05:
        return Poly()
    if kind < 0.1:
        return Poly([_rat(rng)])
    if kind < 0.6:
        p = Poly([_rat(rng) or 1])
        for _ in range(rng.randint(1, 4)):
            r = Q(rng.randint(-4, 4), rng.randint(1, 3))
            p = p * Poly([-r, 1])
        extra = Poly([_rat(rng) for _ in range(rng.randint(0, 6 - p.degree))])
        return p if extra.is_zero() else p * extra
    return Poly([_rat(rng) for _ in range(rng.randint(1, 7))])


def to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in (p[i] for i in range(p.degree, -1, -1))] or [0],
                      X, domain="QQ")


def from_sympy(f):
    return Poly([Q(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])


def sympy_rational_roots(f):
    """Rational roots with multiplicities, read off the linear factors of f
    over QQ (no root-finding shared with the code under test)."""
    out = {}
    for g, mult in f.factor_list()[1]:
        if g.degree() == 1:
            c1, c0 = g.all_coeffs()
            r = -sympy.Rational(c0) / sympy.Rational(c1)
            out[Q(int(r.p), int(r.q))] = mult
    return out


CASES = [(random_poly(rng), random_poly(rng))
         for rng in [random.Random(8_0000 + i) for i in range(300)]]


def test_the_cases_cover_zero_constant_and_repeated_roots():
    polys = [p for case in CASES for p in case]
    assert any(p.is_zero() for p in polys)
    assert any(p.degree == 0 for p in polys)
    assert any(p.den > 1 for p in polys)
    assert any(max(rational_roots(p).values(), default=0) > 1
               for p in polys if not p.is_zero())
    assert max(p.degree for p in polys) <= 6


@pytest.mark.parametrize("p, q", CASES)
def test_poly_kernels_match_sympy(p, q):
    f, g = to_sympy(p), to_sympy(q)
    assert p + q == from_sympy(f + g)
    assert p - q == from_sympy(f - g)
    assert p * q == from_sympy(f * g)
    if p.is_zero() and q.is_zero():
        assert p.gcd(q).is_zero()
    else:
        assert p.gcd(q) == from_sympy(sympy.gcd(f, g))
    if p.degree >= 1:
        assert p.squarefree_part() == from_sympy(sympy.sqf_part(f).monic())
    if not p.is_zero():
        assert rational_roots(p) == sympy_rational_roots(f)


def _divisor_scan_order(root):
    # a divisor scan tries n/d for n = 1, 2, ... dividing the constant term,
    # d = 1, 2, ... dividing the leading coefficient, +n before -n
    return (abs(root.numerator), root.denominator, root < 0)


def test_rational_roots_come_in_divisor_scan_order():
    found = {p: [r for r in rational_roots(p) if r != 0]
             for case in CASES for p in case if not p.is_zero()}
    assert sum(len(roots) > 1 for roots in found.values()) > 100
    for p, roots in found.items():
        assert roots == sorted(roots, key=_divisor_scan_order), p


def _big_rat(rng, digits):
    return Q(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**digits))


@pytest.mark.parametrize("seed", range(40))
def test_rational_roots_with_huge_coefficients_match_sympy(seed):
    # end coefficients with millions of divisor pairs: the roots are lifted,
    # not searched for among divisors
    rng = random.Random(9_0000 + seed)
    p = Poly([_big_rat(rng, 30) or 1])
    for _ in range(rng.randint(1, 4)):
        p = p * Poly([-_big_rat(rng, rng.choice((2, 12, 30))), 1])
    if rng.random() < 0.7:
        p = p * Poly([_big_rat(rng, 20) for _ in range(rng.randint(1, 4))] + [1])
    start = time.perf_counter()
    roots = rational_roots(p)
    assert time.perf_counter() - start < 2.0
    assert roots == sympy_rational_roots(to_sympy(p))
    assert list(roots) == sorted(roots, key=_divisor_scan_order)


@pytest.mark.parametrize("seed", range(20))
def test_rational_roots_with_a_squared_huge_linear_factor_match_sympy(seed):
    # a repeated root is repeated modulo every prime: the roots are lifted
    # from the squarefree part, and deflating p gives their multiplicities
    rng = random.Random(9_1000 + seed)
    r = _big_rat(rng, rng.choice((12, 30)))
    p = Poly([_big_rat(rng, 30) or 1])
    for _ in range(rng.choice((2, 3))):
        p = p * Poly([-r, 1])
    for _ in range(rng.randint(1, 2)):
        p = p * Poly([-_big_rat(rng, rng.choice((2, 12, 30))), 1])
    if rng.random() < 0.5:
        p = p * Poly([_big_rat(rng, 20) for _ in range(rng.randint(1, 3))] + [1])
    start = time.perf_counter()
    roots = rational_roots(p)
    assert time.perf_counter() - start < 2.0
    assert roots == sympy_rational_roots(to_sympy(p))
    assert roots[r] >= 2
    assert list(roots) == sorted(roots, key=_divisor_scan_order)


def test_the_m6_cubic_at_a_29_digit_sample():
    # x^3 - x^2 - b x - a of the M6 row at a = 10^29 - 1: its end coefficients
    # have 3.8 million divisor quotients
    den = 225 * 10**56
    start = time.perf_counter()
    roots = rational_roots(Poly([Q(-(10**29 - 1) // 3, den),
                                 Q(5 * 10**57 + 10**29 - 1, den), -1, 1]))
    assert time.perf_counter() - start < 2.0
    assert roots == {Q(1, 3): 1, Q(1, 150000000000000000000000000000): 1,
                     Q(33333333333333333333333333333, 50000000000000000000000000000): 1}


def test_a_quadratic_at_30_digit_roots():
    # (d1 x - n1)(d2 x - n2): its end coefficients have about 60 digits
    r1 = Q(-(10**30 - 7), 3 * 10**29 + 1)
    r2 = Q(10**29 + 3, 7 * 10**28 - 1)
    start = time.perf_counter()
    roots = rational_roots(Poly([-r1, 1]) * Poly([-r2, 1]) * Q(5, 3))
    assert time.perf_counter() - start < 2.0
    assert roots == {r2: 1, r1: 1}
    assert list(roots) == [r2, r1]


def test_a_biquadratic_at_30_digit_roots():
    # (x^2 - a^2)(x^2 - b^2) with 30-digit a and b, the char-poly shape of a
    # regular sp(4) element, and (x^2 - a^2)(x^2 + b^2) with only +-a rational
    a = Q(10**30 - 1, 3 * 10**29 + 7)
    b = Q(2 * 10**29 + 9, 10**30 + 1)
    start = time.perf_counter()
    both = rational_roots(Poly([-a * a, 0, 1]) * Poly([-b * b, 0, 1]))
    one = rational_roots(Poly([-a * a, 0, 1]) * Poly([b * b, 0, 1]))
    assert time.perf_counter() - start < 2.0
    assert both == {b: 1, -b: 1, a: 1, -a: 1}
    assert list(both) == [b, -b, a, -a]
    assert one == {a: 1, -a: 1}


def test_canonical_form():
    p = Poly([Q(1, 2), Q(-3, 4), 0, 0])
    assert (p.num, p.den) == ((2, -3), 4)
    assert Poly([Q(2, 4), Q(3, 6)]) == Poly([Q(1, 2), Q(1, 2)])
    assert hash(Poly([2, 4]) * Q(1, 2)) == hash(Poly([1, 2]))
    assert (Poly([0, 0]).num, Poly([0, 0]).den) == ((), 1)
    assert (-Poly([Q(1, 3), 1])).monic() == Poly([Q(1, 3), 1])
    assert Poly([Q(1, 3), 2])(Q(-1, 2)) == Q(-2, 3)
    assert Poly([1, 2]) != Poly([1, 3]) and Poly([1, 2])[2] == 0


def random_matrix(rng):
    """A 4x4 rational matrix: P J P^-1 for a random Jordan-like J with
    rational eigenvalues, or fully random entries (often an irrational
    spectrum)."""
    if rng.random() < 0.3:
        return Mat4([[_rat(rng, 4) for _ in range(4)] for _ in range(4)])
    eig = [Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(4)]
    eig.sort()
    j = [[eig[i] if i == k else 0 for k in range(4)] for i in range(4)]
    for i in range(3):
        if eig[i] == eig[i + 1] and rng.random() < 0.6:
            j[i][i + 1] = 1
    while True:
        p = Mat4([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
        if rank(p) == 4:
            break
    return p * Mat4(j) * linalg.inverse(p)


def sympy_jordan_type(m):
    _, jf = m.jordan_form()
    out = {}
    i = 0
    while i < 4:
        size = 1
        while i + size < 4 and jf[i + size - 1, i + size] == 1:
            size += 1
        lam = sympy.Rational(jf[i, i])
        out.setdefault(Q(int(lam.p), int(lam.q)), []).append(size)
        i += size
    return {lam: sorted(s, reverse=True) for lam, s in out.items()}


MATRICES = [random_matrix(random.Random(9_0000 + i)) for i in range(100)]


@pytest.mark.parametrize("m", MATRICES)
def test_matrix_kernels_match_sympy(m):
    sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in m.rows])
    lam = sympy.Symbol("lam")
    assert char_poly(m) == from_sympy(sympy.Poly(sm.charpoly(lam).as_expr().subs(lam, X), X,
                                                 domain="QQ"))
    assert rank(m) == sm.rank()
    if all(e.is_rational for e in sm.eigenvals()):
        assert jordan_type(m) == sympy_jordan_type(sm)
    else:
        with pytest.raises(IrrationalSpectrum):
            jordan_type(m)


def fraction_horner(p, m):
    """p(m) with Fraction matrix arithmetic, written out entry by entry."""
    rows = [list(r) for r in m.rows]
    acc = [[Fraction(0)] * 4 for _ in range(4)]
    for k in range(p.degree, -1, -1):
        acc = [[sum(acc[i][t] * rows[t][j] for t in range(4)) + (p[k] if i == j else 0)
                for j in range(4)] for i in range(4)]
    return Mat4(acc)


@pytest.mark.parametrize("i", range(40))
def test_poly_eval_mat_matches_fraction_horner(i):
    rng = random.Random(7_0000 + i)
    p, m = random_poly(rng), MATRICES[i]
    assert poly_eval_mat(p, m) == fraction_horner(p, m)


def test_polynomial_kernels_build_no_fractions(monkeypatch):
    """On int inputs the arithmetic, gcd, squarefree part, char_poly and
    poly_eval_mat run on the numerators; a Fraction built by `linalg.Q`
    fails here."""
    p = Poly([-12, 4, 3, -1]) * Poly([1, 1])   # (x-2)(x+2)(3-x)(x+1)
    q = Poly([10, -7, 1])                      # (x-2)(x-5)

    def kernels():
        m = Mat4([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 3, -2]])
        return {"sum": p + q, "difference": p - q, "product": p * q, "negation": -p,
                "scalar": p * 3, "derivative": p.derivative(), "monic": p.monic(),
                "gcd": p.gcd(q), "squarefree": (p * q).squarefree_part(),
                "char_poly": char_poly(m), "eval": poly_eval_mat(p, m),
                "cayley_hamilton": poly_eval_mat(char_poly(m), m)}

    expected = kernels()

    def no_fraction(*args):
        raise AssertionError("linalg.Q on a polynomial kernel")

    monkeypatch.setattr(linalg, "Q", no_fraction)
    got = kernels()
    assert got == expected
    assert got["gcd"] == Poly([-2, 1])
    assert got["char_poly"] == Poly([16, 0, -8, 0, 1])
    assert got["cayley_hamilton"].is_zero()
