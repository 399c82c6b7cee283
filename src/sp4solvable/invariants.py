"""Conjugacy invariants used in the inequivalence arguments.

The signature bundles, for a closed solvable subalgebra g of sp(4):

* dimension, derived and lower-central dimension chains, abelian/nilpotent
  flags;
* the subspace N(g) of nilpotent elements.  For solvable g whose elements have
  rational spectra this is exactly the radical of the trace form tr(xy) on g
  (in a common triangularizing basis a nilpotent element is strictly
  triangular, so it pairs to zero with everything; conversely a trace-radical
  element has rational eigenvalues with zero sum of squares, hence is
  nilpotent).  This is intrinsic, so it transports along conjugation.  By
  Lie's theorem [g, g] is strictly triangular, so it lies in the radical and
  is nilpotent, and the radical is [g, g] plus the kernel of the form on a
  complement of [g, g]: the basis elements off the pivots of the cached
  derived series.  It is computed on the basis numerators: the int Gram
  matrix of that complement, its int kernel, and each kernel element tested
  nilpotent by two int squarings (the nilpotent elements of a solvable g
  form a subspace, so that tests the whole radical);
* the rank stratification of N(g): exact pencil strata for dim 2, read off
  the pencil's rank <= 1 and rank <= 2 loci over the integers (counting
  rank-drop lines over the algebraic closure via squarefree degrees, with
  no polynomial factorization), and for dim >= 3 the generic rank, the
  integer rank of the Kronecker matrix at one point beyond every root of
  its minors;
* whether g contains an invertible matrix.  By Lie's theorem g is
  triangular in some basis, and the diagonal is a linear map with kernel
  N(g).  So for g = C*x0 + N(g), det(s*x0 + n) = s^4 det(x0): read off the
  char poly p0 of x0 as p0(0) != 0.  With codimension 2 the diagonal image
  has spectra {+-f, +-g} for independent f, g, so a generic element is
  invertible; with codimension 0 none is;
* semisimple content.  dim g - dim N(g) is 0, 1 or 2; 2 means g contains a
  Cartan subalgebra.  For codimension 1, g contains a nonzero semisimple
  element iff the Jordan nilpotent part of any x outside N(g) lies in N(g)
  (sweeping the nonzero ad(S)-weight components of x by unipotent
  conjugations inside g shows the condition does not depend on the choice
  of x in its coset), and a regular one iff moreover the char poly
  c4 l^4 + c2 l^2 + c0 of x has four distinct roots: c0 != 0 and
  c2^2 != 4 c0 c4, read off its int coefficients.  Such an x is itself
  semisimple (its nilpotent part is 0), so it needs no decomposition; only
  a double or a zero eigenvalue pair runs `_jordan_decompose`;
* a canonical spectral probe.  For codimension 1 the triple (char poly of x,
  char poly of ad x on g, char poly of ad x on [g,g]) is constant on
  x + N(g), and the leftover scaling freedom is removed by weighted
  cross-ratio invariantization, one `Q` per value from int (numerator,
  denominator, weight) triples; rank-drop lines of the nilpotent pencil are
  ad(x)-invariant and contribute their ad-eigenvalues, and a pencil with a
  conjugate pair of irrational drop lines is refused (IrrationalSpectrum).
  Both adjoint char polys are taken on ints, off the bracket table and the
  int rows of [g,g].

Every field is invariant under conjugation by rational symplectic matrices,
which is what the classification's equivalence relation restricts to on the
rational sample points.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul

from .errors import DependentInputs, IrrationalSpectrum, NotSolvable, Sp4Error
from .linalg import (Mat4, Poly, _char_poly_int, _kernel_int, _mul_num, _rref_int,
                     char_poly, echelon_span, generic_rank, rank, rational_roots, Subspace)
from .rational import Q, ZERO, Record, format_rational
from .sp4 import bracket, in_sp4
from .structure import Subalgebra, _ad_num, _series, is_solvable
from .jordan import _jordan_decompose

__all__ = [
    "PencilStrata", "pencil_rank_strata", "InvariantSignature", "signature",
    "nilpotent_subspace",
]


# ---------------------------------------------------------------------------
# pencil rank stratification
# ---------------------------------------------------------------------------

class PencilStrata(Record):
    """Ranks of t*n1 + n2 across the projective line of the pencil."""

    __slots__ = ("generic_rank",
                 "rational_drops",     # ((t, rank), ...) finite rational t
                 "infinity_rank",      # rank of n1 when it drops below generic, else None
                 "irrational_counts")  # ((rank, count), ...) conjugate-pair lines

    def drop_line_count(self, r: int) -> int:
        """Number of lines (over the algebraic closure) of rank exactly r."""
        n = sum(1 for _, rr in self.rational_drops if rr == r)
        if self.infinity_rank == r:
            n += 1
        n += sum(c for rr, c in self.irrational_counts if rr == r)
        return n

    def summary(self) -> tuple:
        """Canonical multiset (generic rank, ((rank, line count), ...))."""
        ranks = sorted({r for _, r in self.rational_drops}
                       | ({self.infinity_rank} - {None})
                       | {r for r, _ in self.irrational_counts})
        return (self.generic_rank,
                tuple((r, self.drop_line_count(r)) for r in ranks))


def pencil_rank_strata(n1: Mat4, n2: Mat4) -> PencilStrata:
    """Exact rank stratification of a nilpotent pencil x(t) = t*n1 + n2 of
    sp(4) (plus t = infinity); raises Sp4Error for any other pair.

    The nilpotent orbits of sp(4) are [4], [2,2], [2,1,1] and 0, with no
    [3,1] (Collingwood and McGovern, 1993), so x(t0) has rank <= 2 exactly
    when x(t0)^2 = 0, and rank <= 1 when its 2-minors vanish.  For n1 = A/d,
    n2 = B/d, each locus is the common roots of quadratics in t (the 36
    2-minors; the 16 entries of x(t)^2 = B^2 + t(AB + BA) + t^2 A^2), whose
    gcd is that of an `_rref_int` basis of their coefficient rows; a family
    that vanishes identically bounds the generic rank instead.  Lines are
    counted over the algebraic closure by squarefree degrees, and the exact
    rank of a non-rational drop by the nesting of the loci, so nothing is
    factored.
    """
    if echelon_span([n1, n2]).dim != 2:
        raise DependentInputs("pencil needs two independent matrices")
    # x(t)^4 has degree 4 in t, so it vanishes identically iff it does at five points
    if not (in_sp4(n1) and in_sp4(n2)) or any(
            not ((x := n1 * t + n2) * x * x * x).is_zero() for t in (0, 1, -1, 2, -2)):
        raise Sp4Error("pencil_rank_strata needs a nilpotent pencil in sp(4)")
    return _pencil_strata(n1, n2)


def _pencil_strata(n1: Mat4, n2: Mat4) -> PencilStrata:
    """`pencil_rank_strata` without its checks, for the echelon basis of a
    plane N(g), which is independent, in sp(4) and nilpotent."""
    den = math.lcm(n1.den, n2.den)
    a = [x * (den // n1.den) for x in n1.num]
    b = [x * (den // n2.den) for x in n2.num]
    ab, ba = _mul_num(a, b), _mul_num(b, a)
    square = list(zip(_mul_num(b, b), [x + y for x, y in zip(ab, ba)], _mul_num(a, a)))
    # the 2-minor x[p] x[s] - x[q] x[r] of rows i, j and columns k, l
    minors = [(b[p] * b[s] - b[q] * b[r], a[p] * b[s] + b[p] * a[s] - a[q] * b[r] - b[q] * a[r],
               a[p] * a[s] - a[q] * a[r])
              for p, q, r, s in ((i + k, i + l, j + k, j + l)
                                 for i, j in combinations((0, 4, 8, 12), 2)
                                 for k, l in combinations(range(4), 2))]
    # drops[k] has the finite lines of rank <= k as its roots, each once;
    # none has rank 0, as n1 and n2 are independent
    drops = [Poly._make([1], 1)]
    for rows in (minors, square):
        basis = _rref_int(rows)
        if not basis:  # the rank never exceeds len(drops)
            break
        locus = Poly()
        for _, r in basis:
            locus = locus.gcd(Poly._make(r, 1))
        drops.append(locus.squarefree_part())
    generic = len(drops)
    roots = rational_roots(drops[-1]) if drops[-1].degree > 0 else {}
    rational_drops = tuple((t0, rank(n1 * t0 + n2)) for t0 in
                           sorted(roots, key=lambda q: (q.numerator, q.denominator)))
    irrational = []
    for r in range(1, generic):
        missing = (drops[r].degree - drops[r - 1].degree
                   - sum(1 for _, rr in rational_drops if rr == r))
        if missing > 0:
            irrational.append((r, missing))
    inf_rank = rank(n1)
    return PencilStrata(generic, rational_drops,
                        inf_rank if inf_rank < generic else None, tuple(irrational))


# ---------------------------------------------------------------------------
# nilpotent subspace via the trace form
# ---------------------------------------------------------------------------

def nilpotent_subspace(g: Subalgebra) -> Subspace:
    """The subspace of nilpotent elements of a solvable g (trace-form radical).

    The trace form vanishes on [g, g] x g, so the radical is [g, g] plus the
    kernel of the form's Gram matrix on the complement C spanned by the basis
    elements off the pivots of [g, g] (`Subalgebra.derived`).  [g, g] is
    nilpotent (Lie's theorem); only the kernel elements on C are tested.

    Raises NotSolvable when g is not, and IrrationalSpectrum if the radical
    contains a non-nilpotent element, which happens only when g has
    elements with irrational or complex eigenvalues (outside this library's
    domain).  Not every such g is refused: <x> with x = diag(A, -A^T),
    A = [[0,1],[1,1]], has a zero radical, and so N(g) = 0.
    """
    if not is_solvable(g):
        raise NotSolvable("the subalgebra is not solvable")
    der = g.derived
    derived = der[1] if len(der) > 1 else []
    rows = [r for _, r in derived]
    pivots = {c for c, _ in derived}
    free = [i for i in range(g.dim) if i not in pivots]
    comp = [g.basis[i] for i in free]
    nums = [b.num for b in comp]
    trans = [b.transpose().num for b in comp]
    # a kernel vector w of the Gram matrix of the B_j = den_j*b_j on C gives
    # sum_j w_j B_j, whose coordinate at b_j is w_j*den_j
    for _, w in _kernel_int([[sum(map(mul, x, y)) for y in trans] for x in nums], len(nums)):
        m = [sum(map(mul, w, entry)) for entry in zip(*nums)]
        m2 = _mul_num(m, m)
        if any(_mul_num(m2, m2)):
            raise IrrationalSpectrum(
                "trace-form radical contains a non-nilpotent element; "
                "the subalgebra has irrational spectra")
        v = [0] * g.dim
        for i, x, b in zip(free, w, comp):
            v[i] = x * b.den
        rows.append(v)
    return g.space.span_coords(_rref_int(rows))


# ---------------------------------------------------------------------------
# the invariant signature
# ---------------------------------------------------------------------------

class InvariantSignature(Record):
    __slots__ = ("dim", "derived_dims", "lower_central_dims", "is_abelian",
                 "is_nilpotent", "nilpotent_dim", "nilpotent_strata",
                 "contains_invertible", "ss_content", "probe")

    @property
    def head(self) -> tuple:
        """The nine fields before `probe`."""
        return self._values(self)[:-1]

    def to_json(self) -> dict:
        return {name: _jsonable(v) for name, v in zip(self.__slots__, self._values(self))}

    def differing_fields(self, other: "InvariantSignature") -> list[str]:
        return [name for name, v, w in zip(self.__slots__, self._values(self),
                                           other._values(other)) if v != w]


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return format_rational(obj)


def _eigenvalue_on_line(x: Mat4, v: Mat4):
    """Eigenvalue of ad(x) on the ad(x)-invariant line spanned by v."""
    w = bracket(x, v)
    # the ratio at v's first nonzero entry, checked against all of [x, v]
    p = next(k for k, c in enumerate(v.num) if c)
    wp, vp = w.num[p], v.num[p]
    if any(a * vp != wp * b for a, b in zip(w.num, v.num)):
        raise Sp4Error("line is not ad-invariant")
    return Q(wp * v.den, w.den * vp)


def _invariantize(weighted: list[tuple]) -> tuple:
    """Remove the scaling freedom x -> s*x from a list of (numerator,
    denominator, weight) triples, each the value v = n/d (d != 0) that
    scales by s**weight: replace each nonzero v of weight w by
    v**w0 / v0**w = n**w0 * d0**w / (d**w0 * n0**w) relative to the first
    nonzero entry n0/d0 of weight w0, one `Q` per value, and each zero by
    ("z", w).  The result is invariant under scaling by any s in the
    algebraic closure.
    """
    n0, d0, w0 = next(((n, d, w) for n, d, w in weighted if n), (0, 1, 0))
    return tuple((Q(n**w0 * d0**w, d**w0 * n0**w), w) if n else ("z", w)
                 for n, d, w in weighted)


def _regular_pair(p: Poly) -> bool:
    """Whether the char poly p = c4*l^4 + c2*l^2 + c0 of an sp(4) element
    has four distinct roots +-a, +-b (a, b nonzero, a != +-b): the roots
    l^2 of c4*m^2 + c2*m + c0 are distinct and nonzero, so c0 != 0 and
    c2^2 != 4*c0*c4, read off the int numerators of p.  The spectrum need
    not be rational."""
    c0, _, c2, _, c4 = p.num
    return c0 != 0 and c2 * c2 != 4 * c0 * c4


def signature(s: Subalgebra) -> InvariantSignature:
    """The conjugation-invariant signature of a closed solvable subalgebra.

    Equal signatures are necessary for conjugacy, never claimed sufficient.
    """
    return _signature(s, nilpotent_subspace(s))


def _signature(s: Subalgebra, nspace: Subspace) -> InvariantSignature:
    """The signature of s, given its nilpotent subspace `nspace`."""
    head, probe = _signature_head(s, nspace)
    return InvariantSignature(*head, probe and probe())


def _signature_head(s: Subalgebra, nspace: Subspace) -> tuple:
    """The nine signature fields before `probe`, in slot order, and a
    function of no arguments that computes the probe from the same work
    (the nilpotent subspace, its pencil, x0 and its char poly), or None in
    codimension 0 or 2, where the probe is None."""
    g = s.space
    d = g.dim
    der = s.derived
    derived_dims = tuple(len(rows) for rows in der)
    lower_dims = tuple(len(rows) for rows in _series(s, lower=True))
    dn = nspace.dim
    codim = d - dn
    if codim not in (0, 1, 2):
        raise Sp4Error("solvable subalgebra with toral rank > 2 in sp(4)")

    pencil = _pencil_strata(*nspace.basis) if dn == 2 else None
    strata = _nilpotent_strata(nspace, pencil)

    probe = None
    if codim == 0:
        content = "all_nilpotent"
        has_invertible = False
    elif codim == 2:
        content = "has_cartan"
        has_invertible = True
    else:
        i0 = next(i for i, b in enumerate(g.basis) if not nspace.contains(b))
        x0 = g.basis[i0]
        p0 = char_poly(x0)
        has_invertible = p0.num[0] != 0  # det(x0), see the module docstring
        if _regular_pair(p0):  # four distinct eigenvalues: x0 is semisimple
            content = "has_regular_ss"
        elif nspace.contains(_jordan_decompose(x0, p0).nilpotent):
            content = "has_nonregular_ss_only"
        else:
            content = "mixed_only"

        def probe():
            return _spectral_probe(s, nspace, der[1] if len(der) > 1 else [], i0, p0, pencil)

    is_abelian = len(derived_dims) == 1 or derived_dims[1] == 0
    return (d, derived_dims, lower_dims, is_abelian, lower_dims[-1] == 0, dn, strata,
            has_invertible, content), probe


def _nilpotent_strata(nspace: Subspace, pencil: PencilStrata | None) -> tuple:
    """Rank data of N(g); `pencil` is its pencil stratification when dim 2."""
    dn = nspace.dim
    if dn == 0:
        return ()
    if dn == 1:
        return (("rank", rank(nspace.basis[0])),)
    if dn == 2:
        return (("pencil",) + pencil.summary(),)
    return (("generic", generic_rank(list(nspace.basis))),)


def _spectral_probe(s: Subalgebra, nspace: Subspace, derived: list[tuple],
                    i0: int, p4: Poly, pencil: PencilStrata | None) -> tuple:
    """`derived` holds the `_series` pairs of [g, g]; x0 = basis[i0] has the
    char poly p4."""
    sc = s.constants
    x0 = s.basis[i0]
    # the char polys of x0, of ad(x0) on g (sc.num[i0] is den * ad(x0),
    # transposed) and on [g, g]; the coefficient num[j]/den of l^j in one of
    # degree k scales by s**(k - j), and the leading one is 1
    polys = [p4, _char_poly_int(sc.num[i0], sc.den)]
    dd = len(derived)
    if dd:
        polys.append(_char_poly_int(*_ad_num(sc, [int(k == i0) for k in range(s.dim)], derived)))
    weighted = [(p.num[j], p.den, p.degree - j) for p in polys for j in range(p.degree - 1, -1, -1)]
    weighted.extend((v.numerator, v.denominator, w)
                    for v, w in _marked_line_data(nspace, x0, pencil))
    return (s.dim, dd, nspace.dim) + _invariantize(weighted)


def _marked_line_data(nspace: Subspace, x0: Mat4,
                      pencil: PencilStrata | None) -> list[tuple]:
    """ad(x0)-eigenvalues on the canonical lines of the nilpotent subspace:
    for dim 1 the line itself, for dim 2 the rank-drop lines of the pencil
    (rational ones plus the line at infinity), grouped by rank as elementary
    symmetric functions so the data is basis-independent.  `pencil` is the
    pencil stratification of the nilpotent subspace when it has dim 2;
    IrrationalSpectrum is raised when it has irrational drop lines."""
    out: list[tuple] = []
    if nspace.dim == 1:
        out.append((_eigenvalue_on_line(x0, nspace.basis[0]), 1))
        return out
    if nspace.dim != 2:
        return out
    if pencil.irrational_counts:  # their eigenvalues would be left out
        raise IrrationalSpectrum("the rank-drop lines of the nilpotent pencil include a "
                                 "conjugate pair of irrational lines (rank, count): "
                                 + repr(pencil.irrational_counts))
    n1, n2 = nspace.basis
    by_rank: dict[int, list] = {}
    for t0, r in pencil.rational_drops:
        v = n1 * t0 + n2
        by_rank.setdefault(r, []).append(_eigenvalue_on_line(x0, v))
    if pencil.infinity_rank is not None:
        by_rank.setdefault(pencil.infinity_rank, []).append(
            _eigenvalue_on_line(x0, n1))
    for r in sorted(by_rank):
        vals = by_rank[r]
        e1 = sum(vals, ZERO)
        e2 = ZERO
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                e2 += vals[i] * vals[j]
        out.append((Q(len(vals)), 0))
        out.append((e1, 1))
        out.append((e2, 2))
    return out
