"""Conjugacy invariants used in the inequivalence arguments.

The signature bundles, for a closed solvable subalgebra g of sp(4):

* dimension, derived and lower-central dimension chains, abelian/nilpotent
  flags;
* the subspace N(g) of nilpotent elements.  For solvable g whose elements have
  rational spectra this is exactly the radical of the trace form tr(xy) on g
  (in a common triangularizing basis a nilpotent element is strictly
  triangular, so it pairs to zero with everything; conversely a trace-radical
  element has rational eigenvalues with zero sum of squares, hence is
  nilpotent).  This is intrinsic, so it transports along conjugation.  It
  is computed on the basis numerators: an int Gram matrix, its int kernel,
  and each radical element tested nilpotent by two int squarings.
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
  of x in its coset);
* a canonical spectral probe.  For codimension 1 the triple (char poly of x,
  char poly of ad x on g, char poly of ad x on [g,g]) is constant on
  x + N(g), and the leftover scaling freedom is removed by weighted
  cross-ratio invariantization; rank-drop lines of the nilpotent pencil are
  ad(x)-invariant and contribute their ad-eigenvalues.  Both adjoint char
  polys are taken on ints, off the bracket table and the int rows of [g,g].

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
    den = math.lcm(n1.den, n2.den)
    a = [x * (den // n1.den) for x in n1.num]
    b = [x * (den // n2.den) for x in n2.num]
    ab, ba = _mul_num(a, b), _mul_num(b, a)
    square = list(zip(_mul_num(b, b), [x + y for x, y in zip(ab, ba)], _mul_num(a, a)))
    # x(t)^4 has degree 4 in t, so it vanishes identically iff it does at five points
    if not (in_sp4(n1) and in_sp4(n2)) or any(
            any(_mul_num(m, m)) for m in ([c0 + t * (c1 + t * c2) for c0, c1, c2 in square]
                                          for t in (0, 1, -1, 2, -2))):
        raise Sp4Error("pencil_rank_strata needs a nilpotent pencil in sp(4)")
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

    Raises NotSolvable when g is not, and IrrationalSpectrum if the radical
    contains a non-nilpotent element, which happens only when g has
    elements with irrational or complex eigenvalues (outside this library's
    domain).  Not every such g is refused: <x> with x = diag(A, -A^T),
    A = [[0,1],[1,1]], has a zero radical, and so N(g) = 0.
    """
    if not is_solvable(g):
        raise NotSolvable("the subalgebra is not solvable")
    # kernel vectors w of the Gram matrix of the B_i = den_i*b_i give sum_j w_j B_j
    nums = [b.num for b in g.basis]
    trans = [b.transpose().num for b in g.basis]
    gram = [[sum(map(mul, x, y)) for y in trans] for x in nums]
    mats = []
    for _, w in _kernel_int(gram, len(nums)):
        m = [sum(map(mul, w, entry)) for entry in zip(*nums)]
        m2 = _mul_num(m, m)
        if any(_mul_num(m2, m2)):
            raise IrrationalSpectrum(
                "trace-form radical contains a non-nilpotent element; "
                "the subalgebra has irrational spectra")
        mats.append(Mat4._make(m, 1))
    return echelon_span(mats)


# ---------------------------------------------------------------------------
# the invariant signature
# ---------------------------------------------------------------------------

class InvariantSignature(Record):
    __slots__ = ("dim", "derived_dims", "lower_central_dims", "is_abelian",
                 "is_nilpotent", "nilpotent_dim", "nilpotent_strata",
                 "contains_invertible", "ss_content", "probe")

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
    """Remove the scaling freedom x -> s*x from a list of (value, weight)
    pairs, where value scales by s**weight: replace each nonzero value v of
    weight w by v**w0 / v0**w relative to the first nonzero entry (v0, w0).
    The result is invariant under scaling by any s in the algebraic closure.
    """
    v0 = w0 = None
    for v, w in weighted:
        if v != 0:
            v0, w0 = v, w
            break
    out = []
    for v, w in weighted:
        if v == 0:
            out.append(("z", w))
        else:
            out.append((v**w0 / v0**w, w))
    return tuple(out)


def _regular_pair(p: Poly) -> bool:
    """Whether the char poly p of a rational-spectrum sp(4) element has four
    distinct roots (+-a, +-b with a,b nonzero, a != +-b)."""
    if p[0] == 0:  # zero eigenvalue
        return False
    return p.gcd(p.derivative()).degree == 0


def signature(s: Subalgebra) -> InvariantSignature:
    """The conjugation-invariant signature of a closed solvable subalgebra.

    Equal signatures are necessary for conjugacy, never claimed sufficient.
    """
    return _signature(s, nilpotent_subspace(s))


def _signature(s: Subalgebra, nspace: Subspace) -> InvariantSignature:
    """The signature of s, given its nilpotent subspace `nspace`."""
    g = s.space
    d = g.dim
    der = s.derived
    derived_dims = tuple(len(rows) for rows in der)
    lower_dims = tuple(len(rows) for rows in _series(s, lower=True))
    dn = nspace.dim
    codim = d - dn
    if codim not in (0, 1, 2):
        raise Sp4Error("solvable subalgebra with toral rank > 2 in sp(4)")

    pencil = pencil_rank_strata(*nspace.basis) if dn == 2 else None
    strata = _nilpotent_strata(nspace, pencil)

    if codim == 0:
        content = "all_nilpotent"
        has_invertible = False
        probe = None
    elif codim == 2:
        content = "has_cartan"
        has_invertible = True
        probe = None
    else:
        i0 = next(i for i, b in enumerate(g.basis) if not nspace.contains(b))
        x0 = g.basis[i0]
        p0 = char_poly(x0)
        has_invertible = p0[0] != 0  # det(x0), see the module docstring
        dec = _jordan_decompose(x0, p0)
        if nspace.contains(dec.nilpotent):
            content = ("has_regular_ss" if _regular_pair(p0)
                       else "has_nonregular_ss_only")
        else:
            content = "mixed_only"
        probe = _spectral_probe(s, nspace, der[1] if len(der) > 1 else [],
                                i0, p0, pencil)

    return InvariantSignature(
        dim=d,
        derived_dims=derived_dims,
        lower_central_dims=lower_dims,
        is_abelian=(len(derived_dims) == 1 or derived_dims[1] == 0),
        is_nilpotent=(lower_dims[-1] == 0),
        nilpotent_dim=dn,
        nilpotent_strata=strata,
        contains_invertible=has_invertible,
        ss_content=content,
        probe=probe,
    )


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
    weighted: list[tuple] = []
    for j in (3, 2, 1, 0):
        weighted.append((p4[j], 4 - j))
    # sc.num[i0] is den * ad(x0) on g, transposed: the same char poly
    pad = _char_poly_int(sc.num[i0], sc.den)
    dg = s.dim
    for j in range(dg - 1, -1, -1):
        weighted.append((pad[j], dg - j))
    dd = len(derived)
    if dd:
        pdd = _char_poly_int(*_ad_num(sc, [int(k == i0) for k in range(dg)], derived))
        for j in range(dd - 1, -1, -1):
            weighted.append((pdd[j], dd - j))
    marked = _marked_line_data(nspace, x0, pencil)
    weighted.extend(marked)
    return (dg, dd, nspace.dim) + _invariantize(weighted)


def _marked_line_data(nspace: Subspace, x0: Mat4,
                      pencil: PencilStrata | None) -> list[tuple]:
    """ad(x0)-eigenvalues on the canonical lines of the nilpotent subspace:
    for dim 1 the line itself, for dim 2 the rank-drop lines of the pencil
    (rational ones plus the line at infinity), grouped by rank as elementary
    symmetric functions so the data is basis-independent.  `pencil` is the
    pencil stratification of the nilpotent subspace when it has dim 2."""
    out: list[tuple] = []
    if nspace.dim == 1:
        out.append((_eigenvalue_on_line(x0, nspace.basis[0]), 1))
        return out
    if nspace.dim != 2:
        return out
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
