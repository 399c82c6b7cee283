"""Conjugacy invariants used in the inequivalence arguments.

The signature bundles, for a closed solvable subalgebra g of sp(4):

* dimension and the derived dimension chain (g is abelian iff the chain's
  second term is 0);
* the subspace N(g) of nilpotent elements.  For solvable g whose elements have
  rational spectra this is exactly the radical of the trace form tr(xy) on g
  (in a common triangularizing basis a nilpotent element is strictly
  triangular, so it pairs to zero with everything; conversely a trace-radical
  element has rational eigenvalues with zero sum of squares, hence is
  nilpotent).  This is intrinsic, so it transports along conjugation.  By
  Lie's theorem [g, g] is strictly triangular, so it lies in the radical and
  is nilpotent, and the radical is [g, g] plus the kernel of the form on a
  complement of [g, g]: the basis elements off the pivots of the cached
  derived series.  It is computed on the complement's int coordinate rows:
  tr(xy) pairs each of the ten root coordinates with one partner under a
  fixed weight (`linalg._TRACE_FORM`), so the int Gram matrix is read off
  the rows with no matrix laid out (`linalg._trace_gram`); each element
  m of its int kernel is tested nilpotent as tr m^2 = tr m^4 = 0 on its
  coordinates, by the one square kernel (`linalg._sp4_square`), with no
  matrix laid out either (the nilpotent elements of a solvable g form a
  subspace, so that tests the whole radical);
* the rank stratification of N(g): for dim 1 the rank of the line, read
  off the six ints of its square (`linalg._sp4_square`) and one rank-one
  test (`jordan._nilpotent_rank`); for dim 2 the number of lines of each
  rank on the projective line of the pencil
  (`pencil_rank_strata`, which checks the plane on the int rows it
  eliminates anyway), counted over the algebraic closure off the pencil's
  rank <= 1 and rank <= 2 loci by squarefree degrees, so no root is found
  and no line is typed; and for dim >= 3 the generic rank, the integer
  rank of the Kronecker matrix at one point beyond every root of its
  minors;
* semisimple content.  dim g - dim N(g) is 0, 1 or 2, as g lies in a Borel
  t + n over the closure, meeting n in N(g); 2 means g contains a Cartan.
  For codimension 1, g contains a nonzero semisimple element iff the
  Jordan nilpotent part of any x outside N(g) lies in N(g)
  (sweeping the nonzero ad(S)-weight components of x by unipotent
  conjugations inside g shows the condition does not depend on the choice
  of x in its coset), and a regular one iff moreover x has four distinct
  eigenvalues: t2^2 != 2 t4 and t2^2 != 4 t4 for t2 = tr m^2 and
  t4 = tr m^4 of its numerators m (`jordan._regular`, the test
  `jordan_decompose` makes).  Such an x is itself semisimple (its
  nilpotent part is 0), so it needs no decomposition; only a double or a
  zero eigenvalue pair runs `jordan_decompose`;
* a canonical spectral probe.  For codimension 1 the pair (char poly of x,
  char poly of ad x on [g,g]) is constant on x + N(g), and the leftover
  scaling freedom is removed by weighted cross-ratio invariantization, one
  `Q` per value from int (numerator, denominator, weight) triples, each
  value reduced once, as a whole.  Char polys are invariant under
  conjugation over the algebraic closure, so two rational forms of one
  complex class (a split and a non-split plane of the Siegel radical beside
  T(1,1), say) get the same probe.  The adjoint char poly is computed on
  ints, off the bracket table and the int rows of [g,g].  ad x maps g into
  [g,g], so its char poly on g is l^(dim g - dim [g,g]) times that one, and
  the probe leaves it out.

A fact that is a function of these fields is not kept as a field.  Whether
g contains an invertible matrix is one: by Lie's theorem g is triangular in some
basis, and the diagonal is a linear map with kernel N(g), so in
codimension 1 det(s*x0 + n) = s^4 det(x0), which is 0 iff the probe's
constant term of x0's char poly is ("z", 4); a codimension-2 g holds an
invertible element and a nilpotent one none.  The lower central series is
left out too: on the catalog's parameterized rows over a grid of values,
its dimensions are a function of the fields above, so they separate no
pair that the fields above leave together (`tests/test_invariants.py`),
and it would cost a bracket span per term.

One object, `_SignatureWork`, owns a subalgebra's signature work and
computes each part on first use: N(g), x0 (the first basis element outside
N(g), which `verify`'s parameter candidates read too), the five head
fields, the probe and the signature.  `signature`, the certifier's row
instances (`verify._Instance`) and `match_catalog`'s query all use it.
Facts of one piece of g are kept per piece, in bounded caches of
`catalog.INSTANCE_CACHE_SIZE` entries: the catalog's 120 instances share
15 distinct N(g), and its 102 of codimension 1 share 15 distinct x0.
`nilpotent_strata` is kept per `Subspace` N(g) (`_nilpotent_facts`).  Per
`Mat4` x0 are kept its traces, off the square kernel on its coordinates,
with its char poly (`_x0_facts`), read by the regularity test, `verify`'s
parameter candidates and the probe.  The
nilpotent Jordan part of a non-regular x0, which `ss_content` reads, is a
closed form (`jordan_decompose`) and is not kept.  A refusal is never kept,
so it is raised again on every call.

Every field is invariant under conjugation by rational symplectic matrices,
which is what the classification's equivalence relation restricts to on the
rational sample points.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations
from operator import mul

from .catalog import INSTANCE_CACHE_SIZE
from .errors import DependentInputs, IrrationalSpectrum, NotSolvable, Sp4Error
from .linalg import (Mat4, Poly, _char_poly_int, _from_coords, _kernel_int, _newton,
                     _pivot_coords, _read_coords, _sp4_square, _trace_gram, generic_rank, rref,
                     Subspace)
from .linalg import char_poly  # noqa: F401  perfbench's tracer test reads this binding
from .rational import Q, Record, format_rational
from .sp4 import in_sp4
from .structure import Subalgebra, _ad_num, is_solvable
from .jordan import _nilpotent_rank, _regular, jordan_decompose

__all__ = [
    "PencilStrata", "pencil_rank_strata", "InvariantSignature", "signature",
    "nilpotent_subspace",
]


# ---------------------------------------------------------------------------
# pencil rank stratification
# ---------------------------------------------------------------------------

class PencilStrata(Record):
    """The rank-drop lines of t*n1 + n2 on the projective line of the pencil,
    counted over the algebraic closure."""

    __slots__ = ("generic_rank",
                 "line_counts")  # ((rank, count), ...) for each rank with lines

    def drop_line_count(self, r: int) -> int:
        """Number of lines of rank exactly r."""
        return dict(self.line_counts).get(r, 0)

    def summary(self) -> tuple:
        """Canonical multiset (generic rank, ((rank, line count), ...))."""
        return self.generic_rank, self.line_counts


def pencil_rank_strata(n1: Mat4, n2: Mat4) -> PencilStrata:
    """Exact rank stratification of a nilpotent pencil x(t) = t*n1 + n2 of
    sp(4) (plus t = infinity).  Raises DependentInputs for a dependent pair
    and Sp4Error for a pair outside sp(4) or a pencil that is not nilpotent.

    The nilpotent orbits of sp(4) are [4], [2,2], [2,1,1] and 0, with no
    [3,1] (Collingwood and McGovern, 1993), so x(t0) has rank <= 2 exactly
    when x(t0)^2 = 0, and rank <= 1 when its 2-minors vanish.  For n1 = A/d,
    n2 = B/d, each locus is the common roots of quadratics in t (the 36
    2-minors; the six ints that fix x(t)^2 = B^2 + t(AB + BA) + t^2 A^2,
    from the square kernel `linalg._sp4_square`), whose gcd is that of an
    `rref` basis of their coefficient rows; a family that vanishes
    identically bounds the generic rank instead.  The lines of
    rank <= k are the distinct roots of that gcd, counted by the degree of
    its squarefree part, and t = infinity when every basis row has a zero
    t^2 coefficient (the 2-minors of A, or A^2, vanish).  The loci are
    nested, so the lines of rank exactly k are the difference of two
    counts: no root is found, nothing is factored and no line is typed.

    The refusals read the same int rows: n1 and n2 are independent iff A and
    B are (`rref`), and an sp(4) element has odd power traces 0, so it is
    nilpotent iff tr x^2 = tr x^4 = 0 (`linalg._sp4_square`, on the
    coordinates of x(t)).  Both traces of x(t) are polynomials of degree at
    most 4 in t, so they vanish for every t iff they vanish at the five
    points t = -2, ..., 2.  The squares of A, B and A + B give the middle
    coefficient AB + BA by polarization.
    """
    den = math.lcm(n1.den, n2.den)
    a = [x * (den // n1.den) for x in n1.num]
    b = [x * (den // n2.den) for x in n2.num]
    if len(rref([a, b])) != 2:
        raise DependentInputs("pencil needs two independent matrices")
    ca, cb = _read_coords(a), _read_coords(b)
    if not (in_sp4(n1) and in_sp4(n2)) or any(
            any(_sp4_square([t * x + y for x, y in zip(ca, cb)])[1:]) for t in range(-2, 3)):
        raise Sp4Error("pencil_rank_strata needs a nilpotent pencil in sp(4)")
    sa, sb, sab = [_sp4_square(c)[0] for c in (ca, cb, [x + y for x, y in zip(ca, cb)])]
    square = [(v, w - u - v, u) for u, v, w in zip(sa, sb, sab)]
    # the 2-minor x[p] x[s] - x[q] x[r] of rows i, j and columns k, l
    minors = [(b[p] * b[s] - b[q] * b[r], a[p] * b[s] + b[p] * a[s] - a[q] * b[r] - b[q] * a[r],
               a[p] * a[s] - a[q] * a[r])
              for p, q, r, s in ((i + k, i + l, j + k, j + l)
                                 for i, j in combinations((0, 4, 8, 12), 2)
                                 for k, l in combinations(range(4), 2))]
    # counts[k] lines have rank <= k; none has rank 0, as n1 and n2 are
    # independent
    counts = [0]
    for rows in (minors, square):
        basis = rref(rows)
        if not basis:  # the rank never exceeds len(counts)
            break
        locus = Poly()
        for _, r in basis:
            locus = locus.gcd(Poly._make(r, 1))
        counts.append(locus.squarefree_part().degree + all(r[2] == 0 for _, r in basis))
    return PencilStrata(len(counts), tuple((k, hi - lo) for k, (lo, hi)
                                           in enumerate(zip(counts, counts[1:]), 1) if hi > lo))


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
    comp = [(i, c, r) for i, (c, r) in enumerate(g.space.pairs) if i not in pivots]
    nums = [r for _, _, r in comp]
    # a kernel vector w of the Gram matrix of the B_j = r_j, the b_j times
    # their pivots, on C gives sum_j w_j B_j, whose coordinate at b_j is
    # w_j*r_j[c_j]; its traces are read on its coordinates
    for _, w in _kernel_int(_trace_gram(nums), len(nums)):
        _, t2, t4 = _sp4_square([sum(map(mul, w, col)) for col in zip(*nums)])
        if t2 or t4:
            raise IrrationalSpectrum(
                "trace-form radical contains a non-nilpotent element; "
                "the subalgebra has irrational spectra")
        v = [0] * g.dim
        for (i, c, r), x in zip(comp, w):
            v[i] = x * r[c]
        rows.append(v)
    return g.space.span_coords(rref(rows))


# ---------------------------------------------------------------------------
# the invariant signature
# ---------------------------------------------------------------------------

class InvariantSignature(Record):
    __slots__ = ("dim", "derived_dims", "nilpotent_dim", "nilpotent_strata", "ss_content",
                 "probe")

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


def _invariantize(weighted: list[tuple]) -> tuple:
    """Remove the scaling freedom x -> s*x from a list of (numerator,
    denominator, weight) triples, each the value v = n/d (d != 0) that
    scales by s**weight: replace each nonzero v of weight w by
    v**w0 / v0**w = n**w0 * d0**w / (d**w0 * n0**w) relative to the first
    nonzero entry n0/d0 of weight w0, one `Q` per value, reduced once, and
    each zero by ("z", w).  The result is invariant under scaling by any s
    in the algebraic closure.
    """
    n0, d0, w0 = next(((n, d, w) for n, d, w in weighted if n), (0, 1, 0))
    return tuple((Q(n**w0 * d0**w, d**w0 * n0**w), w) if n else ("z", w)
                 for n, d, w in weighted)


def signature(s: Subalgebra) -> InvariantSignature:
    """The conjugation-invariant signature of a closed solvable subalgebra.

    Equal signatures are necessary for conjugacy, never claimed sufficient.
    """
    return _SignatureWork(s).signature


class _SignatureWork:
    """The signature work of a subalgebra `sub`, each part computed on first
    use (see the module docstring); the head is read before the probe, so
    its refusal comes first."""

    def __init__(self, sub: Subalgebra):
        self.sub = sub

    @cached_property
    def nspace(self) -> Subspace:
        return nilpotent_subspace(self.sub)

    @cached_property
    def i0(self) -> int | None:
        """The index of x0, or None when g is nilpotent."""
        return next((i for i, (_, r) in enumerate(self.sub.space.pairs)
                     if _pivot_coords(self.nspace.pairs, r) is None), None)

    @cached_property
    def x0(self) -> Mat4:
        """x0 laid out, when g is not nilpotent."""
        c, r = self.sub.space.pairs[self.i0]
        return _from_coords(r, r[c])

    @cached_property
    def head(self) -> tuple:
        """The five signature fields before `probe`, in slot order."""
        s, nspace = self.sub, self.nspace
        d, dn = s.dim, nspace.dim
        strata = _nilpotent_facts(nspace)
        if d == dn:
            content = "all_nilpotent"
        elif d - dn == 2:
            content = "has_cartan"
        else:
            t2, t4, _ = _x0_facts(self.x0)[0]
            if _regular(t2, t4):  # four distinct eigenvalues: x0 is semisimple
                content = "has_regular_ss"
            elif nspace.contains(jordan_decompose(self.x0).nilpotent):
                content = "has_nonregular_ss_only"
            else:
                content = "mixed_only"
        return d, tuple(len(rows) for rows in s.derived), dn, strata, content

    @cached_property
    def probe(self) -> tuple | None:
        """The spectral probe in codimension 1, None in codimension 0 or 2."""
        s = self.sub
        if s.dim - self.nspace.dim != 1:
            return None
        return _spectral_probe(s, self.i0, _x0_facts(self.x0)[1])

    @cached_property
    def signature(self) -> InvariantSignature:
        return InvariantSignature(*self.head, self.probe)


# a refusal raises on every call, as lru_cache keeps no exception
@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _nilpotent_facts(nspace: Subspace) -> tuple:
    """The `nilpotent_strata` field of N(g), kept per echelon `Subspace`:
    the rank of the line, the pencil stratification's summary, or the
    generic rank."""
    dn = nspace.dim
    if dn == 0:
        return ()
    if dn == 1:
        r = nspace.pairs[0][1]
        return (("rank", _nilpotent_rank(_from_coords(r, 1).num, _sp4_square(r)[0])),)
    if dn == 2:
        return (("pencil",) + pencil_rank_strata(*nspace.basis).summary(),)
    return (("generic", generic_rank(list(nspace.basis))),)


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _x0_facts(x0: Mat4) -> tuple:
    """((t2, t4, den), char poly) of an sp(4) element x0 = m/den, kept per `Mat4`,
    off one read of t2 = tr m^2 and t4 = tr m^4 (tr m = tr m^3 = 0 on sp(4))
    by the square kernel on the coordinates of m."""
    _, t2, t4 = _sp4_square(_read_coords(x0.num))
    return (t2, t4, x0.den), _newton((0, t2, 0, t4), x0.den)


def _spectral_probe(s: Subalgebra, i0: int, p4: Poly) -> tuple:
    """The probe of s of codimension 1, whose x0 = basis[i0] has the char
    poly p4.  s is solvable and not 0, so its derived series has a second
    term, [g, g]."""
    sc, derived = s.constants, s.derived[1]
    # the char polys of x0 and of ad(x0) on [g, g]; the coefficient
    # num[j]/den of l^j in one of degree k scales by s**(k - j), and the
    # leading one is 1
    d, dd = s.dim, len(derived)
    polys = [p4]
    if dd:
        polys.append(_char_poly_int(*_ad_num(sc, [int(k == i0) for k in range(d)], derived)))
    return (d, dd, d - 1) + _invariantize(
        [(p.num[j], p.den, p.degree - j) for p in polys for j in range(p.degree - 1, -1, -1)])
