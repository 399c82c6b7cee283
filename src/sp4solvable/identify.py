"""Identification of solvable structure constants against the catalogs.

`identify_degraaf` decides the dimension <= 3 classification completely and,
in dimension 4, the families occurring in this classification (M2, M6, M7,
M8, M12, M13, M14), raising UnrecognizedFamily for anything else.  The
decision tree works on intrinsic data: the derived subalgebra D, its
centralizer, and the adjoint action of a complement element, normalized by
the scaling freedom (trace normalization; squarefree/cubefree kernels for
the weight-graded parameters).

`degraaf_to_sw` translates to the second catalog; the only analytic step,
choosing the square-root branch in lambda = (1 + 2a + sqrt(1+4a)) / (-2a),
is done exactly: the two branches multiply to 1, so exactly one satisfies
0 < |lambda| <= 1, and for irrational discriminants the comparison is decided
in the quadratic extension (for negative discriminants |lambda| = 1 and the
positive-imaginary branch has argument in (0, pi)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DependentInputs, DimensionMismatch, OutOfCatalog,
                     UnrecognizedFamily, UnsupportedDimension, ZeroParameter)
from .linalg import (Mat4, Poly, char_poly_rows, echelon_coords, inverse,
                     kernel_of_rows, rational_roots, rref)
from .presentations import DeGraafClass, SWClass
from .rational import (Q, ZERO, ONE, format_rational, power_free_kernel,
                       rational_nth_root, rational_sqrt)
from .structure import StructureConstants, ad_matrix, bracket_space, unit_rows

__all__ = [
    "identify_degraaf", "degraaf_to_sw", "sw_lambda", "QuadraticValue",
    "verify_isomorphism", "tri_algebra_constants", "sw_bridge_map",
]


# ---------------------------------------------------------------------------
# helpers on coordinate subspaces
# ---------------------------------------------------------------------------

def _complement_vector(d: int, span_rows: list[tuple]) -> tuple:
    """The first unit row outside a proper subspace given by RREF rows (a
    unit row lies in an RREF span only if it is one of the rows)."""
    return next(u for u in unit_rows(d) if u not in span_rows)


def _is_scalar(m: list[list]) -> bool:
    k = len(m)
    return all(m[i][j] == (m[0][0] if i == j else 0) for i in range(k) for j in range(k))


def _is_cyclic3(m: list[list]) -> bool:
    """A 3x3 matrix is cyclic iff its minimal polynomial has degree 3,
    i.e. m^2 is not a linear combination of I and m."""
    k = 3
    m2 = [[sum(m[i][t] * m[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    rows = []
    for mat in ([[1 if i == j else 0 for j in range(k)] for i in range(k)], m, m2):
        rows.append(tuple(Q(mat[i][j]) for i in range(k) for j in range(k)))
    return len(rref(rows)) == 3


def _centralizer_of(sc: StructureConstants, sub_rows: list[tuple]) -> list[tuple]:
    """The common kernel of ad(v) on the whole algebra, v in sub_rows."""
    units = unit_rows(sc.dim)
    return kernel_of_rows([r for v in sub_rows for r in ad_matrix(sc, v, units)], sc.dim)


def _plane_class(m: list[list], families: tuple[str, str, str]) -> DeGraafClass:
    """The class of y acting on a plane by m, up to y -> s*y: the scalar
    family, the traced one with parameter -det/tr^2, or the traceless one with
    -det modulo squares (L2/L3/L4 in dimension 3, M12/M13/M14 in dimension 4)."""
    scalar, traced, traceless = families
    if _is_scalar(m):
        return DeGraafClass(scalar)
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if tr != 0:
        return DeGraafClass(traced, (-det / (tr * tr),))
    if det == 0:
        raise UnrecognizedFamily("nilpotent action on the derived plane")
    return DeGraafClass(traceless, (power_free_kernel(-det),))


def _cyclic3_class(m: list[list]) -> DeGraafClass:
    """The class of y acting cyclically by m on an abelian 3-dimensional
    ideal, up to y -> s*y: M6 with the trace normalized to 1, else M7 with
    (A, B) normalized modulo (s^3, s^2)."""
    if not _is_cyclic3(m):
        raise UnrecognizedFamily("non-cyclic action on abelian nilradical")
    p = char_poly_rows(m)  # t^3 - tr t^2 + e2 t - e3
    tr, e2, e3 = -p[2], p[1], -p[0]
    if tr != 0:
        # rescale y by 1/tr: char poly becomes t^3 - t^2 - B t - A
        return DeGraafClass("M6", (e3 / tr**3, -e2 / tr**2))
    if e3 == 0:
        return DeGraafClass("M7", (ZERO, power_free_kernel(-e2)))
    # rescale y by 1/s with s^3 = e3 / kernel: A becomes the cubefree kernel
    A = power_free_kernel(e3, 3)
    s = rational_nth_root(e3 / A, 3)
    return DeGraafClass("M7", (A, -e2 / (s * s)))


# ---------------------------------------------------------------------------
# the identifier
# ---------------------------------------------------------------------------

def identify_degraaf(sc: StructureConstants) -> DeGraafClass:
    """Identify solvable structure constants of dimension <= 4."""
    d = sc.dim
    if d < 1 or d > 4:
        raise UnsupportedDimension(f"identification implemented for dims 1..4, got {d}")
    if d == 1:
        return DeGraafClass("J")
    units = unit_rows(d)
    derived = bracket_space(sc, units, units)
    k = len(derived)
    if d == 2:
        return DeGraafClass("K1" if k == 0 else "K2")
    if d == 3:
        if k == 0:
            return DeGraafClass("L1")
        if k == 1:
            # Heisenberg (nilpotent) is L4_0; the non-nilpotent K2 (+) J is L3_0
            central = not bracket_space(sc, units, derived)
            return DeGraafClass("L4" if central else "L3", (ZERO,))
        if k == 2:
            y = _complement_vector(d, derived)
            return _plane_class(ad_matrix(sc, y, derived), ("L2", "L3", "L4"))
        raise UnrecognizedFamily("3-dimensional algebra with derived dimension 3 is not solvable")
    if k == 0:
        raise UnrecognizedFamily("abelian of dimension 4 (not among occurring families)")
    if k == 1:
        raise UnrecognizedFamily("derived dimension 1 (not among occurring families)")
    if k == 3:
        return _identify_dim4_derived3(sc, derived)
    return _identify_dim4_derived2(sc, derived)


def _identify_dim4_derived3(sc: StructureConstants, derived: list[tuple]) -> DeGraafClass:
    y = _complement_vector(4, derived)
    zrows = bracket_space(sc, derived, derived)
    if not zrows:
        m = ad_matrix(sc, y, derived)
        return DeGraafClass("M2") if _is_scalar(m) else _cyclic3_class(m)
    # Heisenberg nilradical: z = [D, D] is a line
    if len(zrows) != 1:
        raise UnrecognizedFamily("unexpected derived structure")
    return _plane_class(_quotient_action(sc, y, derived, zrows[0]), ("M12", "M13", "M14"))


def _quotient_action(sc: StructureConstants, y: tuple, derived: list[tuple],
                     z: tuple) -> list[list]:
    """ad(y) on D/z, in the images of the RREF rows of D other than the
    first row j on which z has a nonzero coordinate: modulo z, row j is
    -sum_{k != j} zc_k/zc_j row_k, so each image's coordinates c become
    c_k - c_j*zc_k/zc_j (trace, determinant and scalar-ness do not depend on
    which row is dropped)."""
    zc = echelon_coords(derived, z)
    j = next(i for i, c in enumerate(zc) if c != 0)
    m = ad_matrix(sc, y, derived)
    keep = [i for i in range(len(derived)) if i != j]
    return [[m[i][c] - m[j][c] * zc[i] / zc[j] for c in keep] for i in keep]


def _identify_dim4_derived2(sc: StructureConstants, derived: list[tuple]) -> DeGraafClass:
    d = 4
    cent = _centralizer_of(sc, derived)
    dim_c = len(cent)
    if dim_c == 3:
        if bracket_space(sc, cent, cent):
            raise UnrecognizedFamily("non-abelian centralizer of the derived subalgebra")
        crows = rref(cent)
        c = _cyclic3_class(ad_matrix(sc, _complement_vector(d, crows), crows))
        if c.family == "M6" and c.params[0] != 0:
            raise UnrecognizedFamily("inconsistent derived dimension for M6")
        return c
    if dim_c == 2:
        # L = ad(g) restricted to D is a 2-dimensional abelian family
        lbasis = rref([[x for row in ad_matrix(sc, u, derived) for x in row]
                       for u in unit_rows(d)])
        if len(lbasis) != 2:
            raise UnrecognizedFamily("unexpected adjoint image on derived subalgebra")
        u, v = lbasis
        tr_u = u[0] + u[3]
        tr_v = v[0] + v[3]
        if (tr_u, tr_v) == (0, 0):
            raise UnrecognizedFamily("traceless adjoint pair (not among occurring families)")
        n0 = tuple(-tr_v * a + tr_u * b for a, b in zip(u, v))
        det_n0 = n0[0] * n0[3] - n0[1] * n0[2]
        if det_n0 == 0:
            has_identity = echelon_coords(lbasis, (ONE, ZERO, ZERO, ONE)) is not None
            if has_identity and any(x != 0 for x in n0):
                return DeGraafClass("M13", (ZERO,))
            raise UnrecognizedFamily("nilpotent adjoint direction without scaling element")
        # semisimple pair: M8 needs a rational eigen-splitting
        if rational_sqrt(-det_n0) is None:
            raise UnrecognizedFamily("irrational joint eigenvalues (not among occurring families)")
        return DeGraafClass("M8")
    raise UnrecognizedFamily("central derived subalgebra of dimension 2")


# ---------------------------------------------------------------------------
# translation to the second catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticValue:
    """p + q*sqrt(dsc) (real) or p + q*i*sqrt(|dsc|) (imaginary), exact."""

    p: object
    q: object
    dsc: object
    imaginary: bool = False

    def __str__(self) -> str:
        rad = f"sqrt({format_rational(self.dsc)})"
        if self.imaginary:
            rad = f"i*{rad}"
        return f"({format_rational(self.p)}+{format_rational(self.q)}*{rad})"


def sw_lambda(alpha):
    """The normalized parameter lambda = (1+2a+sqrt(1+4a))/(-2a) with the
    branch satisfying 0 < |lambda| <= 1 (argument in (0, pi) when complex)."""
    alpha = Q(alpha)
    if alpha == 0:
        raise ZeroParameter("lambda normalization needs a nonzero parameter")
    if alpha == Q(-1, 4):
        raise OutOfCatalog("the -1/4 class translates to its own row")
    disc = 1 + 4 * alpha
    s = rational_sqrt(disc)
    if s is not None:
        lam1 = (1 + 2 * alpha + s) / (-2 * alpha)
        lam2 = (1 + 2 * alpha - s) / (-2 * alpha)
        # the two branches multiply to 1, so exactly one has |.| <= 1
        return lam1 if abs(lam1) <= 1 else lam2
    if disc > 0:
        # lambda = p + q*sqrt(disc); |lambda| < 1 iff its inverse (conjugate
        # branch) has modulus > 1; decide by comparing (p-1, p+1) signs
        p0 = (1 + 2 * alpha) / (-2 * alpha)
        q0 = 1 / (-2 * alpha)
        for q in (q0, -q0):
            if _quad_abs_lt_one(p0, q, disc):
                kern = power_free_kernel(disc)
                scale = rational_sqrt(disc / kern)
                return QuadraticValue(p0, q * scale, kern)
        raise OutOfCatalog("no branch satisfied the modulus condition")
    # complex conjugate branches of modulus 1; take positive imaginary part
    p0 = (1 + 2 * alpha) / (-2 * alpha)
    q0 = 1 / (-2 * alpha)  # positive: alpha < -1/4 < 0
    kern = power_free_kernel(-disc)
    scale = rational_sqrt(-disc / kern)
    return QuadraticValue(p0, q0 * scale, kern, imaginary=True)


def _quad_abs_lt_one(p, q, disc) -> bool:
    """Exact test |p + q*sqrt(disc)| < 1 for irrational sqrt(disc) > 0."""
    # p + q*sqrt(disc) < 1  and  > -1
    return _quad_lt(p - 1, q, disc) and _quad_lt(-1 - p, -q, disc)


def _quad_lt(p, q, disc) -> bool:
    """Exact test p + q*sqrt(disc) < 0 (sqrt(disc) irrational positive)."""
    if q == 0:
        return p < 0
    if p == 0:
        return q < 0
    if p < 0 and q < 0:
        return True
    if p > 0 and q > 0:
        return False
    # opposite signs: compare p^2 vs q^2 * disc
    if p < 0:  # need q*sqrt(disc) < -p i.e. q^2 disc < p^2
        return q * q * disc < p * p
    return p * p < q * q * disc


def degraaf_to_sw(c: DeGraafClass) -> SWClass:
    """The indecomposable-catalog label of a de Graaf class occurring here."""
    f, pr = c.family, c.params
    if f == "J":
        return SWClass("n_{1,1}")
    if f == "K1":
        return SWClass("2n_{1,1}")
    if f == "K2":
        return SWClass("s_{2,1}")
    if f == "L1":
        return SWClass("3n_{1,1}")
    if f == "L2":
        return SWClass("s_{3,1}", (ONE,))
    if f == "L3":
        (a,) = pr
        if a == 0:
            return SWClass("n_{1,1}+s_{2,1}")
        if a == Q(-1, 4):
            return SWClass("s_{3,2}")
        return SWClass("s_{3,1}", (sw_lambda(a),))
    if f == "L4":
        (a,) = pr
        if a == 0:
            return SWClass("n_{3,1}")
        if a == 1:
            return SWClass("s_{3,1}", (Q(-1),))
        raise OutOfCatalog(f"L4({format_rational(a)}) does not occur in the tables")
    if f == "M2":
        return SWClass("s_{4,3}", (ONE, ONE))
    if f == "M8":
        return SWClass("s_{4,12}")
    if f == "M12":
        return SWClass("s_{4,8}", (ONE,))
    if f == "M13":
        (a,) = pr
        if a == 0:
            return SWClass("s_{4,11}")
        if a == Q(-1, 4):
            return SWClass("s_{4,10}")
        return SWClass("s_{4,8}", (sw_lambda(a),))
    if f == "M14":
        (a,) = pr
        if a == 1:
            return SWClass("s_{4,6}")
        raise OutOfCatalog(f"M14({format_rational(a)}) does not occur in the tables")
    if f == "M7":
        a, b = pr
        if a != 0:
            raise OutOfCatalog("M7 with nonzero cubic parameter does not occur")
        if b == 0:
            return SWClass("n_{4,1}")
        if power_free_kernel(b) == 1:
            return SWClass("n_{1,1}+s_{3,1}", (Q(-1),))
        raise OutOfCatalog("M7(0, non-square) does not occur in the tables")
    if f == "M6":
        a, b = pr
        if a == 0:
            if b == 0:
                raise OutOfCatalog("M6(0,0) does not occur in the tables")
            if b == Q(-1, 4):
                return SWClass("n_{1,1}+s_{3,2}")
            return SWClass("n_{1,1}+s_{3,1}", (sw_lambda(b),))
        roots = rational_roots(Poly([-a, -b, -1, 1]))
        if sum(roots.values()) != 3:
            raise OutOfCatalog("M6 with irrational nilradical eigenvalues")
        if len(roots) == 1:
            # triple root; the sum of roots is 1 so it is 1/3
            return SWClass("s_{4,2}")
        if len(roots) == 2:
            raise OutOfCatalog("M6 with a repeated eigenvalue (s_{4,4}) does not occur")
        return SWClass("s_{4,3}", _normalize_s43(sorted(roots)))
    raise OutOfCatalog(f"no translation for {c}")


def _normalize_s43(eigs: list) -> tuple:
    """Normalize three distinct nonzero eigenvalues to (1, A, B) with
    0 < |B| <= |A| <= 1 and (A, B) != (-1, -1), dividing by one of them.
    Returns the least (A, B) by (|A|, |B|, A, B)."""
    cands = []
    for r in eigs:
        a, b = sorted((e / r for e in eigs if e is not r), key=lambda x: (-abs(x), x < 0))
        if 0 < abs(b) <= abs(a) <= 1 and (a, b) != (-1, -1):
            cands.append((abs(a), abs(b), (a, b)))
    if not cands:
        raise OutOfCatalog("eigenvalues admit no s_{4,3} normalization")
    return min(cands)[2]


# ---------------------------------------------------------------------------
# explicit isomorphism verification
# ---------------------------------------------------------------------------

def verify_isomorphism(sc_source: StructureConstants,
                       sc_target: StructureConstants, columns) -> bool:
    """True iff the linear map whose column i is the image of source basis
    vector i, in target coordinates, is a bijection carrying the source
    bracket to the target bracket: the target table in the basis of the
    columns is exactly the source table.  Dependent columns give False."""
    d = sc_source.dim
    if sc_target.dim != d or len(columns) != d or any(len(c) != d for c in columns):
        raise DimensionMismatch("isomorphism map has inconsistent dimensions")
    try:
        return sc_target.change_basis(columns) == sc_source
    except DependentInputs:
        return False


def tri_algebra_constants(r) -> StructureConstants:
    """The abstract algebra <T, A, B> with [T,A] = 2A, [T,B] = rB, [A,B] = 0
    (basis order T, A, B)."""
    return StructureConstants.from_brackets(
        3, {(0, 1): {1: 2}, (0, 2): {2: Q(r)}})


# ---------------------------------------------------------------------------
# explicit bridges into the second catalog
# ---------------------------------------------------------------------------

def sw_bridge_map(c: DeGraafClass, label: SWClass | None = None):
    """The explicit isomorphism realizing degraaf_to_sw, bracket-verifiable.

    Returns (bridge_class, columns), the columns mapping the class
    presentation onto the bridge presentation (see `verify_isomorphism`).
    `label` is degraaf_to_sw(c) when the caller has it already.  The bridge
    class equals that label except for M8, whose label is the complex class
    s_{4,12} while the rational bridge is onto the direct sum 2s_{2,1}.
    Raises OutOfCatalog where the translated parameter is irrational.
    """
    if label is None:
        label = degraaf_to_sw(c)
    if any(isinstance(p, QuadraticValue) for p in label.params):
        raise OutOfCatalog("bridge needs a rational normalized parameter")
    cols = _BRIDGES[c.family, label.name]
    if callable(cols):
        cols = cols(c.params, label.params)
    if c.family == "M8":
        label = SWClass("2s_{2,1}")
    return label, cols


def _derived_plane(p, lam) -> tuple:
    """The derived-plane coordinates of the s_{3,1}(lam) block, shared by the
    L3, M13 and split M6 bridges: (-1/s, 1/s) and ((1 + l-/s)/p, -l-/(s p)),
    where l+ + l- = 1, l+/l- = lam and s = l+ - l- (the chosen square root of
    1 + 4p); returned with l+ and s."""
    lminus = 1 / (1 + Q(lam))
    lplus = 1 - lminus
    s = lplus - lminus
    return (-1 / s, 1 / s), ((1 + lminus / s) / p, -lminus / (s * p)), lplus, s


def _l3_bridge(pr, lp):
    (al,), (lam,) = pr, lp
    u, w, lplus, _ = _derived_plane(al, lam)
    return ((*w, ZERO), (*u, ZERO), (ZERO, ZERO, -al / lplus))


def _m13_bridge(pr, lp):
    (al,), (lam,) = pr, lp
    u, w, lplus, s = _derived_plane(al, lam)
    return ((ZERO, *u, ZERO), (1 / (al * s), ZERO, ZERO, ZERO), (ZERO, *w, ZERO),
            (ZERO, ZERO, ZERO, 1 - lplus))


def _m6_split_bridge(pr, lp):
    """M6(0,B) onto n_{1,1} (+) s_{3,1}(lam): slot 0 is the center."""
    (_, b), (lam,) = pr, lp
    u, w, lplus, _ = _derived_plane(b, lam)
    # e1 = B x2 + lminus x3, e2 = B x2 + lplus x3 in the solvable block,
    # and B x1 + x2 - x3 spans the center
    x2, x3 = (ZERO, *w, ZERO), (ZERO, *u, ZERO)
    x1 = tuple(((1 if i == 0 else 0) - x2[i] + x3[i]) / b for i in range(4))
    return (x1, x2, x3, (ZERO, ZERO, ZERO, -b / lplus))


def _m6_s43_bridge(pr, lp):
    """M6(A,B) with three distinct rational nilradical eigenvalues onto
    s_{4,3}(A', B'): eigenvectors of the companion action paired with
    (1, A', B')."""
    (a, b), (ap, bp) = pr, lp
    # the eigenvalues are r', A'r', B'r' and sum to 1 (the t^2 coefficient)
    rprime = 1 / (1 + ap + bp)
    # companion action of ad(x4) on (x1, x2, x3)
    m = [[ZERO, ZERO, Q(a)], [ONE, ZERO, Q(b)], [ZERO, ONE, ONE]]

    def eigvec(mu):
        rows = [[m[i][j] - (mu if i == j else 0) for j in range(3)] for i in range(3)]
        return kernel_of_rows(rows, 3)[0]
    basis = [tuple(eigvec(mu)) + (ZERO,) for mu in (rprime, ap * rprime, bp * rprime)]
    return inverse(Mat4(basis + [(ZERO, ZERO, ZERO, 1 / rprime)])).rows


_ID3, _ID4 = tuple(unit_rows(3)), tuple(unit_rows(4))

# (de Graaf family, translated label name) -> bridge columns, or a builder
# of them from (class parameters, label parameters)
_BRIDGES = {
    ("J", "n_{1,1}"): ((1,),),
    ("K1", "2n_{1,1}"): ((1, 0), (0, 1)),
    ("K2", "s_{2,1}"): ((0, 1), (1, 0)),
    ("L1", "3n_{1,1}"): _ID3,
    ("L2", "s_{3,1}"): _ID3,
    ("L3", "n_{1,1}+s_{2,1}"): ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ("L3", "s_{3,2}"): ((2, -1, 0), (Q(1, 2), Q(-1, 2), 0), (0, 0, Q(1, 2))),
    ("L3", "s_{3,1}"): _l3_bridge,
    ("L4", "n_{3,1}"): ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ("L4", "s_{3,1}"): ((1, 1, 0), (1, -1, 0), (0, 0, 1)),
    ("M2", "s_{4,3}"): _ID4,
    ("M8", "s_{4,12}"): ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    ("M12", "s_{4,8}"): ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
    ("M13", "s_{4,11}"): ((0, 1, 0, 0), (1, 0, 0, 0), (0, 1, -1, 0), (0, 0, 0, 1)),
    ("M13", "s_{4,10}"): ((0, Q(1, 2), Q(1, 2), 0), (Q(-1, 2), 0, 0, 0),
                          (0, 0, 1, 0), (0, 0, 0, Q(1, 2))),
    ("M13", "s_{4,8}"): _m13_bridge,
    ("M14", "s_{4,6}"): ((0, Q(1, 2), Q(1, 2), 0), (Q(1, 2), 0, 0, 0),
                         (0, Q(1, 2), Q(-1, 2), 0), (0, 0, 0, 1)),
    ("M7", "n_{4,1}"): ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1)),
    ("M7", "n_{1,1}+s_{3,1}"): ((1, Q(1, 2), Q(-1, 2), 0), (0, Q(1, 2), Q(1, 2), 0),
                                (0, Q(1, 2), Q(-1, 2), 0), (0, 0, 0, 1)),
    # central slot first, then the s_{3,2} block
    ("M6", "n_{1,1}+s_{3,2}"): ((1, 2, -1, 0), (0, Q(1, 2), Q(-1, 2), 0),
                                (0, 0, Q(-1, 4), 0), (0, 0, 0, Q(1, 2))),
    ("M6", "n_{1,1}+s_{3,1}"): _m6_split_bridge,
    # e4 <-> 3 x4, and e1, e2, e3 a Jordan chain of ad(3 x4) - 1 on the
    # nilradical; columns x_i -> e-coordinates
    ("M6", "s_{4,2}"): ((0, 0, 1, 0), (0, Q(1, 3), Q(1, 3), 0),
                        (Q(1, 9), Q(2, 9), Q(1, 9), 0), (0, 0, 0, Q(1, 3))),
    ("M6", "s_{4,3}"): _m6_s43_bridge,
}
