"""The two reference catalogs of small solvable Lie algebras, their class
labels, and identification against them.

Each catalog is one table, restricted to the classes that occur here:
`_DEGRAAF` the dimension <= 4 classification (families J, K, L, M), `_SW`
the indecomposables up to dimension 6 (n_{d,k}, s_{d,k}).  A label
(`DeGraafClass`, `SWClass`: a class or '+'-direct sum, and its parameters)
is a value that formats itself, and one builder makes its presentation from
the tables once and keeps it (`.constants()`, through `_build`), by
`StructureConstants.from_brackets`, whose Jacobi check runs on every build.
Conventions frozen for this library:

* K^2 is [x1,x2] = x2 (consistent with M^8 = K^2 (+) K^2 and the dimension-2
  correspondence x1 <-> e2, x2 <-> e1);
* M^6_{A,B} is [x4,x1]=x2, [x4,x2]=x3, [x4,x3]=Ax1+Bx2+x3, so that ad(x4) on
  the abelian nilradical has characteristic polynomial t^3 - t^2 - B t - A.

`identify_degraaf` decides the dimension <= 3 classification completely and,
in dimension 4, the families occurring in this classification (M2, M6, M7,
M8, M12, M13, M14), raising UnrecognizedFamily for anything else.  The
decision tree works on intrinsic data: the derived subalgebra D, its
centralizer, and the adjoint action of a complement element, normalized by
the scaling freedom (trace normalization; squarefree/cubefree kernels for
the weight-graded parameters).  It runs on int subspace rows and int
adjoint matrices, and divides only to read a class parameter from a trace,
a determinant or a char-poly coefficient.  It reads D as the [g, g] kept on
the table (`structure._derived_pairs`), which the derived series of a
subalgebra has already eliminated.

One translation gives each de Graaf class occurring here, in the normal form
`identify_degraaf` returns, its label in the second catalog (`degraaf_to_sw`)
and an explicit isomorphism onto it (`sw_bridge_map`).  Its only analytic
step, the square-root branch of lambda = (1 + 2a + sqrt(1+4a)) / (-2a), is
exact.  Write lambda = p + q*sqrt(1+4a): the two branches multiply to 1, so
a real branch has |lambda| < 1 exactly when p*q < 0 (p != 0 when 1+4a > 0),
and a complex branch has modulus 1, where q = 1/(-2a) > 0 gives the
positive imaginary part.

A stated isomorphism is checked by its witness property, with nothing
solved (`verify_isomorphism`): the map's columns satisfy the bracket
identity [phi x_i, phi x_j] = sum_k c_ij^k phi x_k on ints, and one `rref`
rank test shows they are independent (certifying checks of this kind:
McConnell, Mehlhorn, Naeher and Schweitzer, Computer Science Review 5, 2011).
`verify_isomorphism` is the rational front: it checks the map's shape
(`_square_map`, `DimensionMismatch`) and puts the columns over one den; the
int core (`_isomorphism_num`) takes int columns over a den, so the
certifier can hand it the stated columns it reads as ints
(`CatalogEntry.iso_columns_at`), checked by the same `_square_map` and
composed in ints.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations

from .catalog import INSTANCE_CACHE_SIZE
from .errors import (DimensionMismatch, OutOfCatalog,
                     UnrecognizedFamily, UnsupportedDimension, ZeroParameter)
from .linalg import (Mat4, Poly, _char_poly_int, _kernel_int, _over_common_den,
                     inverse, rational_roots, rref)
from .rational import Q, ZERO, Record, format_rational, power_free_split, rational_sqrt
from .structure import StructureConstants, _ad_num, _derived_pairs, _units, bracket_space

__all__ = [
    "DeGraafClass", "SWClass", "identify_degraaf", "degraaf_to_sw", "sw_lambda",
    "QuadraticValue", "verify_isomorphism", "tri_algebra_constants", "sw_bridge_map",
]


# ---------------------------------------------------------------------------
# the two catalogs
# ---------------------------------------------------------------------------

def _fmt(p) -> str:
    """A label parameter: a rational in lowest terms, and anything else (an
    expression, an irrational value) by its own `str`."""
    return format_rational(p) if isinstance(p, (int, Q)) else str(p)


class DeGraafClass(Record):
    __slots__ = ("family", "params")
    _defaults = {"params": ()}

    def __str__(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({','.join(_fmt(p) for p in self.params)})"

    def constants(self) -> StructureConstants:
        return _build("degraaf", self.family, tuple(self.params))


class SWClass(Record):
    __slots__ = ("name", "params")
    _defaults = {"params": ()}

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{chr(65 + i)}={_fmt(p)}" for i, p in enumerate(self.params))
        return f"{self.name}({inner})"

    def constants(self) -> StructureConstants:
        return _build("sw", self.name, tuple(self.params))


# class -> (dimension, {(i, j): {k: c}} for [x_i, x_j], or a function of the
# class's parameters giving it); the parameters are the function's arguments
_DEGRAAF = {
    "J": (1, {}),
    "K1": (2, {}),
    "K2": (2, {(0, 1): {1: 1}}),
    "L1": (3, {}),
    "L2": (3, {(2, 0): {0: 1}, (2, 1): {1: 1}}),
    "L3": (3, lambda A: {(2, 0): {1: 1}, (2, 1): {0: A, 1: 1}}),
    "L4": (3, lambda A: {(2, 0): {1: 1}, (2, 1): {0: A}}),
    "M2": (4, {(3, 0): {0: 1}, (3, 1): {1: 1}, (3, 2): {2: 1}}),
    "M6": (4, lambda A, B: {(3, 0): {1: 1}, (3, 1): {2: 1}, (3, 2): {0: A, 1: B, 2: 1}}),
    "M7": (4, lambda A, B: {(3, 0): {1: 1}, (3, 1): {2: 1}, (3, 2): {0: A, 1: B}}),
    "M8": (4, {(0, 1): {1: 1}, (2, 3): {3: 1}}),
    "M12": (4, {(3, 0): {0: 1}, (3, 1): {1: 2}, (3, 2): {2: 1}, (2, 0): {1: 1}}),
    "M13": (4, lambda A: {(3, 0): {0: 1, 2: A}, (3, 1): {1: 1}, (3, 2): {0: 1},
                          (2, 0): {1: 1}}),
    "M14": (4, lambda A: {(3, 0): {2: A}, (3, 2): {0: 1}, (2, 0): {1: 1}}),
}

_SW = {
    "n_{1,1}": (1, {}),
    "s_{2,1}": (2, {(1, 0): {0: 1}}),
    "n_{3,1}": (3, {(1, 2): {0: 1}}),
    "s_{3,1}": (3, lambda A: {(2, 0): {0: 1}, (2, 1): {1: A}}),
    "s_{3,2}": (3, {(2, 0): {0: 1}, (2, 1): {0: 1, 1: 1}}),
    "n_{4,1}": (4, {(1, 3): {0: 1}, (2, 3): {1: 1}}),
    "s_{4,2}": (4, {(3, 0): {0: 1}, (3, 1): {0: 1, 1: 1}, (3, 2): {1: 1, 2: 1}}),
    "s_{4,3}": (4, lambda A, B: {(3, 0): {0: 1}, (3, 1): {1: A}, (3, 2): {2: B}}),
    "s_{4,6}": (4, {(1, 2): {0: 1}, (3, 1): {1: 1}, (3, 2): {2: -1}}),
    "s_{4,8}": (4, lambda A: {(1, 2): {0: 1}, (3, 0): {0: 1 + A}, (3, 1): {1: 1},
                              (3, 2): {2: A}}),
    "s_{4,10}": (4, {(1, 2): {0: 1}, (3, 0): {0: 2}, (3, 1): {1: 1},
                     (3, 2): {1: 1, 2: 1}}),
    "s_{4,11}": (4, {(1, 2): {0: 1}, (3, 0): {0: 1}, (3, 1): {1: 1}}),
    "s_{4,12}": (4, {(2, 0): {0: 1}, (2, 1): {1: 1}, (3, 0): {1: -1},
                     (3, 1): {0: 1}}),
    "s_{5,33}": (5, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 1): {1: -1},
                     (4, 2): {2: -2}, (4, 3): {3: 1}}),
    "s_{5,35}": (5, lambda A: {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: A + 2},
                               (4, 1): {1: A + 1}, (4, 2): {2: A}, (4, 3): {3: 1}}),
    "s_{5,36}": (5, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: 2},
                     (4, 1): {1: 1}, (4, 3): {3: 1}}),
    "s_{5,37}": (5, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: 1},
                     (4, 1): {1: 1}, (4, 2): {2: 1}}),
    "s_{5,41}": (5, lambda A, B: {(3, 0): {0: 1}, (3, 2): {2: A}, (4, 1): {1: 1},
                                  (4, 2): {2: B}}),
    "s_{5,44}": (5, {(1, 2): {0: 1}, (3, 0): {0: 1}, (3, 1): {1: 1},
                     (4, 1): {1: 1}, (4, 2): {2: -1}}),
    "s_{6,242}": (6, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: 2},
                      (4, 1): {1: 1}, (4, 3): {3: 1}, (5, 0): {0: 1},
                      (5, 1): {1: 1}, (5, 2): {2: 1}}),
}

# a summand of an sw name: a multiplicity >= 2 without leading zero, then
# its class (always a match: anything else is left in the class)
_SUMMAND = re.compile(r"([1-9][0-9]+|[2-9])?(.*)", re.S)
_MAX_DIM = max(dim for dim, _ in _SW.values())


def _arity(brackets) -> int:
    """How many parameters the class of a table entry's brackets takes."""
    return brackets.__code__.co_argcount if callable(brackets) else 0


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _build(catalog: str, name: str, params: tuple) -> StructureConstants:
    """The presentation of `name` in the de Graaf or the sw catalog, kept
    per (name, params).  An sw name is an indecomposable class or a
    '+'-direct sum with multiplicity prefixes, "2n_{1,1}",
    "n_{1,1}+s_{3,1}": the direct sum of its (multiplicity, class) summands,
    in order, each taking as many of `params` as its class does, the copies
    of a multiple sharing theirs.  A sum the table does not carry, or above
    the largest dimension here, is refused before anything is built."""
    if catalog == "degraaf":
        table, summands = _DEGRAAF, ((1, name),)
    else:
        # two digits of a multiplicity already pass the largest dimension
        table, summands = _SW, [(int((m[1] or "1")[:2]), m[2])
                                for m in map(_SUMMAND.fullmatch, name.split("+"))]
    if any(cls not in table for _, cls in summands):
        raise OutOfCatalog(f"{name!r} names a class outside the tables")
    if sum(mult * table[cls][0] for mult, cls in summands) > _MAX_DIM:
        raise OutOfCatalog(f"{name} is above dimension {_MAX_DIM}, the largest here")
    need = sum(_arity(table[cls][1]) for _, cls in summands)
    if len(params) != need:
        raise OutOfCatalog(f"{name} takes {need} parameters, {len(params)} given")
    brackets, shift, rest = {}, 0, [Q(p) for p in params]
    for mult, cls in summands:
        dim, br = table[cls]
        if callable(br):
            br, rest = br(*rest[:_arity(br)]), rest[_arity(br):]
        for _ in range(mult):
            brackets.update({(i + shift, j + shift): {k + shift: c for k, c in row.items()}
                             for (i, j), row in br.items()})
            shift += dim
    return StructureConstants.from_brackets(shift, brackets)


# ---------------------------------------------------------------------------
# helpers on coordinate subspaces, held as `rref` (pivot, int row) pairs
# ---------------------------------------------------------------------------

def _complement_vector(d: int, pairs: list[tuple]) -> list[int]:
    """The first unit row outside a proper subspace given by its pairs (a
    unit row lies in the span only if it is the span's RREF row at its
    pivot, so only if that int row has one nonzero entry)."""
    inside = {c for c, r in pairs if len(r) - r.count(0) == 1}
    return next(u for j, u in enumerate(_units(d)) if j not in inside)


def _is_scalar(m: list[list]) -> bool:
    k = len(m)
    return all(m[i][j] == (m[0][0] if i == j else 0) for i in range(k) for j in range(k))


def _is_cyclic3(m: list[list[int]]) -> bool:
    """A 3x3 matrix is cyclic iff its minimal polynomial has degree 3,
    i.e. m^2 is not a linear combination of I and m."""
    k = 3
    m2 = [[sum(m[i][t] * m[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    return len(rref([[x for row in mat for x in row] for mat in (_units(k), m, m2)])) == 3


def _centralizer_of(sc: StructureConstants, sub: list[list[int]]) -> list[list[int]]:
    """Int vectors spanning the common kernel of ad(v) on the whole algebra,
    v in the int rows `sub`."""
    units = list(enumerate(_units(sc.dim)))
    rows = [r for v in sub for r in _ad_num(sc, v, units)[0]]
    return [v for _, v in _kernel_int(rows, sc.dim)]


def _plane_class(m: list[list[int]], e: int, families: tuple[str, str, str]) -> DeGraafClass:
    """The class of y acting on a plane by the int matrix m over e != 0, up
    to y -> s*y: the scalar family, the traced one with parameter
    -det/tr^2, or the traceless one with -det modulo squares (L2/L3/L4 in
    dimension 3, M12/M13/M14 in dimension 4).  The plane is D = [g, g]
    (D/[D, D] in dimension 4), and g = Cy + D gives D = [y, D] + [D, D], so
    m is onto: det != 0."""
    scalar, traced, traceless = families
    if _is_scalar(m):
        return DeGraafClass(scalar)
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if tr != 0:
        return DeGraafClass(traced, (Q(-det, tr * tr),))
    return DeGraafClass(traceless, (power_free_split(Q(-det, e * e))[0],))


def _cyclic3_class(m: list[list[int]], e: int) -> DeGraafClass:
    """The class of y acting cyclically by the int matrix m over e > 0 on an
    abelian 3-dimensional ideal, up to y -> s*y: M6 with the trace
    normalized to 1, else M7 with (A, B) normalized modulo (s^3, s^2)."""
    if not _is_cyclic3(m):
        raise UnrecognizedFamily("non-cyclic action on abelian nilradical")
    p = _char_poly_int(m, e)  # t^3 - tr t^2 + e2 t - e3
    tr, e2, e3 = -p[2], p[1], -p[0]
    if tr != 0:
        # rescale y by 1/tr: char poly becomes t^3 - t^2 - B t - A
        return DeGraafClass("M6", (e3 / tr**3, -e2 / tr**2))
    if e3 == 0:
        return DeGraafClass("M7", (ZERO, power_free_split(-e2)[0]))
    # rescale y by 1/s, s of either sign, with e3 = s^3 A: A is the positive cubefree kernel
    A, s = power_free_split(abs(e3), 3)
    return DeGraafClass("M7", (A, -e2 / (s * s)))


# ---------------------------------------------------------------------------
# the identifier
# ---------------------------------------------------------------------------

def identify_degraaf(sc: StructureConstants) -> DeGraafClass:
    """Identify solvable structure constants of dimension <= 4.

    The table must be a Lie algebra's: antisymmetric, as every
    `StructureConstants` is, and satisfying the Jacobi identity, which
    `StructureConstants.from_brackets` checks and a subalgebra's table
    satisfies.  The label of any other table means nothing."""
    d = sc.dim
    if d < 1 or d > 4:
        raise UnsupportedDimension(f"identification implemented for dims 1..4, got {d}")
    if d == 1:
        return DeGraafClass("J")
    derived = _derived_pairs(sc)
    k = len(derived)
    if d == 2:
        return DeGraafClass("K1" if k == 0 else "K2")
    if d == 3:
        if k == 0:
            return DeGraafClass("L1")
        if k == 1:
            # Heisenberg (nilpotent) is L4_0; the non-nilpotent K2 (+) J is L3_0
            central = not bracket_space(sc, _units(d), [r for _, r in derived])
            return DeGraafClass("L4" if central else "L3", (ZERO,))
        if k == 2:
            y = _complement_vector(d, derived)
            return _plane_class(*_ad_num(sc, y, derived), ("L2", "L3", "L4"))
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
    rows = [r for _, r in derived]
    zrows = bracket_space(sc, rows, rows)
    if not zrows:
        m, e = _ad_num(sc, y, derived)
        return DeGraafClass("M2") if _is_scalar(m) else _cyclic3_class(m, e)
    # Heisenberg nilradical: z = [D, D] is a line
    if len(zrows) != 1:
        raise UnrecognizedFamily("unexpected derived structure")
    return _plane_class(*_quotient_action(sc, y, derived, zrows[0][1]), ("M12", "M13", "M14"))


def _quotient_action(sc: StructureConstants, y: list[int], derived: list[tuple],
                     z: list[int]) -> tuple[list[list[int]], int]:
    """ad(y) on D/z, as an int matrix over one den, in the images of the
    RREF rows of D other than the first row j on which z has a nonzero
    coordinate (z lies in D, so its coordinates zc are its entries at D's
    pivots): modulo z, row j is -sum_{k != j} zc_k/zc_j row_k, so each
    image's coordinates c become c_k - c_j*zc_k/zc_j, here times zc_j
    (trace, determinant and scalar-ness do not depend on which row is
    dropped)."""
    zc = [z[c] for c, _ in derived]
    j = next(i for i, c in enumerate(zc) if c != 0)
    m, e = _ad_num(sc, y, derived)
    keep = [i for i in range(len(derived)) if i != j]
    return [[m[i][c] * zc[j] - m[j][c] * zc[i] for c in keep] for i in keep], e * zc[j]


def _identify_dim4_derived2(sc: StructureConstants, derived: list[tuple]) -> DeGraafClass:
    """g has a derived plane D, nilpotent and so abelian.  Its centralizer C
    contains D and is the kernel of ad(g) restricted to D, whose image L is
    abelian (ad(D) vanishes on D).  C is not g, or [g, g] would be a line,
    so dim C is 3 or 2.  With dim C = 3, C is abelian, and y outside it maps
    C onto D: ad(y) on C is singular, an M6 has A = 0.  With dim C = 2, L is
    a plane, not traceless (sl2 has no abelian plane); a nilpotent traceless
    direction n0 of L makes L = span(1, n0)."""
    cent = _centralizer_of(sc, [r for _, r in derived])
    if len(cent) == 3:
        crows = rref(cent)
        return _cyclic3_class(*_ad_num(sc, _complement_vector(4, crows), crows))
    # L's matrices share one den, so their int numerators span it
    (_, u), (_, v) = rref([[x for row in _ad_num(sc, w, derived)[0] for x in row]
                                for w in _units(4)])
    tr_u = u[0] + u[3]
    tr_v = v[0] + v[3]
    n0 = [-tr_v * a + tr_u * b for a, b in zip(u, v)]
    det_n0 = n0[0] * n0[3] - n0[1] * n0[2]
    if det_n0 == 0:
        return DeGraafClass("M13", (ZERO,))
    # semisimple pair: M8 needs a rational eigen-splitting
    if rational_sqrt(-det_n0) is None:
        raise UnrecognizedFamily("irrational joint eigenvalues (not among occurring families)")
    return DeGraafClass("M8")


# ---------------------------------------------------------------------------
# translation to the second catalog
# ---------------------------------------------------------------------------

class QuadraticValue(Record):
    """p + q*sqrt(dsc) (real) or p + q*i*sqrt(|dsc|) (imaginary), exact."""

    __slots__ = ("p", "q", "dsc", "imaginary")
    _defaults = {"imaginary": False}

    def __str__(self) -> str:
        rad = f"sqrt({format_rational(self.dsc)})"
        if self.imaginary:
            rad = f"i*{rad}"
        sign = "+" if self.q > 0 else "-"
        return f"({format_rational(self.p)}{sign}{format_rational(abs(self.q))}*{rad})"


def sw_lambda(alpha):
    """The normalized parameter lambda = (1+2a+sqrt(1+4a))/(-2a) with the
    branch satisfying 0 < |lambda| <= 1 (argument in (0, pi) when complex)."""
    alpha = Q(alpha)
    if alpha == 0:
        raise ZeroParameter("lambda normalization needs a nonzero parameter")
    if alpha == Q(-1, 4):
        raise OutOfCatalog("the -1/4 class translates to its own row")
    # lambda = p + q*sqrt(disc); the branches p +- q*sqrt(disc) multiply to 1
    disc = 1 + 4 * alpha
    p, q = (1 + 2 * alpha) / (-2 * alpha), 1 / (-2 * alpha)
    if disc > 0 and p * q > 0:
        q = -q  # the real branch of modulus < 1 has p*q < 0
    s = rational_sqrt(disc)
    if s is not None:
        return p + q * s
    kern, scale = power_free_split(abs(disc))
    return QuadraticValue(p, q * scale, kern, imaginary=disc < 0)


def degraaf_to_sw(c: DeGraafClass) -> SWClass:
    """The indecomposable-catalog label of a de Graaf class occurring here.
    The class is read as written: its parameters must be the normal form
    `identify_degraaf` returns, so L4(4), isomorphic to L4(1), is refused."""
    return _translation(c)[0]


def sw_bridge_map(c: DeGraafClass):
    """(bridge class, columns): an isomorphism realizing degraaf_to_sw, its
    columns (built on this call for a class with a parameter) mapping the
    class presentation onto the bridge class's (see `verify_isomorphism`).
    Raises OutOfCatalog where the translated parameter is irrational."""
    label, bridge_class, columns = _translation(c)
    if any(isinstance(p, QuadraticValue) for p in label.params):
        raise OutOfCatalog("bridge needs a rational normalized parameter")
    return bridge_class, columns()


def _to(name: str, columns, params: tuple = ()) -> tuple:
    """A translation whose bridge class is its label."""
    label = SWClass(name, params)
    return label, label, columns


# the classes carried in one normal form: class -> (label, the columns of an
# isomorphism onto it, row by row), and for M8 a third item, the bridge class:
# its label is the complex class s_{4,12}, its rational bridge is onto 2s_{2,1}
_FIXED = {DeGraafClass(f, pr): (SWClass(name, tuple(map(Q, params))),
                                tuple(tuple(map(Q, c.split())) for c in columns.split(";")),
                                *map(SWClass, bridge))
          for f, pr, name, params, columns, *bridge in (
    ("J", (), "n_{1,1}", (), "1"),
    ("K1", (), "2n_{1,1}", (), "1 0; 0 1"),
    ("K2", (), "s_{2,1}", (), "0 1; 1 0"),
    ("L1", (), "3n_{1,1}", (), "1 0 0; 0 1 0; 0 0 1"),
    ("L2", (), "s_{3,1}", (1,), "1 0 0; 0 1 0; 0 0 1"),
    ("L3", (0,), "n_{1,1}+s_{2,1}", (), "1 1 0; 0 1 0; 0 0 1"),
    ("L3", (Q(-1, 4),), "s_{3,2}", (), "2 -1 0; 1/2 -1/2 0; 0 0 1/2"),
    ("L4", (0,), "n_{3,1}", (), "0 0 1; 1 0 0; 0 1 0"),
    ("L4", (1,), "s_{3,1}", (-1,), "1 1 0; 1 -1 0; 0 0 1"),
    ("M2", (), "s_{4,3}", (1, 1), "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1"),
    ("M8", (), "s_{4,12}", (), "0 1 0 0; 1 0 0 0; 0 0 0 1; 0 0 1 0", "2s_{2,1}"),
    ("M12", (), "s_{4,8}", (1,), "0 0 1 0; 1 0 0 0; 0 1 0 0; 0 0 0 1"),
    ("M13", (0,), "s_{4,11}", (), "0 1 0 0; 1 0 0 0; 0 1 -1 0; 0 0 0 1"),
    ("M13", (Q(-1, 4),), "s_{4,10}", (), "0 1/2 1/2 0; -1/2 0 0 0; 0 0 1 0; 0 0 0 1/2"),
    ("M14", (1,), "s_{4,6}", (), "0 1/2 1/2 0; 1/2 0 0 0; 0 1/2 -1/2 0; 0 0 0 1"),
    ("M7", (0, 0), "n_{4,1}", (), "0 0 1 0; 0 1 0 0; 1 0 0 0; 0 0 0 -1"),
    ("M7", (0, 1), "n_{1,1}+s_{3,1}", (-1,),
     "1 1/2 -1/2 0; 0 1/2 1/2 0; 0 1/2 -1/2 0; 0 0 0 1"),
    # central slot first, then the s_{3,2} block
    ("M6", (0, Q(-1, 4)), "n_{1,1}+s_{3,2}", (),
     "1 2 -1 0; 0 1/2 -1/2 0; 0 0 -1/4 0; 0 0 0 1/2"),
    # t^3-t^2-Bt-A = (t-1/3)^3: e4 <-> 3 x4, e1, e2, e3 a Jordan chain of ad(3 x4)-1
    ("M6", (Q(1, 27), Q(-1, 3)), "s_{4,2}", (),
     "0 0 1 0; 0 1/3 1/3 0; 1/9 2/9 1/9 0; 0 0 0 1/3"),
)}


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _translation(c: DeGraafClass) -> tuple:
    """(label, bridge class, columns builder) of a de Graaf class: how each
    class occurring here meets the second catalog.  A class in one normal
    form reads `_FIXED`; L3(A), M13(A) and M6(0,B) at every other nonzero
    parameter translate through its lambda (`_LAMBDA`); an M6 with A != 0 is
    rooted here (once per class while cached) and, with three distinct rational
    roots, is s_{4,3}.  Any other class is refused with what the tables carry."""
    if c in _FIXED:
        label, columns, *bridge = _FIXED[c]
        return label, bridge[0] if bridge else label, lambda: columns
    f, pr = c.family, c.params
    if pr and pr[-1] != 0 and (f, pr[:-1]) in _LAMBDA:
        name, bridge = _LAMBDA[f, pr[:-1]]
        a, lam = pr[-1], sw_lambda(pr[-1])
        return _to(name, lambda: bridge(a, lam), (lam,))
    if f == "M6" and len(pr) == 2:
        a, b = pr
        roots = rational_roots(Poly([-a, -b, -1, 1]))
        if sum(roots.values()) == 3 and len(roots) == 3:
            ap, bp = _normalize_s43(sorted(roots))
            return _to("s_{4,3}", lambda: _m6_s43_bridge(a, b, ap, bp), (ap, bp))
    carried = [str(k) for k in _FIXED if k.family == f] + [
        f"{DeGraafClass(f, lead + (chr(65 + len(lead)),))} at every other nonzero value"
        for g, lead in _LAMBDA if g == f]
    if f == "M6":
        carried.append("M6(A,B) at A != 0 where t^3-t^2-Bt-A has three distinct rational roots")
    raise OutOfCatalog(f"the tables carry {', '.join(carried) or f'no {f} class'}; not {c}")


def _normalize_s43(eigs: list) -> tuple:
    """Normalize three distinct nonzero eigenvalues to (1, A, B) with
    0 < |B| <= |A| <= 1 and (A, B) != (-1, -1), dividing by one of them.
    Returns the least (A, B) by (|A|, |B|, A, B)."""
    cands = []
    for r in eigs:
        a, b = sorted((e / r for e in eigs if e is not r), key=lambda x: (-abs(x), x < 0))
        if 0 < abs(b) <= abs(a) <= 1 and (a, b) != (-1, -1):
            cands.append((abs(a), abs(b), (a, b)))
    # never empty: dividing by an eigenvalue of largest modulus normalizes
    return min(cands)[2]


# ---------------------------------------------------------------------------
# explicit isomorphism verification
# ---------------------------------------------------------------------------

def verify_isomorphism(sc_source: StructureConstants,
                       sc_target: StructureConstants, columns) -> bool:
    """True iff the linear map phi whose column i is the image of source
    basis vector i, in target coordinates, is a bijection carrying the
    source bracket to the target bracket: [phi x_i, phi x_j] =
    sum_k c_ij^k phi x_k for every pair i < j, and the columns are
    independent (one `rref` rank test).  Coordinates in an independent basis
    are unique, so this holds iff the target table in the basis of the
    columns is exactly the source table; nothing is solved.  With the
    columns over one common den e, Y_k = e * phi x_k, the identity is
    checked on ints: den_s * den_t [Y_i, Y_j] = e * den_t * sum_k num_ij^k Y_k."""
    d = _square_map(sc_source, sc_target, columns)
    flat, e = _over_common_den([x for c in columns for x in c])
    return _isomorphism_num(sc_source, sc_target, [flat[n * d:(n + 1) * d] for n in range(d)], e)


def _square_map(sc_source: StructureConstants, sc_target: StructureConstants,
                columns) -> int:
    """d, for a map of d columns of length d between two d-dimensional
    tables; any other map raises DimensionMismatch."""
    d = sc_source.dim
    if sc_target.dim != d or len(columns) != d or any(len(c) != d for c in columns):
        raise DimensionMismatch("isomorphism map has inconsistent dimensions")
    return d


def _isomorphism_num(sc_source: StructureConstants, sc_target: StructureConstants,
                     ys, e: int) -> bool:
    """`verify_isomorphism` for the d int columns ys over den e > 0, each of
    length d: the bracket identity on ints, then one rank test."""
    d = sc_source.dim
    lhs_scale, rhs_scale = sc_source.den, e * sc_target.den
    for i, j in combinations(range(d), 2):
        rhs = [0] * d
        for c, y in zip(sc_source.num[i][j], ys):
            if c:
                rhs = [a + c * b for a, b in zip(rhs, y)]
        lhs = sc_target._bracket_num(ys[i], ys[j])
        if [lhs_scale * x for x in lhs] != [rhs_scale * x for x in rhs]:
            return False
    return len(rref(ys)) == d


def tri_algebra_constants(r) -> StructureConstants:
    """The abstract algebra <T, A, B> with [T,A] = 2A, [T,B] = rB, [A,B] = 0
    (basis order T, A, B)."""
    return StructureConstants.from_brackets(
        3, {(0, 1): {1: 2}, (0, 2): {2: Q(r)}})


# ---------------------------------------------------------------------------
# the bridges with a parameter
# ---------------------------------------------------------------------------

def _derived_plane(p, lam) -> tuple:
    """The derived-plane coordinates of the s_{3,1}(lam) block, shared by the
    L3, M13 and split M6 bridges: (-1/s, 1/s) and ((1 + l-/s)/p, -l-/(s p)),
    where l+ + l- = 1, l+/l- = lam and s = l+ - l- (the chosen square root of
    1 + 4p); returned with l+ and s."""
    lminus = 1 / (1 + Q(lam))
    lplus = 1 - lminus
    s = lplus - lminus
    return (-1 / s, 1 / s), ((1 + lminus / s) / p, -lminus / (s * p)), lplus, s


def _l3_bridge(al, lam):
    u, w, lplus, _ = _derived_plane(al, lam)
    return ((*w, ZERO), (*u, ZERO), (ZERO, ZERO, -al / lplus))


def _m13_bridge(al, lam):
    u, w, lplus, s = _derived_plane(al, lam)
    return ((ZERO, *u, ZERO), (1 / (al * s), ZERO, ZERO, ZERO), (ZERO, *w, ZERO),
            (ZERO, ZERO, ZERO, 1 - lplus))


def _m6_split_bridge(b, lam):
    """M6(0,B) onto n_{1,1} (+) s_{3,1}(lam): slot 0 is the center."""
    u, w, lplus, _ = _derived_plane(b, lam)
    # e1 = B x2 + lminus x3, e2 = B x2 + lplus x3 in the solvable block,
    # and B x1 + x2 - x3 spans the center
    x2, x3 = (ZERO, *w, ZERO), (ZERO, *u, ZERO)
    x1 = tuple(((1 if i == 0 else 0) - x2[i] + x3[i]) / b for i in range(4))
    return (x1, x2, x3, (ZERO, ZERO, ZERO, -b / lplus))


def _m6_s43_bridge(a, b, ap, bp):
    """M6(A,B) with three distinct rational nilradical eigenvalues onto
    s_{4,3}(A', B'): eigenvectors of the companion action paired with
    (1, A', B')."""
    # the eigenvalues are r', A'r', B'r' and sum to 1 (the t^2 coefficient)
    rprime = 1 / (1 + ap + bp)
    # companion action of ad(x4) on (x1, x2, x3)
    m = [[0, 0, a], [1, 0, b], [0, 1, 1]]

    def eigvec(mu):
        # the kernel of m - mu, scaled to 1 at its free column
        rows = [[m[i][j] - (mu if i == j else 0) for j in range(3)] for i in range(3)]
        f, v = _kernel_int([_over_common_den(r)[0] for r in rows], 3)[0]
        return tuple([Q(x, v[f]) for x in v])
    basis = [eigvec(mu) + (ZERO,) for mu in (rprime, ap * rprime, bp * rprime)]
    return inverse(Mat4(basis + [(ZERO, ZERO, ZERO, 1 / rprime)])).rows


# the classes carried at every other nonzero value of their last parameter,
# the others as in the key: (family, the others) -> (label, bridge of (A, lambda))
_LAMBDA = {("L3", ()): ("s_{3,1}", _l3_bridge), ("M13", ()): ("s_{4,8}", _m13_bridge),
           ("M6", (0,)): ("n_{1,1}+s_{3,1}", _m6_split_bridge)}
