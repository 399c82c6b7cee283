"""The concrete sp(4) apparatus.

Fixes the symplectic form, the root vectors, the diagonal family T_{a,b} =
diag(a, b, -a, -b), the standard subalgebras (Cartan t, Borel b, nilradical n,
parabolic p and its nilradical n_p), the named group elements used as
conjugators, and the Weyl action on diagonal parameters.

The form is

    J = [[0, 0, 1, 0],
         [0, 0, 0, 1],
         [-1, 0, 0, 0],
         [0, -1, 0, 0]],

sp(4) is the set of X with J X^t J = X, and Sp(4) = {g : g J g^t = J}.
The positive root vectors, in the basis of the matrix displays, are

    X_alpha = E24,  X_beta = E12 - E43,
    X_{alpha+beta} = E14 + E23,  X_{alpha+2beta} = E13,

with ad(T_{a,b}) eigenvalues 2b, a-b, a+b, 2a respectively.  X_alpha and
X_{alpha+2beta} are the long roots.

An element of sp(4) is fixed by ten of its entries, its root coordinates,
whose format `linalg` owns (`linalg._COORDS`, `_from_coords`, and the one
membership test `_sp4_coords`, behind `in_sp4`).  One table, `_ROOTS`,
states each positive root's coordinate and its value p a + q b on T(a, b);
the root vectors, `root_value`, `element`, the catalog's coordinate rows
(`_coord_row`), the standard subalgebras (spans of unit coordinates) and
`jordan`'s Borel components read it.

The one Sp(4) test reads g^{-1} = -J g^t J off g's numerators and checks
g g^{-1} = I by one product (`_group_inverse_num`, behind `in_sp4_group`).
`conjugate_subalgebra` takes that g^{-1} and forms each g b g^{-1} over
the nonzero entries of b, g and g^{-1} only, so its cost follows their
nonzeros: the named conjugators and the diagonal ones are monomial (four
nonzeros), and each then costs one term per nonzero of b.  Each image is
read at the ten coordinates untested, as Ad(g) keeps sp(4).
"""

from __future__ import annotations

from .errors import ExpressionLimit, Sp4Error
from .exprs import eval_expr
from .linalg import (_LAYOUT, Mat4, Subspace, _from_coords, _mul_num, _over_common_den,
                     _read_coords, _sp4_coords, inverse, rref)
from .rational import Q, Record

__all__ = [
    "J_FORM", "X_ALPHA", "X_BETA", "X_AB", "X_A2B", "ROOT_VECTORS", "ROOT_LABELS",
    "T", "element", "DiagonalElement", "root_value", "in_sp4", "in_sp4_group",
    "bracket", "conjugate", "conjugate_subalgebra",
    "W_MAT", "A_MAT", "AJ_MAT", "WA_MAT", "shear", "diag_conjugator",
    "block_sl2", "gl2_block", "parse_conjugator",
    "standard_subalgebra", "weyl_orbit",
]

J_FORM = Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])

# Each positive root, in the order of `element`'s coefficients: its
# coordinate and its value p*a + q*b on T(a, b), as (coordinate, p, q).
_ROOTS = {"alpha": (6, 0, 2), "beta": (1, 1, -1), "alpha_plus_beta": (3, 1, 1),
          "alpha_plus_2beta": (2, 2, 0)}
ROOT_LABELS = tuple(_ROOTS)
ROOT_VECTORS = {g: _from_coords([int(k == c) for k in range(10)], 1)
                for g, (c, _, _) in _ROOTS.items()}
X_ALPHA, X_BETA, X_AB, X_A2B = ROOT_VECTORS.values()
# the coordinates of `element`'s arguments: T(a, b)'s a and b, then the roots
_ELEMENT_COORDS = (0, 5) + tuple(c for c, _, _ in _ROOTS.values())


def root_value(label: str, a, b):
    """The eigenvalue p*a + q*b of ad(T_{a,b}) on the given root vector."""
    _, p, q = _ROOTS[label]
    return p * Q(a) + q * Q(b)


def element(a, b, ca=0, cb=0, cab=0, ca2b=0) -> Mat4:
    """T(a,b) + ca*X_alpha + cb*X_beta + cab*X_{alpha+beta} + ca2b*X_{alpha+2beta},
    laid out from its ten coordinates over the coefficients' lcm."""
    nums, den = _over_common_den((a, b, ca, cb, cab, ca2b))
    return _from_coords(_coord_row(nums), den)


def _coord_row(nums) -> list[int]:
    """The ten coordinates of `element`'s arguments (a, b, ca, cb, cab, ca2b)
    given as ints (the numerators over one den)."""
    row = [0] * 10
    for k, v in zip(_ELEMENT_COORDS, nums):
        row[k] = v
    return row


def T(a, b) -> Mat4:
    """The diagonal element diag(a, b, -a, -b)."""
    return element(a, b)


class DiagonalElement(Record):
    __slots__ = ("a", "b")


# J is a signed permutation matrix, so J m^t J permutes m's entries with
# signs.  Applied to the grid of entries 1..16 it puts +-(u + 1) where entry
# u lands, so entry v of J m^t J is sign * m[u] for the v-th (u, sign) here.
_J_TABLE = tuple((abs(x) - 1, 1 if x > 0 else -1)
                 for x in (J_FORM * Mat4._make(range(1, 17), 1).transpose() * J_FORM).num)


def in_sp4(m: Mat4) -> bool:
    """Membership in the Lie algebra, J m^t J = m: `linalg._sp4_coords`."""
    return _sp4_coords(m) is not None


def in_sp4_group(g: Mat4) -> bool:
    """Membership in the group: g J g^t = J bit-exactly (`_group_inverse_num`)."""
    return _group_inverse_num(g) is not None


def _group_inverse_num(g: Mat4) -> list[int] | None:
    """The numerators of g^{-1} = -J g^t J over g.den, or None when g is
    outside Sp(4): g J g^t = J exactly when g (-J g^t J) = I."""
    a, d = g.num, g.den
    inv = [-sign * a[u] for u, sign in _J_TABLE]
    return inv if _mul_num(a, inv) == [d * d if i % 5 == 0 else 0 for i in range(16)] else None


def bracket(x: Mat4, y: Mat4) -> Mat4:
    """[x, y] = xy - yx, from the two int products over x.den * y.den."""
    a, b = x.num, y.num
    return Mat4._make([p - q for p, q in zip(_mul_num(a, b), _mul_num(b, a))], x.den * y.den)


def conjugate(g: Mat4, x: Mat4) -> Mat4:
    """The Adjoint action g x g^{-1} (raises SingularMatrix for singular g)."""
    return g * x * inverse(g)


def conjugate_subalgebra(g: Mat4, s: Subspace) -> Subspace:
    """Element-wise Adjoint image g s g^{-1} under the action of Sp(4),
    re-echelonized; dimension is preserved.  g^{-1} comes from the group
    test (`_group_inverse_num`), so a g outside Sp(4) raises Sp4Error.  Each
    g b g^{-1} is one int accumulation of b_kl g_ik (g^{-1})_lj over the
    nonzeros of b, of column k of g and of row l of g^{-1}, so its cost
    follows the nonzeros: one term per nonzero of b for a monomial g, and
    at most 256 for dense ones."""
    a = g.num
    if (inv := _group_inverse_num(g)) is None:
        raise Sp4Error("conjugate_subalgebra needs a conjugator in Sp(4)")
    # (4i, g_ik) for each nonzero of column k of g, and (j, (g^-1)_lj) of row l
    cols = [[(n & 12, a[n]) for n in range(k, 16, 4) if a[n]] for k in range(4)]
    rows = [[(n & 3, inv[n]) for n in range(4 * l, 4 * l + 4) if inv[n]] for l in range(4)]
    out = []
    for _, r in s.pairs:
        acc = [0] * 16
        for kl, (k, sign) in enumerate(_LAYOUT):  # b_kl, b laid out from r
            if x := sign * r[k]:
                for i, gik in cols[kl >> 2]:
                    f = x * gik
                    for j, h in rows[kl & 3]:
                        acc[i + j] += f * h
        out.append(_read_coords(acc))
    return Subspace._of(rref(out))


# -- named conjugators -------------------------------------------------------

W_MAT = Mat4([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
A_MAT = Mat4([[1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0]])
AJ_MAT = A_MAT * J_FORM
WA_MAT = W_MAT * A_MAT


def shear(gamma: str, z) -> Mat4:
    """The unipotent element id + z*X_gamma (a root-direction shear)."""
    if gamma not in ROOT_VECTORS:
        raise Sp4Error(f"unknown root label {gamma!r}")
    g = Mat4.identity() + ROOT_VECTORS[gamma] * Q(z)
    return g


def diag_conjugator(d1, d2, d3, d4) -> Mat4:
    """Diagonal group element; must satisfy d3 = 1/d1, d4 = 1/d2."""
    g = Mat4.diag(Q(d1), Q(d2), Q(d3), Q(d4))
    if not in_sp4_group(g):
        raise Sp4Error(
            "diagonal conjugator must satisfy d3 = 1/d1 and d4 = 1/d2 "
            "to lie in Sp(4)")
    return g


def block_sl2(a, b, c, d) -> Mat4:
    """The element [[1,0,0,0],[0,a,0,b],[0,0,1,0],[0,c,0,d]] for ad-bc = 1.

    It centralizes T_{1,0} and mixes X_beta with X_{alpha+beta}.
    """
    a, b, c, d = Q(a), Q(b), Q(c), Q(d)
    if a * d - b * c != 1:
        raise Sp4Error("block conjugator needs determinant 1")
    return Mat4([[1, 0, 0, 0], [0, a, 0, b], [0, 0, 1, 0], [0, c, 0, d]])


def gl2_block(a, b, c, d) -> Mat4:
    """diag(g, g^{-t}) for g = [[a,b],[c,d]] in GL(2); always symplectic.

    It centralizes T_{1,1} and acts on n_p symmetric blocks by Z -> g Z g^t.
    """
    a, b, c, d = Q(a), Q(b), Q(c), Q(d)
    det = a * d - b * c
    if det == 0:
        raise Sp4Error("gl2 block conjugator needs invertible g")
    # g^{-t} = (1/det) * [[d, -c], [-b, a]]
    return Mat4([
        [a, b, 0, 0],
        [c, d, 0, 0],
        [0, 0, d / det, -c / det],
        [0, 0, -b / det, a / det],
    ])


_ATOMS = {
    "W": lambda: W_MAT,
    "A": lambda: A_MAT,
    "J": lambda: J_FORM,
    "AJ": lambda: AJ_MAT,
    "WA": lambda: WA_MAT,
    "weyl_s_alpha": lambda: A_MAT,   # realizes (a,b) -> (a,-b) on t
    "weyl_s_beta": lambda: W_MAT,    # realizes (a,b) -> (b,a) on t
    "identity": lambda: Mat4.identity(),
}


def parse_conjugator(recipe: str, env: dict | None = None) -> Mat4:
    """Evaluate a conjugator recipe string to a symplectic matrix.

    Atoms: the named elements above, plus ``shear:<root>:<expr>``,
    ``diag:<e1>,<e2>,<e3>,<e4>``, ``block:<e1>,...,<e4>`` and
    ``glblock:<e1>,...,<e4>``.  Products are whitespace-separated and apply
    rightmost-first under conjugation (matrix product order).  Expressions
    may mention the row parameter ``a``.  An atom with the wrong number of
    values or an expression that does not evaluate raises Sp4Error naming it;
    a value past the evaluator's size bound raises `ExpressionLimit`.  Each
    atom's constructor returns an element of Sp(4) or raises: the named
    elements are fixed, a shear is id + z*X with X^2 = 0, and `diag_conjugator`,
    `block_sl2` and `gl2_block` check their values.
    """
    env = env or {}
    acc = Mat4.identity()
    for atom in recipe.split():
        if atom in _ATOMS:
            g = _ATOMS[atom]()
        elif atom.startswith("shear:"):
            root, _, zexpr = atom[6:].partition(":")
            g = shear(root, *_atom_values(atom, zexpr, 1, env))
        elif atom.startswith("diag:"):
            g = diag_conjugator(*_atom_values(atom, atom[5:], 4, env))
        elif atom.startswith("block:"):
            g = block_sl2(*_atom_values(atom, atom[6:], 4, env))
        elif atom.startswith("glblock:"):
            g = gl2_block(*_atom_values(atom, atom[8:], 4, env))
        else:
            raise Sp4Error(f"unknown conjugator atom {atom!r}")
        acc = acc * g
    return acc


def _atom_values(atom: str, text: str, count: int, env: dict) -> list:
    """The `count` comma-separated expressions of a recipe atom, evaluated; Sp4Error
    naming the atom for a wrong count or a failing expression (a size limit propagates)."""
    parts = text.split(",")
    if len(parts) != count:
        raise Sp4Error(f"conjugator atom {atom!r} needs {count} values, got {len(parts)}")
    try:
        return [eval_expr(p, env) for p in parts]
    except ExpressionLimit:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise Sp4Error(f"conjugator atom {atom!r}: {exc}") from exc


# -- standard subalgebras ----------------------------------------------------

# the unit coordinates spanning each: t's are those of a and b, n's the
# positive roots', n_p's the roots not vanishing on T(1, 1), and p adds
# Y_beta's, 4
_STANDARD = {"t": _ELEMENT_COORDS[:2], "n": sorted(_ELEMENT_COORDS[2:]),
             "n_p": sorted(c for c, p, q in _ROOTS.values() if p + q),
             "b": sorted(_ELEMENT_COORDS), "p": sorted(_ELEMENT_COORDS + (4,))}


def standard_subalgebra(name: str) -> Subspace:
    """One of t, b, n, p, n_p (dims 2, 6, 4, 7, 3)."""
    if name not in _STANDARD:
        raise Sp4Error(f"unknown standard subalgebra {name!r}")
    return Subspace._of((k, [int(i == k) for i in range(10)]) for k in _STANDARD[name])


# -- Weyl action on diagonal parameters --------------------------------------

def _weyl_pairs(a, b) -> set[tuple]:
    """The images (+-a, +-b), (+-b, +-a) of (a, b) under the group generated
    by s_alpha: (a,b)->(a,-b) and s_beta: (a,b)->(b,a); at most 8."""
    a, b = Q(a), Q(b)
    return {(x, y) for p, q in ((a, b), (b, a)) for x in (p, -p) for y in (q, -q)}


def weyl_orbit(t_elem: DiagonalElement) -> set[DiagonalElement]:
    """Orbit of T_{a,b} under the Weyl group; at most 8 elements."""
    return {DiagonalElement(a, b) for a, b in _weyl_pairs(t_elem.a, t_elem.b)}

