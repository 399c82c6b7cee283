"""Structural predicates and series for subalgebras.

A `Subalgebra` is a span of sp(4) (`linalg.Subspace`, in the ten root
coordinates `linalg._COORDS`) with its bracket table (exact structure
constants), the one bracket fact of a subalgebra, held like `Mat4` as int
numerators over one positive denominator in lowest terms.  sp(4) itself is
one more such table, `_SP4`, in its ten coordinates, read once at import
off `sp4.bracket`.  One closure pass (`_close_pairs`) brackets each pair of
echelon rows once through it (`_bracket_num`, like every table) and reads
each at the row pivots (`linalg._pivot_coords`): the table, or the
brackets outside the span as coordinate rows.  So closure is the table's
existence (`Subalgebra.constants`, `is_closed`), and `generated_subalgebra`
keeps the table of its last round.  The series, predicates and adjoint matrices
run on the table (d <= 7), each subspace held as `linalg.rref` pairs:
brackets are int contractions (`_bracket_num`), spans are eliminated
fraction-free (`bracket_space`, `_series`), [g, g] straight off the
table, whose row num[i][j] is den*[x_i, x_j], once per table and kept on
it (`_derived_pairs`, which the series and `identify` read), and an
adjoint matrix is one int matrix over one den, read at the pivots
(`_ad_num`).  A table from a sparse rational description
(`StructureConstants.from_brackets`, the class presentations of
`identify`) places each entry straight as an int numerator over the lcm of
the denominators, and its Jacobi identity is checked on every build, over
the nonzero entries of the rows.  Rationals appear only at the public
boundary: `StructureConstants.table` and `derived_series`.  A table moves
to a new basis only by `_moved`, for `Subalgebra.constants_in`, which
`structure_constants_for_basis` and the tests call.  Whether a map carries
one table onto another is checked without moving either
(`identify.verify_isomorphism`); the certifier carries a row's stated map
through the frame of its stated basis (`verify`).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import DependentInputs, Sp4Error
from .linalg import Mat4, Subspace, _from_coords, _pivot_coords, _read_coords, echelon_span, rref
from .rational import Q, format_rational
from .sp4 import bracket

__all__ = [
    "Subalgebra", "is_closed", "generated_subalgebra", "bracket_space", "derived_series",
    "is_solvable", "is_nilpotent", "is_abelian",
    "StructureConstants", "structure_constants", "structure_constants_for_basis",
]


class Subalgebra:
    """A bracket-closed subspace of sp(4) with a canonical echelon basis, equal by its space."""

    def __init__(self, space: Subspace):
        self.space = space

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space

    def __hash__(self) -> int:
        return hash(self.space)

    @classmethod
    def from_matrices(cls, mats: Iterable[Mat4]) -> "Subalgebra":
        sub = cls(echelon_span(mats))  # NotInSp4 for a matrix outside sp(4)
        sub.constants  # Sp4Error for a basis that is not closed
        return sub

    @cached_property
    def constants(self) -> "StructureConstants":
        """The bracket table in the echelon basis, computed on first use."""
        found = _close_pairs(self.space)
        if not isinstance(found, StructureConstants):
            raise Sp4Error("basis is not closed under the bracket")
        return found

    def constants_in(self, mats: Sequence[Mat4]) -> "StructureConstants":
        """The bracket table in the basis `mats` of this subalgebra: the
        echelon table moved to their int coordinates (`Subspace.coords_num`
        over one common den) by `StructureConstants._moved`.  An element
        outside the subalgebra raises Sp4Error naming its index."""
        cols = [self.space.coords_num(m) for m in mats]
        if None in cols:
            raise Sp4Error(f"basis element {cols.index(None)} is not in the subalgebra")
        e = math.lcm(*[m.den for m in mats])
        return self.constants._moved(
            [[x * (e // m.den) for x in c] for c, m in zip(cols, mats)], e)

    @cached_property
    def derived(self) -> list[list[tuple]]:
        """The derived series as `_series` pairs, computed on first use."""
        return _series(self)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> tuple[Mat4, ...]:
        return self.space.basis

    def to_json(self) -> dict:
        return {"ambient": "sp4", "basis": [m.to_json() for m in self.basis]}

    @classmethod
    def from_json(cls, data: dict) -> "Subalgebra":
        mats = [Mat4.from_json(m) for m in data["basis"]]
        if data.get("ambient", "sp4") != "sp4":
            raise Sp4Error(f"ambient {data['ambient']!r} is not 'sp4'")
        return cls.from_matrices(mats)


def _close_pairs(space: Subspace) -> "StructureConstants | list[list[int]]":
    """Bracket each pair of echelon rows once through sp(4)'s table
    (`_SP4._bracket_num`), the rows put over the lcm of their pivots: the
    bracket table, read at the row pivots, or the brackets that fall outside
    the span, as int coordinate rows."""
    pairs = space.pairs
    l = math.lcm(*[r[c] for c, r in pairs])
    rows = [[x * (l // r[c]) for x in r] for c, r in pairs]
    coords, outside = [], []
    for u, v in combinations(rows, 2):
        w = _SP4._bracket_num(u, v)
        c = _pivot_coords(pairs, w)
        if c is None:
            outside.append(w)
        else:
            coords.append(c)
    if outside:
        return outside
    return StructureConstants._make(space.dim, coords, l * l)


def is_closed(space: Subspace) -> bool:
    """True iff all pairwise brackets of basis elements stay in the span."""
    return isinstance(_close_pairs(space), StructureConstants)


def generated_subalgebra(seed: Iterable[Mat4]) -> Subalgebra:
    """Smallest bracket-closed subspace containing the seeds, carrying the
    bracket table of its last closure round."""
    space = echelon_span(seed)
    while not isinstance(found := _close_pairs(space), StructureConstants):
        space = Subspace._of(rref([r for _, r in space.pairs] + found))
    sub = Subalgebra(space)
    sub.constants = found  # fills the cached_property
    return sub


def bracket_space(sc: "StructureConstants", a: list, b: list) -> list:
    """`rref` of the span of all den*[u, v], u in a, v in b, for int
    coordinate rows a and b."""
    pairs = combinations(a, 2) if a == b else product(a, b)
    return rref([sc._bracket_num(u, v) for u, v in pairs])


def _derived_pairs(sc: "StructureConstants") -> list:
    """`rref` of [g, g]: den*[x_i, x_j] for i < j is the table row
    num[i][j], so the rows `bracket_space(sc, units, units)` would bracket
    are read off the table.  Eliminated once per table and kept on it
    (`_derived`), for `_series` and `identify` alike; no caller mutates it."""
    if sc._derived is None:
        sc._derived = rref([sc.num[i][j] for i, j in combinations(range(sc.dim), 2)])
    return sc._derived


def _ad_num(sc: "StructureConstants", y: Sequence[int],
            pairs: Sequence[tuple[int, Sequence[int]]]) -> tuple[list[list[int]], int]:
    """ad(y), for an int coordinate row y, on an ad(y)-stable span given by
    `rref` pairs (c, r), in the basis of their RREF rows r/r[c]: an int
    matrix (rows) over one den.  Column k is the int bracket den*[y, r_k]
    read at the pivots (`_pivot_coords`), so nothing is solved, over
    den*r_k[c_k]; the columns are put over the lcm of the pivots."""
    cols = [_pivot_coords(pairs, sc._bracket_num(y, r)) for _, r in pairs]
    if None in cols:
        raise Sp4Error("subspace is not ad-stable")
    pivots = [r[c] for c, r in pairs]
    l = math.lcm(*pivots)
    return [[x * (l // p) for x, p in zip(r, pivots)] for r in zip(*cols)], l * sc.den


def _units(d: int) -> list[list[int]]:
    """The int coordinate rows of the basis itself (the d x d identity)."""
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _series(s: Subalgebra, lower: bool = False) -> list[list[tuple[int, list[int]]]]:
    """The `rref` (pivot, int row) pairs of g, [g,g], ... until the
    dimension stops falling: the derived series, or with `lower` the lower
    central series (g, [g,g], [g,[g,g]], ...), all from the bracket table.
    Both series begin g, [g,g], so the lower one starts from the first two
    terms of the cached `s.derived`, and [g,g] is read off the table
    (`_derived_pairs`)."""
    sc = s.constants
    g = _units(s.dim)
    chain = s.derived[:2] if lower else [list(enumerate(g))]
    while chain[-1]:
        h = [r for _, r in chain[-1]]
        nxt = _derived_pairs(sc) if len(chain) == 1 else bracket_space(sc, g if lower else h, h)
        if len(nxt) == len(h):
            break
        chain.append(nxt)
    return chain


def derived_series(s: Subalgebra) -> list[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return [s.space] + [s.space.span_coords(level) for level in s.derived[1:]]


def is_solvable(s: Subalgebra) -> bool:
    return not s.derived[-1]


def is_nilpotent(s: Subalgebra) -> bool:
    return not _series(s, lower=True)[-1]


def is_abelian(s: Subalgebra) -> bool:
    return s.constants.is_abelian()


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

class StructureConstants:
    """Exact structure constants c[i][j][k]: [x_i, x_j] = sum_k c[i][j][k] x_k,
    held as int numerators `num[i][j][k]` over one positive denominator
    `den` in lowest terms: gcd(den, *num) == 1, and an abelian table has
    den == 1.  The form is canonical, so == is exact value equality.
    Rationals appear only at the boundary (`table`, the builder
    `from_brackets`, and the JSON wire format `to_json` writes)."""

    __slots__ = ("dim", "num", "den", "_pairs", "_derived")

    @classmethod
    def _make(cls, dim: int, pairs: Sequence[Sequence[int]], den: int) -> "StructureConstants":
        """The table whose [x_i, x_j], i < j in `itertools.combinations`
        order, is the int row pairs[n] over den > 0, reduced by one gcd
        pass; antisymmetry and the zero diagonal are filled in."""
        g = math.gcd(den, *[x for r in pairs for x in r])
        if g > 1:
            pairs, den = [[x // g for x in r] for r in pairs], den // g
        num = [[(0,) * dim] * dim for _ in range(dim)]
        sparse = []
        for (i, j), r in zip(combinations(range(dim), 2), pairs):
            if any(r):  # a zero row stays the shared zero tuple
                num[i][j], num[j][i] = tuple(r), tuple([-x for x in r])
                sparse.append((i, j, tuple([(k, c) for k, c in enumerate(r) if c])))
        sc = cls.__new__(cls)
        sc.dim, sc.den = dim, den
        sc.num = tuple(tuple(plane) for plane in num)
        sc._pairs = tuple(sparse)
        sc._derived = None
        return sc

    @property
    def table(self) -> tuple:
        """The constants as rationals: c[i][j][k] = num[i][j][k] / den."""
        return tuple(tuple(tuple([Q(x, self.den) for x in row]) for row in plane)
                     for plane in self.num)

    def _bracket_num(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        """den * [u, v] for int coordinate rows u and v."""
        out = [0] * self.dim
        for i, j, row in self._pairs:
            f = u[i] * v[j] - u[j] * v[i]
            if f:
                for k, c in row:
                    out[k] += f * c
        return out

    def is_abelian(self) -> bool:
        return not self._pairs

    def _moved(self, ys: Sequence[Sequence[int]], e: int) -> "StructureConstants":
        """The constants in the basis y_j = Y_j / e, for int coordinate
        columns Y_j: the brackets den*[Y_i, Y_j] are solved against the Y_j
        by one fraction-free elimination and divided once.  More than dim
        columns, or dependent ones, raise DependentInputs."""
        d = self.dim
        if len(ys) > d:
            raise DependentInputs("coordinates need independent vectors")
        if len(ys) < d:
            raise Sp4Error("basis change matrix is not square")
        ws = [self._bracket_num(x, y) for x, y in combinations(ys, 2)]
        # row k of the reduced [Y | W] is r_k[k] * (unit k | coordinates on
        # Y_k), and [y_i, y_j] = W / (e^2 den) with Y_k = e*y_k
        echelon = rref(zip(*ys, *ws))
        if [c for c, _ in echelon] != list(range(d)):
            raise DependentInputs("coordinates need independent vectors")
        piv = math.lcm(*[r[k] for k, r in echelon])
        return StructureConstants._make(
            d, [[r[d + p] * (piv // r[k]) for k, r in echelon] for p in range(len(ws))],
            piv * e * self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, StructureConstants) and self.dim == other.dim
                and self.den == other.den and self.num == other.num)

    def to_json(self) -> dict:
        triples = []
        for i, plane in enumerate(self.num):
            for j, row in enumerate(plane):
                for k, x in enumerate(row):
                    if x != 0:
                        triples.append([i, j, k, format_rational(Q(x, self.den))])
        return {"dim": self.dim, "c": triples}

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict) -> "StructureConstants":
        """Build from a sparse {(i, j): {k: c}} description of [x_i, x_j],
        i != j; antisymmetry is filled in.  Each entry is placed straight as
        its int numerator over the lcm of the entries' denominators.  A table
        that breaks the Jacobi identity is no Lie algebra and raises Sp4Error
        naming a triple i < j < k, checked on the int numerators: den^2 times
        the cyclic sum [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i],
        x_j], each term sum_m num[a][b][m] * num[m][c] over the nonzero
        entries of the rows."""
        index = {p: n for n, p in enumerate(combinations(range(dim), 2))}
        placed = []
        for (i, j), row in brackets.items():
            n = index[min(i, j), max(i, j)]
            for k, c in row.items():
                if type(c) is not Q and type(c) is not int:
                    c = Q(c)
                placed.append((n, k, c if i < j else -c))
        den = math.lcm(*[c.denominator for _, _, c in placed])
        rows = [[0] * dim for _ in index]
        for n, k, c in placed:
            rows[n][k] = c.numerator * (den // c.denominator)
        sc = cls._make(dim, rows, den)
        nonzero = [[()] * dim for _ in range(dim)]
        for i, j, row in sc._pairs:
            nonzero[i][j], nonzero[j][i] = row, tuple([(k, -x) for k, x in row])
        for i, j, k in combinations(range(dim), 3):
            acc = [0] * dim
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in nonzero[a][b]:
                    for n, y in nonzero[m][c]:
                        acc[n] += x * y
            if any(acc):
                raise Sp4Error(f"the table breaks the Jacobi identity at ({i}, {j}, {k})")
        return sc


def structure_constants(s: Subalgebra) -> StructureConstants:
    """Constants of the bracket in the canonical echelon basis."""
    return s.constants


def structure_constants_for_basis(mats: Sequence[Mat4]) -> StructureConstants:
    """Constants of the matrix bracket in the given (independent) basis."""
    return Subalgebra(echelon_span(mats)).constants_in(mats)


# sp(4) itself in its ten root coordinates: [e_i, e_j] of the integral unit
# elements, read off `sp4.bracket` at the coordinates, over den 1
_SP4 = StructureConstants._make(
    10, [_read_coords(bracket(x, y).num)
         for x, y in combinations([_from_coords(u, 1) for u in _units(10)], 2)], 1)
