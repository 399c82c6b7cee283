"""Structural predicates and series for subalgebras.

The bracket table (exact structure constants) is the one bracket fact of a
subalgebra.  Like `Mat4`, it is held as int numerators over one positive
denominator in lowest terms, so == is exact value equality.  One closure pass
(`_close_pairs`) brackets the d(d-1)/2 pairs of the canonical echelon basis
once and reads each bracket at the basis pivots (`Subspace.coords_num`): it
gives the table, or the brackets that leave the span.  `Subalgebra.constants`,
`is_closed` and `generated_subalgebra` all use it, so closure is the table's
existence, and a generated subalgebra keeps the table of its last round.  The
series, predicates and adjoint matrices run on the table in coordinates
(d <= 7), each subspace held as the (pivot, int row) pairs of
`linalg.rref`: brackets are int contractions (`_bracket_num`), spans are
eliminated fraction-free (`bracket_space`, `_series`), and an adjoint matrix
is one int matrix over one den, read at the pivots (`_ad_num`).  Rationals
appear only at the public boundary: `StructureConstants.table` and
`derived_series`.  A table moves to a new basis only by `_moved`, which
brackets int coordinate columns and divides once, for
`Subalgebra.constants_in` (on `Subspace.coords_num`).  Whether a map
carries one table onto another is checked without moving either
(`identify.verify_isomorphism`).  Ambient sp(4) membership is validated
when a `Subalgebra` is constructed from matrices.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import DependentInputs, Sp4Error
from .linalg import Mat4, Subspace, _over_common_den, _pivot_coords, echelon_span, rref
from .rational import Q, format_rational
from .sp4 import bracket, in_sp4

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
        sub = cls(echelon_span(mats))
        if not all(in_sp4(m) for m in sub.basis):
            raise Sp4Error("subalgebra basis element is not in sp(4)")
        sub.constants  # raises Sp4Error when a bracket leaves the span
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


def _close_pairs(space: Subspace) -> "StructureConstants | list[Mat4]":
    """Bracket each pair of the echelon basis once: the bracket table, read
    at the basis pivots, or the brackets that fall outside the span."""
    brackets = [bracket(x, y) for x, y in combinations(space.basis, 2)]
    coords = [space.coords_num(b) for b in brackets]
    outside = [b for b, c in zip(brackets, coords) if c is None]
    if outside:
        return outside
    den = math.lcm(*[b.den for b in brackets])
    return StructureConstants._make(
        space.dim, [[x * (den // b.den) for x in c] for c, b in zip(coords, brackets)], den)


def is_closed(space: Subspace) -> bool:
    """True iff all pairwise brackets of basis elements stay in the span."""
    return isinstance(_close_pairs(space), StructureConstants)


def generated_subalgebra(seed: Iterable[Mat4]) -> Subalgebra:
    """Smallest bracket-closed subspace containing the seeds, carrying the
    bracket table of its last closure round."""
    space = echelon_span(seed)
    while not isinstance(found := _close_pairs(space), StructureConstants):
        space = echelon_span(list(space.basis) + found)
    sub = Subalgebra(space)
    sub.constants = found  # fills the cached_property
    return sub


def bracket_space(sc: "StructureConstants", a: list, b: list) -> list:
    """`rref` of the span of all den*[u, v], u in a, v in b, for int
    coordinate rows a and b."""
    pairs = combinations(a, 2) if a == b else product(a, b)
    return rref([sc._bracket_num(u, v) for u, v in pairs])


def _ad_num(sc: "StructureConstants", y: Sequence[int],
            pairs: Sequence[tuple[int, Sequence[int]]]) -> tuple[list[list[int]], int]:
    """ad(y), for an int coordinate row y, on an ad(y)-stable span given by
    `rref` pairs (c, r), in the basis of their RREF rows r/r[c]: an int
    matrix (rows) over one den.  Column k is the int bracket den*[y, r_k]
    read at the pivots (`_pivot_coords`), so nothing is solved, over
    den*r_k[c_k]; the columns are put over the lcm of the pivots."""
    rows = [(r, r[c]) for c, r in pairs]
    cols = [_pivot_coords(rows, sc._bracket_num(y, r)) for r, _ in rows]
    if None in cols:
        raise Sp4Error("subspace is not ad-stable")
    l = math.lcm(*[p for _, p in rows])
    return [[x * (l // p) for x, (_, p) in zip(r, rows)] for r in zip(*cols)], l * sc.den


def _units(d: int) -> list[list[int]]:
    """The int coordinate rows of the basis itself (the d x d identity)."""
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _series(s: Subalgebra, lower: bool = False) -> list[list[tuple[int, list[int]]]]:
    """The `rref` (pivot, int row) pairs of g, [g,g], ... until the
    dimension stops falling: the derived series, or with `lower` the lower
    central series (g, [g,g], [g,[g,g]], ...), all from the bracket table.
    Both series begin g, [g,g], so the lower one starts from the first two
    terms of the cached `s.derived` and brackets [g,g] only once."""
    sc = s.constants
    g = _units(s.dim)
    chain = s.derived[:2] if lower else [list(enumerate(g))]
    while chain[-1]:
        h = [r for _, r in chain[-1]]
        nxt = bracket_space(sc, g if lower else h, h)
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

    __slots__ = ("dim", "num", "den", "_pairs")

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
            num[i][j] = tuple(r)
            num[j][i] = tuple([-x for x in r])
            if any(r):
                sparse.append((i, j, tuple([(k, c) for k, c in enumerate(r) if c])))
        sc = cls.__new__(cls)
        sc.dim, sc.den = dim, den
        sc.num = tuple(tuple(plane) for plane in num)
        sc._pairs = tuple(sparse)
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
        i != j; antisymmetry is filled in.  A table that breaks the Jacobi
        identity is no Lie algebra and raises Sp4Error naming a triple
        i < j < k, checked on the int numerators: den^2 times the cyclic sum
        [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j], each term
        sum_m num[a][b][m] * num[m][c]."""
        index = {p: n for n, p in enumerate(combinations(range(dim), 2))}
        rows = [[0] * dim for _ in index]
        for (i, j), row in brackets.items():
            for k, c in row.items():
                if type(c) is not Q and type(c) is not int:
                    c = Q(c)
                rows[index[min(i, j), max(i, j)]][k] = c if i < j else -c
        num, den = _over_common_den([x for r in rows for x in r])
        sc = cls._make(dim, [num[n * dim:(n + 1) * dim] for n in range(len(rows))], den)
        for i, j, k in combinations(range(dim), 3):
            acc = [0] * dim
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in enumerate(sc.num[a][b]):
                    if x:
                        for n, y in enumerate(sc.num[m][c]):
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
