"""Structural predicates and series for subalgebras.

The bracket table (exact structure constants) is the one bracket fact of a
subalgebra: a `Subalgebra` computes it once, in its canonical echelon basis,
from the d(d-1)/2 matrix brackets solved in one echelonization, and closure
is the table's existence.  The derived and lower central series,
solvability, nilpotency, abelian-ness and adjoint matrices all run on the
table in coordinates (d <= 7); adjoint matrices on RREF rows are read at the
pivots, and `derived_series` returns matrix `Subspace` values at the
boundary.  A bracket table moves to a new basis only by `change_basis`.
Ambient sp(4) membership is validated when a `Subalgebra` is constructed
from matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import Sp4Error
from .linalg import Mat4, Subspace, echelon_coords, echelon_span, rref, solve_in_span
from .rational import Q, ZERO, ONE, format_rational, parse_rational
from .sp4 import bracket, in_sp4

__all__ = [
    "Subalgebra", "is_closed", "generated_subalgebra", "bracket_space",
    "ad_matrix", "unit_rows", "coord_series", "derived_series",
    "is_solvable", "is_nilpotent", "is_abelian",
    "StructureConstants", "structure_constants", "structure_constants_for_basis",
]


@dataclass(frozen=True)
class Subalgebra:
    """A bracket-closed subspace of sp(4) with a canonical echelon basis."""

    space: Subspace

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
        return structure_constants_for_basis(self.basis)

    @cached_property
    def derived(self) -> list[list[tuple]]:
        """The derived series in coordinate rows, computed on first use."""
        return coord_series(self)

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


def _pair_brackets(mats: Sequence[Mat4]) -> tuple[list[Mat4], list]:
    """The brackets [m_i, m_j], i < j, of independent matrices, and their
    coordinates in the matrices (None for a bracket outside their span), all
    solved in one echelonization of the int numerators, then rescaled."""
    brackets = [bracket(x, y) for x, y in combinations(mats, 2)]
    coords = solve_in_span([m.num for m in mats], [b.num for b in brackets])
    return brackets, [None if c is None else tuple([x * m.den / b.den for x, m in zip(c, mats)])
                      for c, b in zip(coords, brackets)]


def is_closed(space: Subspace) -> bool:
    """True iff all pairwise brackets of basis elements stay in the span."""
    return None not in _pair_brackets(space.basis)[1]


def generated_subalgebra(seed: Iterable[Mat4]) -> Subalgebra:
    """Smallest bracket-closed subspace containing the seeds."""
    space = echelon_span(seed)
    while True:
        brackets, coords = _pair_brackets(space.basis)
        new = [b for b, c in zip(brackets, coords) if c is None]
        if not new:
            return Subalgebra(space)
        space = echelon_span(list(space.basis) + new)


def bracket_space(sc: "StructureConstants", a: Sequence[tuple],
                  b: Sequence[tuple]) -> list[tuple]:
    """RREF coordinate rows of the span of all [u, v], u in a, v in b, for
    coordinate rows a and b of the algebra with bracket table sc."""
    pairs = combinations(a, 2) if a == b else product(a, b)
    return rref([sc.bracket_coords(u, v) for u, v in pairs])


def ad_matrix(sc: "StructureConstants", y: Sequence, rows: list[tuple]) -> list[list]:
    """Matrix (rows) of ad(y) on an ad(y)-stable subspace given by RREF
    coordinate rows, in the basis of those rows: each column is read at the
    rows' pivots, so nothing is solved."""
    cols = [echelon_coords(rows, sc.bracket_coords(y, v)) for v in rows]
    if None in cols:
        raise Sp4Error("subspace is not ad-stable")
    return [list(r) for r in zip(*cols)]


def unit_rows(d: int) -> list[tuple]:
    """The coordinate rows of the basis itself (the d x d identity)."""
    return [tuple(ONE if i == j else ZERO for j in range(d)) for i in range(d)]


def coord_series(s: Subalgebra, lower: bool = False) -> list[list[tuple]]:
    """RREF coordinate rows of g, [g,g], ... until the dimension stops
    falling: the derived series, or with `lower` the lower central series
    (g, [g,g], [g,[g,g]], ...), all from the bracket table."""
    sc = s.constants
    g = unit_rows(s.dim)
    chain = [g]
    while chain[-1]:
        h = chain[-1]
        nxt = bracket_space(sc, g if lower else h, h)
        if len(nxt) == len(h):
            break
        chain.append(nxt)
    return chain


def derived_series(s: Subalgebra) -> list[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return [s.space] + [echelon_span([s.space.combine(r) for r in rows])
                        for rows in s.derived[1:]]


def is_solvable(s: Subalgebra) -> bool:
    return not s.derived[-1]


def is_nilpotent(s: Subalgebra) -> bool:
    return not coord_series(s, lower=True)[-1]


def is_abelian(s: Subalgebra) -> bool:
    return s.constants.is_abelian()


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

class StructureConstants:
    """Exact structure constants c[i][j][k]: [x_i, x_j] = sum_k c[i][j][k] x_k."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table):
        self.dim = dim
        self.table = tuple(tuple(tuple(row) for row in plane) for plane in table)

    def bracket_coords(self, u: Sequence, v: Sequence) -> tuple:
        d = self.dim
        out = [ZERO] * d
        for i in range(d):
            if u[i] == 0:
                continue
            for j in range(d):
                if v[j] == 0:
                    continue
                f = u[i] * v[j]
                row = self.table[i][j]
                for k in range(d):
                    if row[k] != 0:
                        out[k] += f * row[k]
        return tuple(out)

    def is_abelian(self) -> bool:
        return all(c == 0 for plane in self.table for row in plane for c in row)

    def change_basis(self, p_cols: Sequence[Sequence]) -> "StructureConstants":
        """Constants in the new basis y_j = sum_i p_cols[j][i] * x_i.

        p_cols lists the new basis vectors in old coordinates; dependent
        ones raise DependentInputs.
        """
        d = self.dim
        new_in_old = [tuple(Q(c) for c in col) for col in p_cols]
        if len(new_in_old) != d:
            raise Sp4Error("basis change matrix is not square")
        brackets = [self.bracket_coords(x, y) for x, y in combinations(new_in_old, 2)]
        return StructureConstants.from_pairs(d, solve_in_span(new_in_old, brackets))

    def __eq__(self, other) -> bool:
        return (isinstance(other, StructureConstants)
                and self.dim == other.dim and self.table == other.table)

    def to_json(self) -> dict:
        triples = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    c = self.table[i][j][k]
                    if c != 0:
                        triples.append([i, j, k, format_rational(c)])
        return {"dim": self.dim, "c": triples}

    @classmethod
    def from_json(cls, data: dict) -> "StructureConstants":
        d = int(data["dim"])
        table = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
        for i, j, k, c in data["c"]:
            table[i][j][k] = parse_rational(str(c))
        return cls(d, table)

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict) -> "StructureConstants":
        """Build from a sparse {(i, j): {k: c}} description of [x_i, x_j],
        i < j; antisymmetry is filled in."""
        table = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), row in brackets.items():
            for k, c in row.items():
                table[i][j][k] = Q(c)
                table[j][i][k] = -Q(c)
        return cls(dim, table)

    @classmethod
    def from_pairs(cls, dim: int, coords: Sequence) -> "StructureConstants":
        """Build from the coordinates of [x_i, x_j], i < j, listed in
        `itertools.combinations` order; antisymmetry and the zero diagonal
        are filled in.  A None entry (a bracket outside the span) raises."""
        if None in coords:
            raise Sp4Error("basis is not closed under the bracket")
        table = [[(ZERO,) * dim] * dim for _ in range(dim)]
        for (i, j), c in zip(combinations(range(dim), 2), coords):
            table[i][j] = c
            table[j][i] = tuple(-x for x in c)
        return cls(dim, table)


def structure_constants(s: Subalgebra) -> StructureConstants:
    """Constants of the bracket in the canonical echelon basis."""
    return s.constants


def structure_constants_for_basis(mats: Sequence[Mat4]) -> StructureConstants:
    """Constants of the matrix bracket in the given (independent) basis."""
    return StructureConstants.from_pairs(len(mats), _pair_brackets(mats)[1])
