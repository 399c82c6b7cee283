"""Structural predicates and series for subalgebras.

Closure under the bracket, generated subalgebras, derived and lower central
series, solvability/nilpotency/abelian-ness, and exact structure constants in
the canonical echelon basis.  Everything works on `Subspace` values; ambient
sp(4) membership is validated when a `Subalgebra` is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import Sp4Error
from .linalg import Mat4, Subspace, echelon_span, rref, solve_in_span
from .rational import Q, ZERO, format_rational, parse_rational
from .sp4 import bracket, in_sp4

__all__ = [
    "Subalgebra", "is_closed", "generated_subalgebra", "bracket_space",
    "derived_series", "lower_central_series",
    "is_solvable", "is_nilpotent", "is_abelian",
    "StructureConstants", "structure_constants", "structure_constants_for_basis",
]


@dataclass(frozen=True)
class Subalgebra:
    """A bracket-closed subspace of sp(4) with a canonical echelon basis."""

    space: Subspace
    ambient: str = "sp4"

    @classmethod
    def from_matrices(cls, mats: Iterable[Mat4], ambient: str = "sp4",
                      check: bool = True) -> "Subalgebra":
        space = echelon_span(mats)
        if check:
            for m in space.basis:
                if not in_sp4(m):
                    raise Sp4Error("subalgebra basis element is not in sp(4)")
            if not is_closed(space):
                raise Sp4Error("subspace is not closed under the bracket")
        return cls(space, ambient)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> tuple[Mat4, ...]:
        return self.space.basis

    def to_json(self) -> dict:
        return {"ambient": self.ambient, "basis": [m.to_json() for m in self.basis]}

    @classmethod
    def from_json(cls, data: dict) -> "Subalgebra":
        mats = [Mat4.from_json(m) for m in data["basis"]]
        return cls.from_matrices(mats, ambient=data.get("ambient", "sp4"))


def _brackets_outside(space: Subspace):
    """The pairwise brackets of basis elements that leave the span (lazily)."""
    basis = space.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = bracket(basis[i], basis[j])
            if not space.contains(br):
                yield br


def is_closed(space: Subspace) -> bool:
    """True iff all pairwise brackets of basis elements stay in the span."""
    return next(_brackets_outside(space), None) is None


def generated_subalgebra(seed: Iterable[Mat4]) -> Subalgebra:
    """Smallest bracket-closed subspace containing the seeds."""
    space = echelon_span(seed)
    while True:
        new = list(_brackets_outside(space))
        if not new:
            return Subalgebra(space)
        space = echelon_span(list(space.basis) + new)


def bracket_space(a: Subspace, b: Subspace) -> Subspace:
    """Span of all brackets [x, y], x in a, y in b."""
    return echelon_span([bracket(x, y) for x in a.basis for y in b.basis])


def _series(s: Subalgebra, step) -> list[Subspace]:
    """g, step(g), step(step(g)), ... until the dimension stops falling."""
    chain = [s.space]
    while True:
        nxt = step(chain[-1])
        if nxt.dim == chain[-1].dim:
            break
        chain.append(nxt)
        if nxt.dim == 0:
            break
    return chain


def derived_series(s: Subalgebra) -> list[Subspace]:
    """g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return _series(s, lambda h: bracket_space(h, h))


def lower_central_series(s: Subalgebra) -> list[Subspace]:
    """g, [g,g], [g,[g,g]], ... until stabilization."""
    return _series(s, lambda h: bracket_space(s.space, h))


def is_solvable(s: Subalgebra) -> bool:
    return derived_series(s)[-1].dim == 0


def is_nilpotent(s: Subalgebra) -> bool:
    return lower_central_series(s)[-1].dim == 0


def is_abelian(s: Subalgebra) -> bool:
    return bracket_space(s.space, s.space).dim == 0


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

class StructureConstants:
    """Exact structure constants c[i][j][k]: [x_i, x_j] = sum_k c[i][j][k] x_k."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table):
        self.dim = dim
        self.table = tuple(tuple(tuple(Q(c) for c in row) for row in plane)
                           for plane in table)

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

    def is_antisymmetric(self) -> bool:
        d = self.dim
        return all(self.table[i][j][k] == -self.table[j][i][k]
                   for i in range(d) for j in range(d) for k in range(d))

    def satisfies_jacobi(self) -> bool:
        d = self.dim
        basis = [tuple(Q(1) if i == j else ZERO for j in range(d)) for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    acc = [ZERO] * d
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                        term = self.bracket_coords(basis[x], self.bracket_coords(basis[y], basis[z]))
                        acc = [p + q for p, q in zip(acc, term)]
                    if any(c != 0 for c in acc):
                        return False
        return True

    def is_abelian(self) -> bool:
        return all(c == 0 for plane in self.table for row in plane for c in row)

    def derived_coords(self) -> list[tuple]:
        """RREF basis (in coordinates) of the derived subalgebra."""
        d = self.dim
        rows = []
        for i in range(d):
            for j in range(i + 1, d):
                rows.append(self.table[i][j])
        return rref(rows)

    def change_basis(self, p_cols: Sequence[Sequence]) -> "StructureConstants":
        """Constants in the new basis y_j = sum_i p_cols[j][i] * x_i.

        p_cols lists the new basis vectors in old coordinates; it must be
        invertible.
        """
        d = self.dim
        new_in_old = [tuple(Q(c) for c in col) for col in p_cols]
        old_basis_rows = rref(new_in_old)
        if len(old_basis_rows) != d:
            raise Sp4Error("basis change matrix is singular")
        table = []
        for i in range(d):
            plane = []
            for j in range(d):
                br_old = self.bracket_coords(new_in_old[i], new_in_old[j])
                coords = _coords_in(new_in_old, br_old)
                plane.append(coords)
            table.append(plane)
        return StructureConstants(d, table)

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


def _coords_in(basis_vectors: list[tuple], v: Sequence) -> tuple:
    """Solve v = sum c_i basis_vectors[i] (basis assumed independent)."""
    coords = solve_in_span(basis_vectors, v)
    if coords is None:
        raise Sp4Error("vector outside span in coordinate solve")
    return coords


def structure_constants(s: Subalgebra) -> StructureConstants:
    """Constants of the bracket in the canonical echelon basis."""
    return structure_constants_for_basis(list(s.basis))


def structure_constants_for_basis(mats: list[Mat4]) -> StructureConstants:
    """Constants of the matrix bracket in the given (independent) basis."""
    d = len(mats)
    flat = [m.flatten() for m in mats]
    if len(rref(flat)) != d:
        raise Sp4Error("structure constants need an independent basis")
    table = []
    for i in range(d):
        plane = []
        for j in range(d):
            br = bracket(mats[i], mats[j]).flatten()
            plane.append(_coords_in([tuple(f) for f in flat], br))
        table.append(plane)
    return StructureConstants(d, table)
