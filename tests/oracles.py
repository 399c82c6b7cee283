"""Independent oracles that only the tests use: each recomputes a library
result by a different method (cofactor expansion, an integer grid sweep,
the defining identities of a Lie bracket), sharing no kernel with the code
it checks."""

from sp4solvable.linalg import Mat4, Poly, det_mpoly, rank
from sp4solvable.rational import Q, ZERO
from sp4solvable.structure import StructureConstants, unit_rows


def char_poly_cofactor(m: Mat4) -> Poly:
    """det(lambda*I - m), expanded by cofactors over Q[lambda]."""
    entries = [[Poly([-m.entry(i, j), 1]) if i == j else Poly([-m.entry(i, j)])
                for j in range(4)] for i in range(4)]
    return det_mpoly(entries)


def grid_pencil_ranks(n1: Mat4, n2: Mat4, lo: int = -20, hi: int = 20) -> dict:
    """Ranks of t*n1 + n2 over an integer grid plus the line of n1.  The
    grid can miss drops but never sees extra ones."""
    out = {}
    for t in range(lo, hi + 1):
        out[Q(t)] = rank(n1 * Q(t) + n2)
    out["inf"] = rank(n1)
    return out


def is_antisymmetric(sc: StructureConstants) -> bool:
    d = sc.dim
    return all(sc.table[i][j][k] == -sc.table[j][i][k]
               for i in range(d) for j in range(d) for k in range(d))


def satisfies_jacobi(sc: StructureConstants) -> bool:
    d = sc.dim
    basis = unit_rows(d)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = [ZERO] * d
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    term = sc.bracket_coords(basis[x], sc.bracket_coords(basis[y], basis[z]))
                    acc = [p + q for p, q in zip(acc, term)]
                if any(c != 0 for c in acc):
                    return False
    return True
