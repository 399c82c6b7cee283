"""Independent oracles that only the tests use: each recomputes a library
result by a different method (cofactor expansion, an integer grid sweep,
the defining identities of a Lie bracket, the defining product J m^t J of
sp(4), `Fraction` arithmetic on the
rational bracket table or on matrix rows, `Fraction` Gauss-Jordan
elimination, a coordinate solve by one `Fraction` echelonization of the
augmented system, a recursive-descent `Fraction` evaluator of expression
texts), sharing no kernel with the code it checks; `moved_constants` is the
`Fraction` basis change built into a table.  The Kronecker
matrix of a span over Q[t] (`symbolic_combo`) is what the cofactor minor
scans of the Q[t] kernels run on (`minor_rank`, and `strata_from_minors`
for the line counts of `invariants.pencil_rank_strata`), and
`pencil_refusal` gives the refusals of `pencil_rank_strata` by rational
elimination and products of `Mat4`s.  Two oracles were the library's own
earlier paths: `jordan_newton`, the Newton iteration on the squarefree
char poly (with its Horner `poly_eval_mat`), which works for any 4x4
matrix, against the closed form of `jordan.jordan_decompose`; and
`close_pairs_matrix`, the bracket table by 4x4 matrix products, against
the ten-coordinate brackets of `structure._close_pairs`;
`dense_brackets`, a table's dense `Fraction` constants and its Jacobi
identity over every index, against `StructureConstants.from_brackets`; and
`all_pairs_separations`, the scan of every same-dimension pair, against the
bucketed scan of `verify.verify_separations`.  Six helpers are
no oracles: `coords`
and `echelon_coords` give the library's int pivot reads (`Subspace.coords_num`,
`linalg._pivot_coords`) as rationals; `fraction_rows` the (pivot, int row)
pairs of the int kernels (`linalg.rref`, `structure.bracket_space`,
`structure._series`) as RREF rows, and `rational_rref` and
`rational_bracket_space` run those two kernels on rational rows, for
comparison with the oracles; `combination` builds a linear combination of
a span's basis."""

import math
import re
from itertools import combinations

from sp4solvable import verify
from sp4solvable.errors import (DependentInputs, ExpressionLimit, IrrationalSpectrum,
                                NotSolvable, Sp4Error)
from sp4solvable.exprs import MAX_POWER_BITS
from sp4solvable.invariants import PencilStrata
from sp4solvable.jordan import JordanDecomposition
from sp4solvable.linalg import (_COORDS, Mat4, Poly, Subspace, _mul_num, _over_common_den,
                                _pivot_coords, char_poly, det_mpoly, inverse, rref)
from sp4solvable.rational import Q, ZERO, format_rational
from sp4solvable.sp4 import J_FORM, bracket
from sp4solvable.structure import StructureConstants, Subalgebra, bracket_space, is_solvable


def eval_fraction(text: str, env: dict):
    """The value of a well-formed expression text of `exprs` by recursive
    descent on `Fraction`s, each operation applied as soon as its operands
    are read, left to right, with no compiled form: an unknown name raises
    ValueError, a zero divisor `Fraction`'s ZeroDivisionError, and a power
    of more than `MAX_POWER_BITS` bits ExpressionLimit, each with the text
    of `eval_expr`'s."""
    tokens = re.findall(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S", text) + [""]
    pos = 0

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        v = term()
        while tokens[pos] in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    def term():
        v = factor()
        while tokens[pos] in ("*", "/"):
            v = v * factor() if take() == "*" else v / factor()
        return v

    def factor():
        neg = False
        while tokens[pos] == "-":
            take()
            neg = not neg
        v = atom()
        if tokens[pos] == "^":
            take()
            e = int(take())
            if e * max(v.numerator.bit_length(), v.denominator.bit_length()) > MAX_POWER_BITS:
                raise ExpressionLimit(f"power above {MAX_POWER_BITS} bits in {text!r}")
            v = v**e
        return -v if neg else v

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            take()
            return v
        if tok[0].isdigit():
            return Q(int(tok))
        if tok not in env:
            raise ValueError(f"unknown name {tok!r} in {text!r}")
        return Q(env[tok])

    return expr()


def char_poly_det(rows) -> Poly:
    """det(lambda*I - a) for the square matrix a with the given rational
    rows, expanded by cofactors over Q[lambda]."""
    n = len(rows)
    return det_mpoly([[Poly([-Q(rows[i][j]), 1]) if i == j else Poly([-Q(rows[i][j])])
                       for j in range(n)] for i in range(n)])


def char_poly_cofactor(m: Mat4) -> Poly:
    """det(lambda*I - m), expanded by cofactors over Q[lambda]."""
    return char_poly_det(m.rows)


def in_sp4_product(m: Mat4) -> bool:
    """Membership in sp(4) by its definition, J m^t J == m, as two `Mat4`
    products (`sp4.in_sp4` permutes m's entries with signs instead)."""
    return J_FORM * m.transpose() * J_FORM == m


def symbolic_combo(mats) -> list[list[Poly]]:
    """The 4x4 `Poly` matrix mats[0] + sum_{i>=1} t^(5^(i-1)) mats[i] (zero
    for no matrices), built from the rational entries.  Its minors vanish
    exactly where those of the generic combination sum_i t_i mats[i] do
    (Kronecker substitution; see `generic_rank`), so its rank over Q(t) is
    the generic rank of the span.  For two matrices it is the pencil
    mats[0] + t*mats[1]."""
    exps = [0] + [5**i for i in range(len(mats) - 1)]
    entries = [[ZERO] * (exps[-1] + 1) for _ in range(16)]
    for e, m in zip(exps, mats):
        for ij in range(16):
            entries[ij][e] = m.entry(*divmod(ij, 4))
    return [[Poly(entries[4 * i + j]) for j in range(4)] for i in range(4)]


def grid_pencil_ranks(n1: Mat4, n2: Mat4, lo: int = -20, hi: int = 20) -> dict:
    """Ranks of t*n1 + n2 over an integer grid plus the line of n1, each by
    `gauss_jordan`.  The grid can miss drops but never sees extra ones."""
    def pencil(t):
        return [[t * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(n1.rows, n2.rows)]
    out = {Q(t): len(gauss_jordan(pencil(t))) for t in range(lo, hi + 1)}
    out["inf"] = len(gauss_jordan(n1.rows))
    return out


def minors(entries, k) -> list[Poly]:
    """All k x k minors of a 4x4 `Poly` matrix, by cofactor expansion."""
    return [det_mpoly([[entries[i][j] for j in cols] for i in rows])
            for rows in combinations(range(4), k) for cols in combinations(range(4), k)]


def minor_gcd(entries, k) -> Poly:
    """The monic gcd of the k-minors (zero when they all vanish)."""
    acc = Poly()
    for m in minors(entries, k):
        acc = acc.gcd(m)
    return acc


def minor_rank(entries) -> int:
    """The largest k with a k-minor not identically zero."""
    return max((k for k in range(1, 5) if any(m.num for m in minors(entries, k))), default=0)


def strata_from_minors(n1: Mat4, n2: Mat4) -> PencilStrata:
    """The line counts of t*n1 + n2 from its minors alone: the lines of rank
    <= k are the distinct roots of the gcd of the (k+1)-minors, counted by
    the degree of its squarefree part, and t = infinity when n1 has no
    nonzero (k+1)-minor; the lines of rank exactly k are the difference of
    two such counts."""
    entries = symbolic_combo([n2, n1])
    generic = minor_rank(entries)
    inf = minor_rank(symbolic_combo([n1]))
    counts = [0] + [minor_gcd(entries, k + 1).squarefree_part().degree + (inf <= k)
                    for k in range(generic)]
    return PencilStrata(generic, tuple((k, counts[k + 1] - counts[k]) for k in range(generic)
                                       if counts[k + 1] > counts[k]))


def pencil_refusal(n1: Mat4, n2: Mat4):
    """The exception class and message that `pencil_rank_strata` raises for
    the pair, or None if it is an independent nilpotent pencil of sp(4):
    independence by `gauss_jordan` on the rational entries, membership by
    `in_sp4_product`, and nilpotency as x(t)^4 == 0 at five points, which
    decides it, as x(t)^4 has degree 4 in t."""
    if len(gauss_jordan([n1.flatten(), n2.flatten()])) != 2:
        return DependentInputs, "pencil needs two independent matrices"
    if not (in_sp4_product(n1) and in_sp4_product(n2)) or any(
            not ((x := n1 * t + n2) * x * x * x).is_zero() for t in (0, 1, -1, 2, -2)):
        return Sp4Error, "pencil_rank_strata needs a nilpotent pencil in sp(4)"
    return None


def coords(space: Subspace, m: Mat4):
    """The coefficients of m in the echelon basis of `space` as rationals,
    or None if m is outside: `Subspace.coords_num` over m.den."""
    cs = space.coords_num(m)
    return None if cs is None else tuple(Q(c, m.den) for c in cs)


def echelon_coords(rows, w):
    """The coordinates of w in the span of RREF rows as rationals, or None
    if w is outside: `linalg._pivot_coords` on the rows and w over their
    dens."""
    wn, wd = _over_common_den(w)
    nums = [_over_common_den(r)[0] for r in rows]
    cs = _pivot_coords([(next(i for i, x in enumerate(n) if x), n) for n in nums], wn)
    return None if cs is None else tuple(Q(c, wd) for c in cs)


def fraction_rows(pairs) -> list[tuple]:
    """The (pivot column, int row) pairs of the int kernels as RREF rows:
    each row divided by its pivot."""
    return [tuple(Q(x, r[c]) for x in r) for c, r in pairs]


def rational_rref(rows) -> list[tuple]:
    """RREF rows of rational rows: each row over its common denominator,
    `linalg.rref` on the ints, and `fraction_rows`."""
    return fraction_rows(rref([_over_common_den(r)[0] for r in rows]))


def rational_bracket_space(sc: StructureConstants, a, b) -> list[tuple]:
    """RREF coordinate rows of the span of all [u, v], u in a, v in b, for
    rational coordinate rows: `structure.bracket_space` on the rows over
    their denominators, and `fraction_rows`."""
    return fraction_rows(bracket_space(sc, [_over_common_den(r)[0] for r in a],
                                       [_over_common_den(r)[0] for r in b]))


def combination(space: Subspace, coeffs) -> Mat4:
    """sum_i coeffs[i] * space.basis[i], by `Mat4` arithmetic."""
    acc = Mat4.zero()
    for c, b in zip(coeffs, space.basis):
        if c != 0:
            acc = acc + b * c
    return acc


def unit_rows(d: int) -> list[tuple]:
    """The rational coordinate rows of a basis itself (the d x d identity)."""
    return [tuple(Q(int(i == j)) for j in range(d)) for i in range(d)]


def solve_in_span(vectors, ws) -> list:
    """Coordinates of each w in `ws` in terms of independent vectors, None
    for a w outside their span; all solved by one `gauss_jordan`
    echelonization of the augmented system [vectors | ws].  Raises
    DependentInputs when the vectors are dependent."""
    k = len(vectors)
    coords = [[ZERO] * k for _ in ws]
    outside = set()
    pivots = 0
    for row in gauss_jordan(zip(*vectors, *ws)):
        p = next(i for i, x in enumerate(row) if x)
        if p < k:
            pivots += 1
            for c, x in zip(coords, row[k:]):
                c[p] = x
        else:
            outside.update(j for j, x in enumerate(row[k:]) if x != 0)
    if pivots != k:
        raise DependentInputs("coordinates need independent vectors")
    return [None if j in outside else tuple(c) for j, c in enumerate(coords)]


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
                    term = bracket_coords_fraction(sc, basis[x], bracket_coords_fraction(sc, basis[y], basis[z]))
                    acc = [p + q for p, q in zip(acc, term)]
                if any(c != 0 for c in acc):
                    return False
    return True


def bracket_coords_fraction(sc: StructureConstants, u, v) -> tuple:
    """The coordinates of [u, v] by a `Fraction` triple loop over the rational
    table, not the int contraction."""
    d, table = sc.dim, sc.table
    out = [ZERO] * d
    for i in range(d):
        for j in range(d):
            f = Q(u[i]) * Q(v[j])
            if f:
                for k in range(d):
                    out[k] += f * table[i][j][k]
    return tuple(out)


def change_basis_fraction(sc: StructureConstants, p_cols) -> tuple:
    """The rational table in the basis y_j = sum_i p_cols[j][i] x_i: the
    `Fraction` brackets of the new basis solved against it by `solve_in_span`,
    with antisymmetry filled in."""
    d = sc.dim
    cols = [tuple(Q(c) for c in col) for col in p_cols]
    coords = solve_in_span(cols, [bracket_coords_fraction(sc, x, y)
                                  for x, y in combinations(cols, 2)])
    table = [[(ZERO,) * d] * d for _ in range(d)]
    for (i, j), c in zip(combinations(range(d), 2), coords):
        table[i][j] = c
        table[j][i] = tuple(-x for x in c)
    return tuple(tuple(plane) for plane in table)


def moved_constants(sc: StructureConstants, p_cols) -> StructureConstants:
    """`change_basis_fraction` as a table: the rational constants in the
    basis y_j = sum_i p_cols[j][i] x_i, built by `from_brackets`.  Dependent
    columns raise DependentInputs (`solve_in_span`)."""
    table = change_basis_fraction(sc, p_cols)
    return StructureConstants.from_brackets(
        sc.dim, {(i, j): dict(enumerate(table[i][j])) for i, j in combinations(range(sc.dim), 2)})


def gauss_jordan(rows) -> list[list]:
    """Reduced row echelon form by `Fraction` Gauss-Jordan elimination: the
    nonzero rows, each with a unit pivot and zeros above and below it."""
    work = [[Q(x) for x in r] for r in rows]
    out = []
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in work if r[col] != 0), None)
        if piv is None:
            continue
        work.remove(piv)
        piv = [x / piv[col] for x in piv]
        work = [[x - r[col] * y for x, y in zip(r, piv)] for r in work]
        out = [[x - r[col] * y for x, y in zip(r, piv)] for r in out] + [piv]
    return out


def kernel_fraction(rows, ncols: int) -> list[tuple]:
    """The right kernel of the rows by `gauss_jordan`: for each free column,
    the vector with 1 there and 0 at the other free columns."""
    red = gauss_jordan(rows)
    pivots = [next(i for i, x in enumerate(r) if x != 0) for r in red]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = Q(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        basis.append(tuple(v))
    return basis


def inverse_fraction(m: Mat4):
    """The inverse of m by `gauss_jordan` on the `Fraction` rows of [m | I],
    or None when m is singular (a pivot lands in the right half)."""
    red = gauss_jordan([list(r) + [Q(int(i == j)) for j in range(4)]
                        for i, r in enumerate(m.rows)])
    if any(r[k] != 1 for k, r in enumerate(red[:4])):
        return None
    return Mat4([r[4:] for r in red])


def bracket_fraction(x: Mat4, y: Mat4) -> Mat4:
    """xy - yx by a `Fraction` triple loop over the matrix rows."""
    a, b = x.rows, y.rows
    return Mat4([[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(4))
                  for j in range(4)] for i in range(4)])


def trace_form_radical(g: Subalgebra):
    """The nilpotent subspace of a solvable g as the radical of the trace
    form, with the Gram matrix of rational traces (b_i * b_j).trace(), its
    kernel by `kernel_fraction`, and nilpotency tested as m^4 == 0; raises
    NotSolvable or IrrationalSpectrum as `nilpotent_subspace` does."""
    if not is_solvable(g):
        raise NotSolvable("the subalgebra is not solvable")
    basis = g.basis
    gram = [[(x * y).trace() for y in basis] for x in basis]
    mats = [combination(g.space, v) for v in kernel_fraction(gram, len(basis))]
    if any(not (m * m * m * m).is_zero() for m in mats):
        raise IrrationalSpectrum("trace-form radical contains a non-nilpotent element")
    return Subspace(mats)


def is_jordan_decomposition(dec: JordanDecomposition, original: Mat4) -> bool:
    """All four defining properties of a Jordan-Chevalley decomposition,
    bit-exactly: s + n == x, [s, n] == 0, n^4 == 0, s semisimple."""
    s, n = dec.semisimple, dec.nilpotent
    if s + n != original:
        return False
    if bracket_fraction(s, n) != Mat4.zero():
        return False
    if not (n * n * n * n).is_zero():
        return False
    # s is semisimple iff the squarefree part of its char poly kills it (Horner)
    g = char_poly_det(s.rows).squarefree_part()
    acc = Mat4.zero()
    for i in range(g.degree, -1, -1):
        acc = acc * s + Mat4.identity() * g[i]
    return acc.is_zero()


def poly_eval_mat(p: Poly, m: Mat4) -> Mat4:
    """p(m) by Horner on the numerators: for p = P/e of degree k and m = M/D,
    acc <- acc*M + P_i D^(k-i) I ends at e D^k p(m), divided out once."""
    if p.is_zero():
        return Mat4.zero()
    mm, d = m.num, m.den
    acc = [p.num[-1] if i % 5 == 0 else 0 for i in range(16)]
    dk = 1
    for c in reversed(p.num[:-1]):
        dk *= d
        acc = _mul_num(acc, mm)
        if c:
            for i in (0, 5, 10, 15):
                acc[i] += c * dk
    return Mat4._make(acc, p.den * dk)


def jordan_newton(x: Mat4) -> JordanDecomposition:
    """The Jordan-Chevalley decomposition of any 4x4 matrix by Newton
    iteration on the squarefree part g of its characteristic polynomial:
    S <- S - g(S) g'(S)^{-1} from S = x.  Over a perfect field g and g' are
    coprime, so g'(S) stays invertible, and for 4x4 matrices the iteration
    stabilizes after at most two steps."""
    g = char_poly(x).squarefree_part()
    s = x
    gs = poly_eval_mat(g, s)
    while not gs.is_zero():
        s = s - gs * inverse(poly_eval_mat(g.derivative(), s))
        gs = poly_eval_mat(g, s)
    return JordanDecomposition(s, x - s)


def close_pairs_matrix(space: Subspace) -> "StructureConstants | list[list[int]]":
    """`structure._close_pairs` by 4x4 matrix products: each pair of the
    echelon basis bracketed as xy - yx (`sp4.bracket`) and read at the
    basis pivots; the table, or the brackets outside, each as its ten
    coordinates (`_COORDS`) times l^2 for the lcm l of the basis dens."""
    brackets = [bracket(x, y) for x, y in combinations(space.basis, 2)]
    coords = [space.coords_num(b) for b in brackets]
    l = math.lcm(*[b.den for b in space.basis])
    outside = [[b.num[p] * (l * l // b.den) for p in _COORDS]
               for b, c in zip(brackets, coords) if c is None]
    if outside:
        return outside
    den = math.lcm(*[b.den for b in brackets])
    return StructureConstants._make(
        space.dim, [[x * (den // b.den) for x in c] for c, b in zip(coords, brackets)], den)


def dense_brackets(dim: int, brackets: dict):
    """The constants c[i][j][k] of a sparse {(i, j): {k: c}} description of
    [x_i, x_j], with antisymmetry filled in, as dense `Fraction` planes; or,
    for a table that breaks the Jacobi identity, the Sp4Error text of
    `from_brackets` at the first triple i < j < k where the cyclic sum of
    sum_m c[a][b][m] c[m][c][n], over every m, is not 0."""
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), row in brackets.items():
        for k, x in row.items():
            c[i][j][k], c[j][i][k] = Q(x), -Q(x)
    for i, j, k in combinations(range(dim), 3):
        acc = [sum(c[a][b][m] * c[m][cc][n] for a, b, cc in ((i, j, k), (j, k, i), (k, i, j))
                   for m in range(dim)) for n in range(dim)]
        if any(acc):
            return f"the table breaks the Jacobi identity at ({i}, {j}, {k})"
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def all_pairs_separations(entries, params) -> list[tuple]:
    """(row, check, status, detail) of each dimension's separations record,
    by visiting every pair i < j of its instances in order: a pair of one
    row inside one parameter orbit must agree in signature, any other pair
    must differ.  Each instance's signature and orbit are the library's
    (`verify._instance`, `CatalogEntry.equivalent_params`); the rows must
    evaluate without faults."""
    by_dim: dict = {}
    for e in entries:
        for a in e.samples(params):
            orbit = {a} if a is None else e.equivalent_params(a)
            sig = verify._instance(e, a).signature
            by_dim.setdefault(e.dim, []).append((e.row_id, a, orbit, sig))
    out = []
    for dim, insts in sorted(by_dim.items()):
        bad, n_pairs = [], 0
        for (r1, a1, orbit, s1), (r2, a2, _, s2) in combinations(insts, 2):
            if r1 == r2 and (a1 is None or a2 in orbit):
                if s1 != s2:
                    bad.append((r1, a1, r2, a2, "equivalent params separated"))
                continue
            n_pairs += 1
            if s1 == s2:
                bad.append((r1, a1, r2, a2, "signatures collide"))
        text = lambda a: "-" if a is None else format_rational(a)  # noqa: E731
        shown = [f"{r1}@{text(p1)} ~ {r2}@{text(p2)}: {why}" for r1, p1, r2, p2, why in bad[:4]]
        if len(bad) > 4:
            shown.append(f"{len(bad) - 4} more")
        out.append((f"separations-dim{dim}", f"{n_pairs} inequivalent pairs",
                    "fail" if bad else "pass", "; ".join(shown)))
    return out
