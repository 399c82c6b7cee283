"""Machine-readable encoding of the classification tables.

Each row of the five summary tables is a `CatalogEntry`: a parameterized basis
(coefficients are expression strings in the row parameter ``a``), the
admissibility conditions, the claimed equivalences with explicit conjugator
recipes, the dimension <= 4 class with exact parameter formulas, the
indecomposable-catalog label, and the explicit isomorphism map onto the
defining relations.  A row states only what the tables state; its table
(`min(dim, 5)`), whether it has a parameter (a basis expression names ``a``)
and the class its isomorphism map starts from (the de Graaf class when it has
one, else the stated indecomposable) are derived, and `sw=None` on a row with
a de Graaf class means the label is translated from that class.

Basis elements are 6-tuples of expressions

    (Ta, Tb, cA, cB, cAB, cA2B)  ->  T(Ta,Tb) + cA*X_alpha + cB*X_beta
                                      + cAB*X_{alpha+beta} + cA2B*X_{alpha+2beta}

so the whole catalog round-trips through JSON.  Frozen row counts, established
against the tables: 8 one-, 16 two-, 19 three-, 14 four- and 8 five/six-
dimensional rows (65 total).

The tables are data: loading them needs only expressions, rationals and the
class labels (`labels`), so `load_catalog()` compiles no matrix, bracket-table
or presentation code.  `linalg` and `sp4` are loaded when the first instance
is built (`basis_at`, `space_at`, `build_elements`), and a label's bracket
table (`.constants()`) loads `identify`, which holds both catalog tables, on
its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .errors import Sp4Error
from .exprs import eval_expr
from .labels import DeGraafClass, SWClass
from .rational import Q

if TYPE_CHECKING:
    from .linalg import Mat4, Subspace

__all__ = ["CatalogEntry", "EquivClaim", "load_catalog", "catalog_to_json",
           "catalog_from_json", "EXPECTED_COUNTS", "DEFAULT_PARAM_SAMPLES"]

EXPECTED_COUNTS = {1: 8, 2: 16, 3: 19, 4: 14, 5: 8}  # table 5 holds dims 5 and 6
# The values a parameterized row is checked at unless others are given; a
# row skips those it excludes.
DEFAULT_PARAM_SAMPLES = (Q(2), Q(3), Q(5), Q(-2), Q(-3), Q(1, 2), Q(2, 3), Q(7, 3))
# The largest parameter orbit a row's self-equivalences may close: the order
# of the Weyl group (the shipped rows reach at most 4).
PARAM_ORBIT_BOUND = 8


def _env(a) -> dict:
    """The expression environment of a row at parameter a (None: no parameter)."""
    return {} if a is None else {"a": Q(a)}


def _ev(expr, env) -> Q:
    if isinstance(expr, int):
        return Q(expr)
    return eval_expr(expr, env)


@cache
def _matrix_code() -> tuple:
    """What an instance is built with: `echelon_span`, `T` and the root
    vectors of a basis spec's columns.  `linalg` and `sp4` are loaded on the
    first call, not with the catalog, and once: an import statement in a
    function runs again on every call."""
    from .linalg import echelon_span
    from .sp4 import T, X_A2B, X_AB, X_ALPHA, X_BETA
    return echelon_span, T, (X_ALPHA, X_BETA, X_AB, X_A2B)


def build_elements(specs, env) -> list[Mat4]:
    """The sp(4) elements of basis specs under env."""
    _, T, roots = _matrix_code()
    out = []
    for spec in specs:
        ta, tb, *coeffs = (_ev(e, env) for e in spec)
        m = T(ta, tb)
        for c, x in zip(coeffs, roots):
            if c != 0:
                m = m + x * c
        out.append(m)
    return out


def _tuples(x):
    """x with every list in it, at any depth, made a tuple, so that a row
    written with lists (or read from JSON) is the same frozen value."""
    return tuple(map(_tuples, x)) if isinstance(x, (list, tuple)) else x


def _set(obj, **fields):
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class EquivClaim:
    """One claimed conjugacy, realized by an explicit conjugator recipe.

    Verified as: conjugate_subalgebra(recipe(a), span(src(a))) == span(tgt(a')).
    `src`/`tgt` default to the row's own basis; `tgt_param` maps the parameter
    (e.g. "1/a"); `samples` restricts to parameter values where the recipe is
    rational (square-root constructions from the proofs).
    """

    desc: str
    recipe: str
    src: tuple | None = None
    tgt: tuple | None = None
    tgt_param: str | None = None
    samples: tuple | None = None

    def __post_init__(self):
        _set(self, src=_tuples(self.src), tgt=_tuples(self.tgt),
             samples=_tuples(self.samples))


@dataclass(frozen=True)
class CatalogEntry:
    """One table row.  A claim may be given as the positional tuple
    (desc, recipe, src, tgt, tgt_param, samples)."""

    row_id: str
    dim: int
    label: str
    basis: tuple
    excluded: tuple = ()
    degraaf: tuple | None = None       # (family, (param exprs...))
    sw: tuple | None = None            # (name, (param exprs...)); None: translated
    equivalences: tuple = ()
    iso_columns: tuple | None = None   # presentation basis -> row-basis coords
    param_equiv: tuple = ()            # exprs generating the self-equivalences

    def __post_init__(self):
        _set(self, basis=_tuples(self.basis), excluded=_tuples(self.excluded),
             degraaf=_tuples(self.degraaf), sw=_tuples(self.sw),
             iso_columns=_tuples(self.iso_columns),
             param_equiv=_tuples(self.param_equiv),
             equivalences=tuple(c if isinstance(c, EquivClaim) else EquivClaim(*c)
                                for c in self.equivalences))

    @property
    def table(self) -> int:
        return min(self.dim, 5)

    @property
    def param(self) -> bool:
        """Whether some basis expression names the parameter a."""
        return any(isinstance(x, str) and "a" in x for spec in self.basis for x in spec)

    def conditions_ok(self, a) -> bool:
        return all(Q(a) != _ev(e, {}) for e in self.excluded)

    def samples(self, candidates=DEFAULT_PARAM_SAMPLES) -> tuple:
        """The values the row is checked at: the admissible candidates for a
        parameterized row, and (None,) for a row without parameter."""
        if not self.param:
            return (None,)
        return tuple(a for a in candidates if a is not None and self.conditions_ok(a))

    def basis_at(self, a) -> list[Mat4]:
        return build_elements(self.basis, _env(a))

    def space_at(self, a) -> Subspace:
        echelon_span = _matrix_code()[0]
        return echelon_span(self.basis_at(a))

    def degraaf_at(self, a) -> DeGraafClass | None:
        if self.degraaf is None:
            return None
        env = _env(a)
        fam, params = self.degraaf
        return DeGraafClass(fam, tuple(_ev(p, env) for p in params))

    def sw_at(self, a) -> SWClass | None:
        if self.sw is None:
            return None
        env = _env(a)
        name, params = self.sw
        return SWClass(name, tuple(_ev(p, env) for p in params))

    def presentation_at(self, a) -> DeGraafClass | SWClass | None:
        """The class the isomorphism map starts from: the de Graaf class when
        the row has one, else the stated indecomposable."""
        return self.degraaf_at(a) if self.degraaf is not None else self.sw_at(a)

    def iso_columns_at(self, a):
        if self.iso_columns is None:
            return None
        env = _env(a)
        return tuple(tuple(_ev(x, env) for x in col) for col in self.iso_columns)

    def equivalent_params(self, a) -> set:
        """Closure of a under the row's parameter self-equivalences; an orbit
        larger than PARAM_ORBIT_BOUND raises Sp4Error."""
        out = {Q(a)}
        frontier = [Q(a)]
        while frontier:
            v = frontier.pop()
            for e in self.param_equiv:
                try:
                    w = eval_expr(e, {"a": v})
                except ZeroDivisionError:
                    continue
                if w not in out:
                    if len(out) == PARAM_ORBIT_BOUND:
                        raise Sp4Error(f"{self.row_id}: the orbit of a under "
                                       f"{self.param_equiv} exceeds {PARAM_ORBIT_BOUND} values")
                    out.add(w)
                    frontier.append(w)
        return out


# basis shorthands
_T = lambda a, b: (a, b, 0, 0, 0, 0)
_XA = (0, 0, 1, 0, 0, 0)
_XB = (0, 0, 0, 1, 0, 0)
_XAB = (0, 0, 0, 0, 1, 0)
_XA2B = (0, 0, 0, 0, 0, 1)
_T10 = _T(1, 0)
_T01 = _T(0, 1)
_T11 = _T(1, 1)
_T1M1 = _T(1, -1)
_NP = (_XA, _XAB, _XA2B)
_NBASIS = (_XB, _XA, _XAB, _XA2B)


def load_catalog() -> list[CatalogEntry]:
    rows = _TABLE1 + _TABLE2 + _TABLE3 + _TABLE45
    counts: dict[int, int] = {}
    for r in rows:
        counts[r.table] = counts.get(r.table, 0) + 1
    if counts != EXPECTED_COUNTS:
        raise Sp4Error(f"catalog row counts drifted: {counts} != {EXPECTED_COUNTS}")
    return list(rows)


# ---------------------------------------------------------------------------
# Table 1: one-dimensional rows
# ---------------------------------------------------------------------------

_TABLE1 = (
    CatalogEntry(row_id="d1_T_a1", dim=1, label="<T(a,1)>",
                 basis=[_T("a", 1)], excluded=("0", "1", "-1"),
                 degraaf=("J", ()),
                 param_equiv=("-a", "1/a"),
                 equivalences=(
                     ("a -> -a via AJ", "AJ", None, None, "-a", None),
                     ("a -> 1/a via W (span rescaling)", "W", None, None, "1/a", None),
                 )),
    CatalogEntry(row_id="d1_T_10", dim=1, label="<T(1,0)>",
                 basis=[_T10], degraaf=("J", ())),
    CatalogEntry(row_id="d1_T_11", dim=1, label="<T(1,1)>",
                 basis=[_T11], degraaf=("J", ()),
                 equivalences=(
                     ("conjugate to <T(1,-1)> via A", "A", None, (_T1M1,), None, None),
                 )),
    CatalogEntry(row_id="d1_X_alpha", dim=1, label="<X_alpha>",
                 basis=[_XA], degraaf=("J", ()),
                 equivalences=(
                     ("<X_alpha+2beta> form via W", "W", ((0, 0, 0, 0, 0, 1),), None, None, None),
                 )),
    CatalogEntry(row_id="d1_X_beta", dim=1, label="<X_beta>",
                 basis=[_XB], degraaf=("J", ()),
                 equivalences=(
                     ("<X_alpha+beta> form via A", "A", None, (_XAB,), None, None),
                     ("rank-2 pair form <X_alpha+2beta - X_alpha>", "glblock:1,1,1,-1 A",
                      None, ((0, 0, -1, 0, 0, 1),), None, None),
                 )),
    CatalogEntry(row_id="d1_Xa_plus_Xb", dim=1, label="<X_alpha + X_beta>",
                 basis=[(0, 0, 1, 1, 0, 0)], degraaf=("J", ())),
    CatalogEntry(row_id="d1_T10_Xa", dim=1, label="<T(1,0) + X_alpha>",
                 basis=[(1, 0, 1, 0, 0, 0)], degraaf=("J", ()),
                 equivalences=(
                     ("W image <T(0,1)+X_alpha+2beta>", "W",
                      None, ((0, 1, 0, 0, 0, 1),), None, None),
                     ("<T(4,0)+X_alpha> rescales in (square sample)", "diag:1,2,1,1/2",
                      ((4, 0, 1, 0, 0, 0),), None, None, None),
                     ("<T(9/4,0)+X_alpha> rescales in (square sample)", "diag:1,3/2,1,2/3",
                      (("9/4", 0, 1, 0, 0, 0),), None, None, None),
                     ("<T(-4,0)+X_alpha> joins via AJ and a diagonal", "AJ diag:1,2,1,1/2",
                      ((-4, 0, 1, 0, 0, 0),), None, None, None),
                 )),
    CatalogEntry(row_id="d1_T11_Xb", dim=1, label="<T(1,1) + X_beta>",
                 basis=[(1, 1, 0, 1, 0, 0)], degraaf=("J", ()),
                 equivalences=(
                     ("A image <T(1,-1)+X_alpha+beta>", "A",
                      None, ((1, -1, 0, 0, 1, 0),), None, None),
                     ("<T(a,a)+X_beta> rescales in for any a", "diag:a,1,1/a,1",
                      (("a", "a", 0, 1, 0, 0),), None, None, ("3", "5", "-2", "7/3")),
                 )),
)


# ---------------------------------------------------------------------------
# Table 2: two-dimensional rows
# ---------------------------------------------------------------------------

_TABLE2 = (
    CatalogEntry(row_id="d2_t", dim=2, label="t (Cartan)",
                 basis=[_T10, _T01], degraaf=("K1", ())),
    CatalogEntry(row_id="d2_T31_XaXb", dim=2, label="<T(3,1), X_alpha+X_beta>",
                 basis=[_T(3, 1), (0, 0, 1, 1, 0, 0)],
                 degraaf=("K2", ()),
                 iso_columns=[["1/2", 0], [0, 1]],
                 equivalences=(
                     ("4Xa+Xb normalizes (u=2)", "diag:1/2,1/2,2,2",
                      (_T(3, 1), (0, 0, 4, 1, 0, 0)), None, None, None),
                     ("Xa+4Xb normalizes (u=1,s=4)", "diag:1/4,1,4,1",
                      (_T(3, 1), (0, 0, 1, 4, 0, 0)), None, None, None),
                 )),
    CatalogEntry(row_id="d2_Ta1_Xa", dim=2, label="<T(a,1), X_alpha>",
                 basis=[_T("a", 1), _XA], excluded=("0", "1", "-1"),
                 degraaf=("K2", ()),
                 iso_columns=[["1/2", 0], [0, 1]],
                 param_equiv=("-a",),
                 equivalences=(
                     ("a -> -a via AJ", "AJ", None, None, "-a", None),
                     ("W image <T(1,a), X_alpha+2beta>", "W", None,
                      ((1, "a", 0, 0, 0, 0), _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d2_Ta1_Xb", dim=2, label="<T(a,1), X_beta>",
                 basis=[_T("a", 1), _XB], excluded=("0", "1", "-1"),
                 degraaf=("K2", ()),
                 iso_columns=[["1/(a-1)", 0], [0, 1]],
                 param_equiv=("1/a",),
                 equivalences=(
                     ("a -> 1/a via A W A", "A W A", None, None, "1/a", None),
                     ("A image <T(a,-1), X_alpha+beta>", "A", None,
                      (("a", -1, 0, 0, 0, 0), _XAB), None, None),
                 )),
    CatalogEntry(row_id="d2_T10_Xa", dim=2, label="<T(1,0), X_alpha> (abelian)",
                 basis=[_T10, _XA], degraaf=("K1", ()),
                 equivalences=(
                     ("W image <T(0,1), X_alpha+2beta>", "W", None, (_T01, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d2_T10_Xb", dim=2, label="<T(1,0), X_beta>",
                 basis=[_T10, _XB], degraaf=("K2", ()),
                 iso_columns=[[1, 0], [0, 1]],
                 equivalences=(
                     ("beta line rotates to alpha+beta", "block:0,-1,1,0",
                      None, (_T10, _XAB), None, None),
                     ("<T(0,1), X_alpha+beta> joins via W", "W",
                      (_T01, _XAB), (_T10, _XAB), None, None),
                     ("<T(0,1), X_beta> rotates via A", "A",
                      (_T01, _XB), (_T01, _XAB), None, None),
                     ("mixed beta directions normalize", "block:1,3/2,0,1",
                      (_T10, (0, 0, 0, 2, 3, 0)), None, None, None),
                 )),
    CatalogEntry(row_id="d2_T10_Xa2b", dim=2, label="<T(1,0), X_alpha+2beta>",
                 basis=[_T10, _XA2B], degraaf=("K2", ()),
                 iso_columns=[["1/2", 0], [0, 1]],
                 equivalences=(
                     ("<T(0,1), X_alpha> joins via W", "W", (_T01, _XA), None, None, None),
                 )),
    CatalogEntry(row_id="d2_T11_Xa", dim=2, label="<T(1,1), X_alpha>",
                 basis=[_T11, _XA], degraaf=("K2", ()),
                 iso_columns=[["1/2", 0], [0, 1]],
                 equivalences=(
                     ("<T(1,1), X_alpha+2beta> rotates in", "glblock:0,1,-1,0",
                      (_T11, _XA2B), None, None, None),
                     ("<T(1,-1), X_alpha> joins via AJ", "AJ", (_T1M1, _XA), None, None, None),
                     ("<T(1,-1), X_a2b> joins via A", "A",
                      (_T1M1, _XA2B), (_T11, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d2_T11_Xb", dim=2, label="<T(1,1), X_beta> (abelian)",
                 basis=[_T11, _XB], degraaf=("K1", ()),
                 equivalences=(
                     ("A image <T(1,-1), X_alpha+beta>", "A", None, (_T1M1, _XAB), None, None),
                 )),
    CatalogEntry(row_id="d2_T11_Xab", dim=2, label="<T(1,1), X_alpha+beta>",
                 basis=[_T11, _XAB], degraaf=("K2", ()),
                 iso_columns=[["1/2", 0], [0, 1]],
                 equivalences=(
                     ("A image <T(1,-1), X_beta>", "A", None, (_T1M1, _XB), None, None),
                     ("rank-2 plane element rotates in", "glblock:1,1,1,-1",
                      (_T11, (0, 0, 1, 0, 0, -1)), None, None, None),
                     ("zero-weight shear clears X_a2b", "shear:alpha_plus_beta:1",
                      (_T1M1, (0, 0, 0, 1, 0, 2)), (_T1M1, _XB), None, None),
                 )),
    CatalogEntry(row_id="d2_T11Xb_Xa2b", dim=2,
                 label="<T(1,1)+X_beta, X_alpha+2beta>",
                 basis=[(1, 1, 0, 1, 0, 0), _XA2B], degraaf=("K2", ()),
                 iso_columns=[["1/2", 0], [0, 1]],
                 equivalences=(
                     ("A image <T(1,-1)+X_alpha+beta, X_alpha+2beta>", "A",
                      None, ((1, -1, 0, 0, 1, 0), _XA2B), None, None),
                     ("W joins <T(1,-1)+Xab, X_alpha> to the A image", "W",
                      ((1, -1, 0, 0, 1, 0), _XA), ((1, -1, 0, 0, 1, 0), _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d2_T10Xa_Xab", dim=2,
                 label="<T(1,0)+X_alpha, X_alpha+beta>",
                 basis=[(1, 0, 1, 0, 0, 0), _XAB], degraaf=("K2", ()),
                 iso_columns=[[1, 0], [0, 1]],
                 equivalences=(
                     ("W image of <T(0,1)+X_alpha+2beta, X_alpha+beta>", "W",
                      ((0, 1, 0, 0, 0, 1), _XAB), None, None, None),
                     ("A relates the two T(0,1)+X_a2b forms", "A",
                      ((0, 1, 0, 0, 0, 1), _XB), ((0, -1, 0, 0, 0, 1), _XAB), None, None),
                 )),
    CatalogEntry(row_id="d2_T10Xa_Xa2b", dim=2,
                 label="<T(1,0)+X_alpha, X_alpha+2beta>",
                 basis=[(1, 0, 1, 0, 0, 0), _XA2B], degraaf=("K2", ()),
                 iso_columns=[["1/2", 0], [0, 1]],
                 equivalences=(
                     ("W image of <T(0,1)+X_alpha+2beta, X_alpha>", "W",
                      ((0, 1, 0, 0, 0, 1), _XA), None, None, None),
                 )),
    CatalogEntry(row_id="d2_Xa_Xab", dim=2, label="<X_alpha, X_alpha+beta>",
                 basis=[_XA, _XAB], degraaf=("K1", ()),
                 equivalences=(
                     ("<X_beta, X_alpha+2beta> joins via WA", "W A",
                      (_XB, _XA2B), None, None, None),
                 )),
    CatalogEntry(row_id="d2_Xa_Xa2b", dim=2, label="<X_alpha, X_alpha+2beta>",
                 basis=[_XA, _XA2B], degraaf=("K1", ())),
    CatalogEntry(row_id="d2_XaXb_Xa2b", dim=2,
                 label="<X_alpha+X_beta, X_alpha+2beta>",
                 basis=[(0, 0, 1, 1, 0, 0), _XA2B], degraaf=("K1", ()),
                 equivalences=(
                     ("shear removes the alpha+beta component", "shear:alpha:3",
                      ((0, 0, 4, 1, 3, 0), _XA2B), ((0, 0, 4, 1, 0, 0), _XA2B), None, None),
                     ("diagonal rescales X_beta+4X_alpha (z=2)", "diag:1/2,1/2,2,2",
                      ((0, 0, 4, 1, 0, 0), _XA2B), None, None, None),
                 )),
)


# ---------------------------------------------------------------------------
# Table 3: three-dimensional rows
# ---------------------------------------------------------------------------

_TABLE3 = (
    CatalogEntry(row_id="d3_t_Xa", dim=3, label="<t, X_alpha>",
                 basis=[_T10, _T01, _XA], degraaf=("L3", ("0",)),
                 iso_columns=[[1, 0, 1], [0, 0, 1], [0, "1/2", 0]],
                 equivalences=(
                     ("W image <t, X_alpha+2beta>", "W", None, (_T10, _T01, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d3_t_Xb", dim=3, label="<t, X_beta>",
                 basis=[_T10, _T01, _XB], degraaf=("L3", ("0",)),
                 iso_columns=[[1, 1, 1], [0, 0, 1], [1, 0, 0]],
                 equivalences=(
                     ("A image <t, X_alpha+beta>", "A", None, (_T10, _T01, _XAB), None, None),
                 )),
    CatalogEntry(row_id="d3_Ta1_Xa_Xab", dim=3,
                 label="<T(a,1), X_alpha, X_alpha+beta>",
                 basis=[_T("a", 1), _XA, _XAB],
                 excluded=("0", "1", "-1", "-3"),
                 degraaf=("L3", ("-2*(a+1)/(a+3)^2",)),
                 iso_columns=[[0, 1, 1], [0, "2/(a+3)", "(a+1)/(a+3)"], ["1/(a+3)", 0, 0]],
                 equivalences=(
                     ("W joins <T(a,1), X_ab, X_a2b> at 1/a", "W",
                      (_T("a", 1), _XAB, _XA2B), None, "1/a", None),
                     ("W A joins <T(a,1), X_b, X_a2b> at -1/a", "W A",
                      (_T("a", 1), _XB, _XA2B), None, "-1/a", None),
                 )),
    CatalogEntry(row_id="d3_Tm31_Xa_Xab", dim=3,
                 label="<T(-3,1), X_alpha, X_alpha+beta>",
                 basis=[_T(-3, 1), _XA, _XAB],
                 degraaf=("L4", ("1",)),
                 iso_columns=[[0, 1, 1], [0, 1, -1], ["1/2", 0, 0]]),
    CatalogEntry(row_id="d3_Ta1_Xa_Xa2b", dim=3,
                 label="<T(a,1), X_alpha, X_alpha+2beta>",
                 basis=[_T("a", 1), _XA, _XA2B], excluded=("0", "1", "-1"),
                 degraaf=("L3", ("-a/(a+1)^2",)),
                 iso_columns=[[0, 1, 1], [0, "1/(a+1)", "a/(a+1)"], ["1/(2*a+2)", 0, 0]],
                 param_equiv=("1/a",),
                 equivalences=(
                     ("a -> 1/a via W", "W", None, None, "1/a", None),
                 )),
    CatalogEntry(row_id="d3_T31_XaXb_Xa2b", dim=3,
                 label="<T(3,1), X_alpha+X_beta, X_alpha+2beta>",
                 basis=[_T(3, 1), (0, 0, 1, 1, 0, 0), _XA2B],
                 degraaf=("L3", ("-3/16",)), sw=("s_{3,1}", ("1/3",)),
                 iso_columns=[[0, 1, 1], [0, "1/4", "3/4"], ["1/8", 0, 0]],
                 equivalences=(
                     ("4Xa+Xb normalizes (u=2)", "diag:1/2,1/2,2,2",
                      (_T(3, 1), (0, 0, 4, 1, 0, 0), _XA2B), None, None, None),
                 )),
    CatalogEntry(row_id="d3_T10_Xa_Xab", dim=3,
                 label="<T(1,0), X_alpha, X_alpha+beta>",
                 basis=[_T10, _XA, _XAB], degraaf=("L3", ("0",)),
                 iso_columns=[[0, 1, 1], [0, 0, 1], [1, 0, 0]],
                 equivalences=(
                     ("W image of <T(0,1), X_ab, X_a2b>", "W",
                      (_T01, _XAB, _XA2B), None, None, None),
                     ("A joins <T(0,1), X_b, X_a2b>", "A",
                      (_T01, _XB, _XA2B), ((0, -1, 0, 0, 0, 0), _XAB, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d3_T10_Xa_Xa2b", dim=3,
                 label="<T(1,0), X_alpha, X_alpha+2beta>",
                 basis=[_T10, _XA, _XA2B], degraaf=("L3", ("0",)),
                 iso_columns=[[0, 1, 1], [0, 0, 1], ["1/2", 0, 0]],
                 equivalences=(
                     ("W image of <T(0,1), X_a, X_a2b>", "W",
                      (_T01, _XA, _XA2B), None, None, None),
                 )),
    CatalogEntry(row_id="d3_T10_Xab_Xa2b", dim=3,
                 label="<T(1,0), X_alpha+beta, X_alpha+2beta>",
                 basis=[_T10, _XAB, _XA2B], degraaf=("L3", ("-2/9",)),
                 sw=("s_{3,1}", ("1/2",)),
                 iso_columns=[[0, 1, 1], [0, "1/3", "2/3"], ["1/3", 0, 0]],
                 equivalences=(
                     ("beta direction rotates in", "block:0,-1,1,0",
                      (_T10, _XB, _XA2B), None, None, None),
                     ("mixed beta directions normalize", "block:1,3/2,0,1",
                      (_T10, (0, 0, 0, 2, 3, 0), _XA2B), (_T10, _XB, _XA2B), None, None),
                     ("W image of <T(0,1), X_a, X_ab>", "W",
                      (_T01, _XA, _XAB), None, None, None),
                 )),
    CatalogEntry(row_id="d3_T1m1_Xab_Xa2b", dim=3,
                 label="<T(1,-1), X_alpha+beta, X_alpha+2beta>",
                 basis=[_T1M1, _XAB, _XA2B], degraaf=("L3", ("0",)),
                 iso_columns=[[0, 1, 1], [0, 0, 1], ["1/2", 0, 0]],
                 equivalences=(
                     ("A image <T(1,1), X_beta, X_a2b>", "A",
                      None, (_T11, _XB, _XA2B), None, None),
                     ("W image of <T(1,-1), X_a, X_ab>", "W",
                      (_T1M1, _XA, _XAB), None, None, None),
                 )),
    CatalogEntry(row_id="d3_T1m1_Xa_Xa2b", dim=3,
                 label="<T(1,-1), X_alpha, X_alpha+2beta>",
                 basis=[_T1M1, _XA, _XA2B], degraaf=("L4", ("1",)),
                 iso_columns=[[0, 1, 1], [0, -1, 1], ["1/2", 0, 0]]),
    CatalogEntry(row_id="d3_T1m1_Xb_Xa2b", dim=3,
                 label="<T(1,-1), X_beta, X_alpha+2beta>",
                 basis=[_T1M1, _XB, _XA2B], degraaf=("L2", ()),
                 iso_columns=[[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]],
                 equivalences=(
                     ("A image <T(1,1), X_alpha+beta, X_a2b>", "A",
                      None, (_T11, _XAB, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d3_T11_Xa_Xa2b", dim=3,
                 label="<T(1,1), X_alpha, X_alpha+2beta>",
                 basis=[_T11, _XA, _XA2B], degraaf=("L2", ()),
                 iso_columns=[[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]]),
    CatalogEntry(row_id="d3_T11Xb_Xab_Xa2b", dim=3,
                 label="<T(1,1)+X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[(1, 1, 0, 1, 0, 0), _XAB, _XA2B],
                 degraaf=("L3", ("-1/4",)), sw=("s_{3,2}", ()),
                 iso_columns=[[0, 2, -2], [0, 1, 0], ["1/4", 0, 0]],
                 equivalences=(
                     ("A image <T(1,-1)+X_ab, X_beta, X_a2b>", "A",
                      None, ((1, -1, 0, 0, 1, 0), _XB, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d3_T1m1Xab_Xa_Xa2b", dim=3,
                 label="<T(1,-1)+X_alpha+beta, X_alpha, X_alpha+2beta>",
                 basis=[(1, -1, 0, 0, 1, 0), _XA, _XA2B],
                 degraaf=("L4", ("1",)),
                 iso_columns=[[0, 1, 1], [0, -1, 1], ["1/2", 0, 0]]),
    CatalogEntry(row_id="d3_T10Xa_Xab_Xa2b", dim=3,
                 label="<T(1,0)+X_alpha, X_alpha+beta, X_alpha+2beta>",
                 basis=[(1, 0, 1, 0, 0, 0), _XAB, _XA2B],
                 degraaf=("L3", ("-2/9",)), sw=("s_{3,1}", ("1/2",)),
                 iso_columns=[[0, 1, 1], [0, "1/3", "2/3"], ["1/3", 0, 0]],
                 equivalences=(
                     ("W image <T(0,1)+X_a2b, X_alpha, X_ab>", "W",
                      None, ((0, 1, 0, 0, 0, 1), _XA, _XAB), None, None),
                 )),
    CatalogEntry(row_id="d3_np", dim=3, label="n_p (abelian nilradical of p)",
                 basis=list(_NP), degraaf=("L1", ())),
    CatalogEntry(row_id="d3_Xb_Xab_Xa2b", dim=3,
                 label="<X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[_XB, _XAB, _XA2B], degraaf=("L4", ("0",)),
                 iso_columns=[[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]]),
    CatalogEntry(row_id="d3_XaXb_Xab_Xa2b", dim=3,
                 label="<X_alpha+X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[(0, 0, 1, 1, 0, 0), _XAB, _XA2B],
                 degraaf=("L4", ("0",)),
                 iso_columns=[[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]],
                 equivalences=(
                     ("diagonal rescales 3Xa+2Xb", "diag:3/2,1,2/3,1",
                      ((0, 0, 3, 2, 0, 0), _XAB, _XA2B), None, None, None),
                 )),
)


# ---------------------------------------------------------------------------
# Tables 4 and 5: four-, five- and six-dimensional rows
# ---------------------------------------------------------------------------

_TABLE45 = (
    CatalogEntry(row_id="d4_t_Xa_Xab", dim=4, label="<t, X_alpha, X_alpha+beta>",
                 basis=[_T10, _T01, _XA, _XAB], degraaf=("M8", ()),
                 iso_columns=[["-1/2", "1/2", 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
                 equivalences=(
                     ("W image <t, X_ab, X_a2b>", "W",
                      None, (_T10, _T01, _XAB, _XA2B), None, None),
                     ("A joins <t, X_b, X_a2b>", "A",
                      (_T10, _T01, _XB, _XA2B), (_T10, _T01, _XAB, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d4_t_Xa_Xa2b", dim=4, label="<t, X_alpha, X_alpha+2beta>",
                 basis=[_T10, _T01, _XA, _XA2B], degraaf=("M8", ()),
                 iso_columns=[[0, "1/2", 0, 0], [0, 0, 1, 0], ["1/2", 0, 0, 0], [0, 0, 0, 1]]),
    CatalogEntry(row_id="d4_Ta1_np", dim=4, label="<T(a,1), n_p>",
                 basis=[_T("a", 1), _XA, _XAB, _XA2B], excluded=("0", "1", "-1"),
                 degraaf=("M6", ("4*a/(27*(a+1)^2)", "-2*(a^2+4*a+1)/(9*(a+1)^2)")),
                 iso_columns=[[0, "9*(a+1)^2/4", 9, "9*(a+1)^2/(4*a^2)"],
                              [0, "3*(a+1)/2", 3, "3*(a+1)/(2*a)"],
                              [0, 1, 1, 1],
                              ["1/(3*(a+1))", 0, 0, 0]],
                 param_equiv=("1/a",),
                 equivalences=(
                     ("a -> 1/a via W", "W", None, None, "1/a", None),
                 )),
    CatalogEntry(row_id="d4_Ta1_Xb_Xab_Xa2b", dim=4,
                 label="<T(a,1), X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[_T("a", 1), _XB, _XAB, _XA2B], excluded=("0", "1", "-1"),
                 degraaf=("M13", ("(1-a^2)/(4*a^2)",)),
                 iso_columns=[[0, 1, 1, 0],
                              [0, 0, 0, "8*a/(a^2-1)"],
                              [0, "2*a/(a-1)", "2*a/(a+1)", 0],
                              ["1/(2*a)", 0, 0, 0]],
                 param_equiv=("-a",),
                 equivalences=(
                     ("a -> -a via A", "A", None, None, "-a", None),
                 )),
    CatalogEntry(row_id="d4_T31_XaXb_Xab_Xa2b", dim=4,
                 label="<T(3,1), X_alpha+X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[_T(3, 1), (0, 0, 1, 1, 0, 0), _XAB, _XA2B],
                 degraaf=("M13", ("-2/9",)), sw=("s_{4,8}", ("1/2",)),
                 iso_columns=[[0, 1, 2, 0], [0, 0, 0, 6], [0, 3, 3, 0], ["1/6", 0, 0, 0]],
                 equivalences=(
                     ("4Xa+Xb normalizes (u=2)", "diag:1/2,1/2,2,2",
                      (_T(3, 1), (0, 0, 4, 1, 0, 0), _XAB, _XA2B), None, None, None),
                 )),
    CatalogEntry(row_id="d4_T01_np", dim=4, label="<T(0,1), n_p>",
                 basis=[_T01, _XA, _XAB, _XA2B],
                 degraaf=("M6", ("0", "-2/9")),
                 iso_columns=[[0, "9/4", 9, 1], [0, "3/2", 3, 0], [0, 1, 1, 0],
                              ["1/3", 0, 0, 0]],
                 equivalences=(
                     ("W image <T(1,0), n_p>", "W", None, (_T10, _XA, _XAB, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d4_T01_Xb_Xab_Xa2b", dim=4,
                 label="<T(0,1), X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[_T01, _XB, _XAB, _XA2B],
                 degraaf=("M14", ("1",)),
                 iso_columns=[[0, -1, 1, 0], [0, 0, 0, 4], [0, 1, 1, 0], [1, 0, 0, 0]]),
    CatalogEntry(row_id="d4_T10_Xb_Xab_Xa2b", dim=4,
                 label="<T(1,0), X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[_T10, _XB, _XAB, _XA2B],
                 degraaf=("M12", ()),
                 iso_columns=[[0, 0, 1, 0], [0, 0, 0, 1], [0, "1/2", 0, 0], [1, 0, 0, 0]]),
    CatalogEntry(row_id="d4_T11_np", dim=4, label="<T(1,1), n_p>",
                 basis=[_T11, _XA, _XAB, _XA2B],
                 degraaf=("M2", ()),
                 iso_columns=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], ["1/2", 0, 0, 0]]),
    CatalogEntry(row_id="d4_T1m1_np", dim=4, label="<T(1,-1), n_p>",
                 basis=[_T1M1, _XA, _XAB, _XA2B],
                 degraaf=("M7", ("0", "1")),
                 iso_columns=[[0, 1, 1, 1], [0, 1, 0, -1], [0, 1, 0, 1], ["-1/2", 0, 0, 0]]),
    CatalogEntry(row_id="d4_T11_Xb_Xab_Xa2b", dim=4,
                 label="<T(1,1), X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[_T11, _XB, _XAB, _XA2B],
                 degraaf=("M13", ("0",)),
                 iso_columns=[[0, 0, 1, 0], [0, 0, 0, 1], [0, "1/2", 1, 0], ["1/2", 0, 0, 0]],
                 equivalences=(
                     ("A image <T(1,-1), X_b, X_ab, X_a2b>", "A",
                      None, (_T1M1, _XB, _XAB, _XA2B), None, None),
                 )),
    CatalogEntry(row_id="d4_T11Xb_Xa_Xab_Xa2b", dim=4,
                 label="<T(1,1)+X_beta, X_alpha, X_alpha+beta, X_alpha+2beta>",
                 basis=[(1, 1, 0, 1, 0, 0), _XA, _XAB, _XA2B],
                 degraaf=("M6", ("1/27", "-1/3")),
                 iso_columns=[[0, 54, 0, 0], [0, 18, 9, 0], [0, 6, 6, 3],
                              ["1/6", 0, 0, 0]]),
    CatalogEntry(row_id="d4_T10Xa_Xb_Xab_Xa2b", dim=4,
                 label="<T(1,0)+X_alpha, X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[(1, 0, 1, 0, 0, 0), _XB, _XAB, _XA2B],
                 degraaf=("M13", ("-1/4",)),
                 iso_columns=[[0, "-1/2", "1/2", 0], [0, 0, 0, -1], [0, -1, 0, 0],
                              ["1/2", 0, 0, 0]]),
    CatalogEntry(row_id="d4_n", dim=4, label="n (nilradical of b)",
                 basis=list(_NBASIS),
                 degraaf=("M7", ("0", "0")),
                 iso_columns=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0]]),
    # ---- Table 5 (dimensions 5 and 6) ----
    CatalogEntry(row_id="d5_t_np", dim=5, label="<t, n_p>",
                 basis=[_T10, _T01, _XA, _XAB, _XA2B],
                 sw=("s_{5,41}", ("1/2", "1/2")),
                 iso_columns=[[0, 0, 1, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, -1, 0],
                              [0, "1/2", 0, 0, 0], ["1/2", 0, 0, 0, 0]]),
    CatalogEntry(row_id="d5_t_Xb_Xab_Xa2b", dim=5,
                 label="<t, X_beta, X_alpha+beta, X_alpha+2beta>",
                 basis=[_T10, _T01, _XB, _XAB, _XA2B],
                 sw=("s_{5,44}", ()),
                 iso_columns=[[0, 0, 0, 0, 2], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                              ["1/2", "-1/2", 0, 0, 0], [0, -1, 0, 0, 0]]),
    CatalogEntry(row_id="d5_Ta1_n", dim=5, label="<T(a,1), n>",
                 basis=[_T("a", 1), _XB, _XA, _XAB, _XA2B],
                 excluded=("0", "1", "-1"),
                 sw=("s_{5,35}", ("2/(a-1)",)),
                 iso_columns=[[0, 0, 0, 0, 2], [0, 0, 0, -1, 0], [0, 0, 1, 0, 0],
                              [0, 1, 0, 0, 0], ["1/(a-1)", 0, 0, 0, 0]]),
    CatalogEntry(row_id="d5_T1m1_n", dim=5, label="<T(1,-1), n>",
                 basis=[_T1M1, _XB, _XA, _XAB, _XA2B],
                 sw=("s_{5,35}", ("-1",)),
                 iso_columns=[[0, 0, 0, 0, 2], [0, 0, 0, -1, 0], [0, 0, 1, 0, 0],
                              [0, 1, 0, 0, 0], ["1/2", 0, 0, 0, 0]]),
    CatalogEntry(row_id="d5_T11_n", dim=5, label="<T(1,1), n>",
                 basis=[_T11, _XB, _XA, _XAB, _XA2B],
                 sw=("s_{5,37}", ()),
                 iso_columns=[[0, 0, 0, 0, 2], [0, 0, 0, -1, 0], [0, 0, 1, 0, 0],
                              [0, 1, 0, 0, 0], ["1/2", 0, 0, 0, 0]]),
    CatalogEntry(row_id="d5_T10_n", dim=5, label="<T(1,0), n>",
                 basis=[_T10, _XB, _XA, _XAB, _XA2B],
                 sw=("s_{5,36}", ()),
                 iso_columns=[[0, 0, 0, 0, 2], [0, 0, 0, -1, 0], [0, 0, 1, 0, 0],
                              [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]]),
    CatalogEntry(row_id="d5_T01_n", dim=5, label="<T(0,1), n>",
                 basis=[_T01, _XB, _XA, _XAB, _XA2B],
                 sw=("s_{5,33}", ()),
                 iso_columns=[[0, 0, 0, 0, 2], [0, 0, 0, -1, 0], [0, 0, 1, 0, 0],
                              [0, 1, 0, 0, 0], [-1, 0, 0, 0, 0]]),
    CatalogEntry(row_id="d6_b", dim=6, label="b (Borel subalgebra)",
                 basis=[_T10, _T01, _XB, _XA, _XAB, _XA2B],
                 sw=("s_{6,242}", ()),
                 iso_columns=[[0, 0, 0, 0, 0, 2], [0, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0],
                              [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                              ["1/2", "1/2", 0, 0, 0, 0]]),
)


# ---------------------------------------------------------------------------
# JSON export / import
# ---------------------------------------------------------------------------

def _spec_to_json(spec) -> list:
    return [str(e) if not isinstance(e, int) else e for e in spec]


def catalog_to_json(entries: list[CatalogEntry] | None = None) -> list[dict]:
    entries = entries if entries is not None else load_catalog()
    out = []
    for e in entries:
        out.append({
            "table": e.table,
            "row": e.row_id,
            "dim": e.dim,
            "label": e.label,
            "param": e.param,
            "conditions": [str(x) for x in e.excluded],
            "basis": [_spec_to_json(s) for s in e.basis],
            "degraaf": ({"family": e.degraaf[0],
                         "params": [str(p) for p in e.degraaf[1]]}
                        if e.degraaf else None),
            "sw": ({"name": e.sw[0], "params": [str(p) for p in e.sw[1]]} if e.sw
                   else "auto" if e.degraaf else None),
            "equiv": [{
                "desc": c.desc, "recipe": c.recipe,
                "src": [_spec_to_json(s) for s in c.src] if c.src else None,
                "tgt": [_spec_to_json(s) for s in c.tgt] if c.tgt else None,
                "tgt_param": c.tgt_param,
                "samples": [str(s) for s in c.samples] if c.samples else None,
            } for c in e.equivalences],
            "isomap": ({"source": "degraaf" if e.degraaf else "sw",
                        "columns": [_spec_to_json(col) for col in e.iso_columns]}
                       if e.iso_columns else None),
            "param_equiv": [str(x) for x in e.param_equiv],
        })
    return out


def catalog_from_json(data: list[dict]) -> list[CatalogEntry]:
    """The entries `catalog_to_json` wrote; its derived keys (`table`,
    `param`, the isomap `source` and sw `"auto"`) are not read."""
    out = []
    for d in data:
        dg, sw, iso = d.get("degraaf"), d.get("sw"), d.get("isomap")
        out.append(CatalogEntry(
            row_id=d["row"], dim=d["dim"], label=d["label"], basis=d["basis"],
            excluded=d.get("conditions", ()),
            degraaf=(dg["family"], dg["params"]) if dg else None,
            sw=(sw["name"], sw["params"]) if isinstance(sw, dict) else None,
            equivalences=[EquivClaim(**c) for c in d.get("equiv", ())],
            iso_columns=iso["columns"] if iso else None,
            param_equiv=d.get("param_equiv", ())))
    return out
