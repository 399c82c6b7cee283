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

(`sp4.element` builds each as one matrix), so a row is plain JSON data.
Frozen row counts, established against the tables: 8 one-, 16 two-, 19
three-, 14 four- and 8 five/six-dimensional rows (65 total).

The tables are data: `catalog.json` (`CATALOG_FILE`), next to this module,
is what `export-catalog` prints unchanged, and `load_catalog()` reads it
once through `catalog_from_json`, the one codec of a row.  Loading needs
only rationals and errors (rows are `rational.Record`s); the package's lazy
lookup loads `exprs` on the first evaluation of a row's expressions,
`linalg` and `sp4` when the first instance is built (`basis_at`,
`space_at`, `build_elements`), and `identify`, which holds the labels with
both reference catalogs (and loads `linalg` and `structure`), on the first
label.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache, lru_cache
from typing import TYPE_CHECKING

from .errors import Sp4Error
from .rational import Q, Record

if TYPE_CHECKING:
    from .identify import DeGraafClass, SWClass
    from .linalg import Mat4, Subspace

__all__ = ["CatalogEntry", "EquivClaim", "load_catalog", "catalog_from_json",
           "CATALOG_FILE", "EXPECTED_COUNTS", "DEFAULT_PARAM_SAMPLES"]

# the five tables, as `export-catalog` prints them
CATALOG_FILE = os.path.join(os.path.dirname(__file__), "catalog.json")
EXPECTED_COUNTS = {1: 8, 2: 16, 3: 19, 4: 14, 5: 8}  # table 5 holds dims 5 and 6
# The values a parameterized row is checked at unless others are given; a
# row skips those it excludes.
DEFAULT_PARAM_SAMPLES = (Q(2), Q(3), Q(5), Q(-2), Q(-3), Q(1, 2), Q(2, 3), Q(7, 3))
# The largest parameter orbit a row's self-equivalences may close: the order
# of the Weyl group (the shipped rows reach at most 4).
PARAM_ORBIT_BOUND = 8
# The package loads a module on its first use (PEP 562); functions are looked
# up on the module at each call, so a wrapper installed there sees every call.
_package = sys.modules[__package__]


def _env(a) -> dict:
    """The expression environment of a row at parameter a (None: no parameter)."""
    return {} if a is None else {"a": Q(a)}


def _ev(expr, env) -> Q | int:
    """An int coefficient as it is, and an expression evaluated under env."""
    return expr if isinstance(expr, int) else _package.exprs.eval_expr(expr, env)


@lru_cache(maxsize=1024)
def _constant(expr) -> Q | int:
    """A parameter-free expression's value, kept; a fault is not kept."""
    return _ev(expr, {})


@lru_cache(maxsize=1024)
def _names_param(entry: CatalogEntry) -> bool:
    return any(isinstance(x, str) and "a" in x for spec in entry.basis for x in spec)


def build_elements(specs, env) -> list[Mat4]:
    """The sp(4) elements of basis specs under env."""
    element = _package.sp4.element
    return [element(*[_ev(e, env) for e in spec]) for spec in specs]


def _tuples(x):
    """x with every list in it, at any depth, made a tuple, so that a row
    written with lists (or read from JSON) is the same frozen value."""
    return tuple(map(_tuples, x)) if isinstance(x, (list, tuple)) else x


class _Row(Record):
    """A table record, normalized by `_tuples` and hashed once: `verify._instance` caches rows."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        for set_field, value in zip(self._setters, self._complete(args, kwargs)):
            set_field(self, _tuples(value))
        object.__setattr__(self, "_hash", hash(self._values(self)))

    def __hash__(self) -> int:
        return self._hash


class EquivClaim(_Row):
    """One claimed conjugacy, realized by an explicit conjugator recipe.

    Verified as: conjugate_subalgebra(recipe(a), span(src(a))) == span(tgt(a')).
    `src`/`tgt` default to the row's own basis; `tgt_param` maps the parameter
    (e.g. "1/a"); `samples` restricts to parameter values where the recipe is
    rational (square-root constructions from the proofs).
    """

    __slots__ = ("desc", "recipe", "src", "tgt", "tgt_param", "samples")
    _defaults = dict.fromkeys(("src", "tgt", "tgt_param", "samples"))


class CatalogEntry(_Row):
    """One table row."""

    __slots__ = ("row_id", "dim", "label", "basis", "excluded",
                 "degraaf",        # (family, (param exprs...))
                 "sw",             # (name, (param exprs...)); None: translated
                 "equivalences",
                 "iso_columns",    # presentation basis -> row-basis coords
                 "param_equiv")    # exprs generating the self-equivalences
    _defaults = {"excluded": (), "degraaf": None, "sw": None, "equivalences": (),
                 "iso_columns": None, "param_equiv": ()}

    @property
    def table(self) -> int:
        return min(self.dim, 5)

    @property
    def param(self) -> bool:
        """Whether some basis expression names the parameter a (scanned
        once per row)."""
        return _names_param(self)

    def conditions_ok(self, a) -> bool:
        """Whether a is none of the excluded values, each evaluated once; a
        faulty one raises each time it is reached."""
        a = Q(a)
        return all(a != _constant(e) for e in self.excluded)

    def samples(self, candidates=DEFAULT_PARAM_SAMPLES) -> tuple:
        """The values the row is checked at: the admissible candidates for a
        parameterized row, and (None,) for a row without parameter."""
        if not self.param:
            return (None,)
        return tuple(a for a in candidates if a is not None and self.conditions_ok(a))

    def basis_at(self, a) -> list[Mat4]:
        return build_elements(self.basis, _env(a))

    def space_at(self, a) -> Subspace:
        return _package.linalg.echelon_span(self.basis_at(a))

    def degraaf_at(self, a) -> DeGraafClass | None:
        if self.degraaf is None:
            return None
        env = _env(a)
        fam, params = self.degraaf
        return _package.identify.DeGraafClass(fam, tuple(_ev(p, env) for p in params))

    def sw_at(self, a) -> SWClass | None:
        if self.sw is None:
            return None
        env = _env(a)
        name, params = self.sw
        return _package.identify.SWClass(name, tuple(_ev(p, env) for p in params))

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
                    w = _ev(e, {"a": v})
                except ZeroDivisionError:
                    continue
                if w not in out:
                    if len(out) == PARAM_ORBIT_BOUND:
                        raise Sp4Error(f"{self.row_id}: the orbit of a under "
                                       f"{self.param_equiv} exceeds {PARAM_ORBIT_BOUND} values")
                    out.add(w)
                    frontier.append(w)
        return out


# ---------------------------------------------------------------------------
# The shipped tables
# ---------------------------------------------------------------------------

def catalog_from_json(data: list[dict]) -> list[CatalogEntry]:
    """The entries of export JSON, the row dicts `catalog.json` holds; the
    keys a row derives (`table`, `param`, the isomap `source` and sw
    `"auto"`) are written for readers and not read."""
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


@cache
def _shipped() -> tuple:
    """The rows of `catalog.json`, read once, with their counts checked."""
    with open(CATALOG_FILE, encoding="utf-8") as fh:
        rows = tuple(catalog_from_json(json.load(fh)))
    counts: dict[int, int] = {}
    for r in rows:
        counts[r.table] = counts.get(r.table, 0) + 1
    if counts != EXPECTED_COUNTS:
        raise Sp4Error(f"catalog row counts drifted: {counts} != {EXPECTED_COUNTS}")
    return rows


def load_catalog() -> list[CatalogEntry]:
    """The 65 rows of the five tables: a new list of the same entries on
    every call."""
    return list(_shipped())
