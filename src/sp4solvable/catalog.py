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

so a row is plain JSON data.  One loop (`_num_rows`) evaluates expressions
to int pairs with the compiled evaluator of `exprs` and puts them over their
lcm, for a basis (`coord_rows`, placed at the root coordinates by
`sp4._coord_row`) and for a stated map (`iso_columns_at`): no `Fraction` and
no matrix is built.  The certifier reads those rows (`rows_at`); `basis_at`
lays them out as matrices.  A row's parameter orbit is closed under the
target parameters of its self-equivalence claims (`equivalent_params`).

The tables are data: `catalog.json` (`CATALOG_FILE`), next to this module,
is what `export-catalog` prints unchanged, and `load_catalog()` reads it
once through `catalog_from_json`, the one codec of a row.  Loading needs
only rationals and errors (rows are `rational.Record`s); the package's lazy
lookup loads `exprs` on the first read of a row's expressions,
`linalg` and `sp4` when the first instance is built (`rows_at`,
`basis_at`, `space_at`), and `identify`, which holds the labels with
both reference catalogs (and loads `linalg` and `structure`), on the first
label.
"""

from __future__ import annotations

import json
import math
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
# The bound of every per-object fact cache: as many as the certifier keeps
# row instances, every default-sample instance plus the probe's candidates.
INSTANCE_CACHE_SIZE = 1024
# The package loads a module on its first use (PEP 562); functions are looked
# up on the module at each call, so a wrapper installed there sees every call.
_package = sys.modules[__package__]


def _env(a) -> dict:
    """A row's expression environment at a (None: no parameter; else an int or a `Q`)."""
    return {} if a is None else {"a": a}


def _ev(expr, env) -> Q | int:
    """An int coefficient as it is, and an expression evaluated under env."""
    return expr if isinstance(expr, int) else _package.exprs.eval_expr(expr, env)


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _constant(expr) -> Q | int:
    """A parameter-free expression's value, kept; a fault is not kept."""
    return _ev(expr, {})


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _names_param(entry: CatalogEntry) -> bool:
    return _package.exprs.names_param(*[x for spec in entry.basis for x in spec])


def _num_rows(specs, env) -> tuple[list[list[int]], int]:
    """The expressions of specs under env as int rows over their one den."""
    compiled = _package.exprs._compiled
    pairs = [[(e, 1) if isinstance(e, int) else compiled(str(e))(env) for e in spec]
             for spec in specs]
    den = math.lcm(*[d for spec in pairs for _, d in spec])
    return [[n * (den // d) for n, d in spec] for spec in pairs], den


def coord_rows(specs, env) -> tuple[list[list[int]], int]:
    """The basis specs under env as int coordinate rows over one den."""
    rows, den = _num_rows(specs, env)
    return list(map(_package.sp4._coord_row, rows)), den


def coord_span(specs, env) -> Subspace:
    """The span of the basis specs under env, echelonized on their coordinate rows."""
    linalg = _package.linalg
    return linalg.Subspace._of(linalg.rref(coord_rows(specs, env)[0]))


def _tuples(x):
    """x with every list in it, at any depth, made a tuple (a leaf with no
    call of its own), so that a row written with lists is the same value."""
    if not isinstance(x, (list, tuple)):
        return x
    return tuple([_tuples(v) if isinstance(v, (list, tuple)) else v for v in x])


class _Row(Record):
    """A table record, normalized by `_tuples` and hashed once: `verify._instance` caches rows."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._complete(args, kwargs)
        for set_field, value in zip(self._setters, args):
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
                 "iso_columns")    # presentation basis -> row-basis coords
    _defaults = {"excluded": (), "degraaf": None, "sw": None, "equivalences": (),
                 "iso_columns": None}

    @property
    def table(self) -> int:
        return min(self.dim, 5)

    @property
    def param(self) -> bool:
        """Whether some basis expression names the parameter a (scanned
        once per row)."""
        return _names_param(self)

    def conditions_ok(self, a) -> bool:
        """Whether a (an int or a `Q`) is none of the excluded values, each
        evaluated once; a faulty one raises each time it is reached."""
        return all(a != _constant(e) for e in self.excluded)

    def samples(self, candidates=DEFAULT_PARAM_SAMPLES) -> tuple:
        """The values the row is checked at: the admissible candidates for a
        parameterized row, and (None,) for a row without parameter."""
        if not self.param:
            return (None,)
        return tuple(a for a in candidates if a is not None and self.conditions_ok(a))

    def rows_at(self, a) -> tuple[list[list[int]], int]:
        """The stated basis at a as int coordinate rows over one den (`coord_rows`)."""
        return coord_rows(self.basis, _env(a))

    def basis_at(self, a) -> list[Mat4]:
        """The stated basis at a, laid out as matrices from `rows_at`."""
        rows, den = self.rows_at(a)
        return [_package.linalg._from_coords(r, den) for r in rows]

    def space_at(self, a) -> Subspace:
        return coord_span(self.basis, _env(a))

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

    def iso_columns_at(self, a) -> tuple[list[list[int]], int] | None:
        """The stated map's columns at a as int rows over one den (`_num_rows`)."""
        return None if self.iso_columns is None else _num_rows(self.iso_columns, _env(a))

    def equivalent_params(self, a) -> set:
        """Closure of a (an int or a `Q`, kept as given) under the target
        parameters of the row's self-equivalence claims, those stating no
        `src`, `tgt` or `samples`; a map adds nothing where it has no value,
        and an orbit larger than PARAM_ORBIT_BOUND raises Sp4Error."""
        maps = tuple(c.tgt_param for c in self.equivalences if c.tgt_param is not None
                     and c.src is None and c.tgt is None and c.samples is None)
        out, frontier = {a}, [a]
        while frontier:
            v = frontier.pop()
            for e in maps:
                try:
                    w = _ev(e, {"a": v})
                except ZeroDivisionError:
                    continue
                if w not in out:
                    if len(out) == PARAM_ORBIT_BOUND:
                        raise Sp4Error(f"{self.row_id}: the orbit of a under "
                                       f"{maps} exceeds {PARAM_ORBIT_BOUND} values")
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
        out.append(CatalogEntry(  # the fields by position, in `__slots__` order
            d["row"], d["dim"], d["label"], d["basis"], d.get("conditions", ()),
            (dg["family"], dg["params"]) if dg else None,
            (sw["name"], sw["params"]) if isinstance(sw, dict) else None,
            [EquivClaim(**c) for c in d.get("equiv", ())], iso["columns"] if iso else None))
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
