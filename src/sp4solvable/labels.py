"""Class labels of the two reference catalogs of small solvable Lie algebras.

A `DeGraafClass` names a class of the dimension <= 4 classification (family
and parameters), an `SWClass` one of the indecomposable classification up to
dimension 6 (or a '+'-direct sum).  A label is a value: it formats itself and
compares by family and parameters.  Its bracket table, `.constants()`, is
built from the catalog tables in `identify`, loaded on that first call, so
that reading the catalog loads no table code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .rational import Q, format_rational

if TYPE_CHECKING:
    from .structure import StructureConstants

__all__ = ["DeGraafClass", "SWClass"]


@cache
def _identify():
    """`identify`, loaded on the first call and kept: an import statement
    in a method would run again on every call."""
    from . import identify
    return identify


def _fmt(p) -> str:
    """A label parameter: a rational in lowest terms, and anything else (an
    expression, an irrational value) by its own `str`."""
    return format_rational(p) if isinstance(p, (int, Q)) else str(p)


@dataclass(frozen=True)
class DeGraafClass:
    family: str
    params: tuple = ()

    def __str__(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({','.join(_fmt(p) for p in self.params)})"

    def constants(self) -> StructureConstants:
        return _identify().degraaf_constants(self.family, self.params)


@dataclass(frozen=True)
class SWClass:
    name: str
    params: tuple = ()

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{chr(65 + i)}={_fmt(p)}" for i, p in enumerate(self.params))
        return f"{self.name}({inner})"

    def constants(self) -> StructureConstants:
        return _identify().sw_constants(self.name, self.params)
