"""Defining relations of the small solvable Lie algebra catalogs.

Two reference catalogs are encoded as structure constants: the dimension <= 4
classification (families J, K, L, M) and the indecomposable classification up
to dimension 6 (families n_{d,k}, s_{d,k}), restricted to the classes that
actually occur here.  Conventions frozen for this library:

* K^2 is [x1,x2] = x2 (consistent with M^8 = K^2 (+) K^2 and the dimension-2
  correspondence x1 <-> e2, x2 <-> e1);
* M^6_{A,B} is [x4,x1]=x2, [x4,x2]=x3, [x4,x3]=Ax1+Bx2+x3, so that ad(x4) on
  the abelian nilradical has characteristic polynomial t^3 - t^2 - B t - A.

Direct sums are written with '+' and a multiplicity prefix: "2n_{1,1}",
"n_{1,1}+s_{3,1}".  The labels `DeGraafClass` and `SWClass` are defined in
`labels` and re-exported here.
"""

from __future__ import annotations

from itertools import combinations

from .errors import OutOfCatalog
from .labels import DeGraafClass, SWClass
from .rational import Q
from .structure import StructureConstants

__all__ = ["DeGraafClass", "SWClass", "degraaf_constants", "sw_constants",
           "direct_sum"]


def direct_sum(a: StructureConstants, b: StructureConstants) -> StructureConstants:
    """a (+) b, with a's basis first: brackets across the summands vanish."""
    brackets = {}
    for shift, sc in ((0, a), (a.dim, b)):
        for i, j in combinations(range(sc.dim), 2):
            brackets[i + shift, j + shift] = {k + shift: Q(x, sc.den)
                                              for k, x in enumerate(sc.num[i][j]) if x}
    return StructureConstants.from_brackets(a.dim + b.dim, brackets)


def degraaf_constants(family: str, params: tuple = ()) -> StructureConstants:
    B = StructureConstants.from_brackets
    if family == "J":
        return B(1, {})
    if family == "K1":
        return B(2, {})
    if family == "K2":
        return B(2, {(0, 1): {1: 1}})
    if family == "L1":
        return B(3, {})
    if family == "L2":
        return B(3, {(2, 0): {0: 1}, (2, 1): {1: 1}})
    if family == "L3":
        (A,) = params
        return B(3, {(2, 0): {1: 1}, (2, 1): {0: Q(A), 1: 1}})
    if family == "L4":
        (A,) = params
        return B(3, {(2, 0): {1: 1}, (2, 1): {0: Q(A)}})
    if family == "M2":
        return B(4, {(3, 0): {0: 1}, (3, 1): {1: 1}, (3, 2): {2: 1}})
    if family == "M6":
        A, Bp = params
        return B(4, {(3, 0): {1: 1}, (3, 1): {2: 1},
                     (3, 2): {0: Q(A), 1: Q(Bp), 2: 1}})
    if family == "M7":
        A, Bp = params
        return B(4, {(3, 0): {1: 1}, (3, 1): {2: 1},
                     (3, 2): {0: Q(A), 1: Q(Bp)}})
    if family == "M8":
        return B(4, {(0, 1): {1: 1}, (2, 3): {3: 1}})
    if family == "M12":
        return B(4, {(3, 0): {0: 1}, (3, 1): {1: 2}, (3, 2): {2: 1},
                     (2, 0): {1: 1}})
    if family == "M13":
        (A,) = params
        return B(4, {(3, 0): {0: 1, 2: Q(A)}, (3, 1): {1: 1}, (3, 2): {0: 1},
                     (2, 0): {1: 1}})
    if family == "M14":
        (A,) = params
        return B(4, {(3, 0): {2: Q(A)}, (3, 2): {0: 1}, (2, 0): {1: 1}})
    raise OutOfCatalog(f"unknown de Graaf family {family!r}")


_SW_SIMPLE = {
    "n_{1,1}": (1, {}),
    "s_{2,1}": (2, {(1, 0): {0: 1}}),
    "n_{3,1}": (3, {(1, 2): {0: 1}}),
    "n_{4,1}": (4, {(1, 3): {0: 1}, (2, 3): {1: 1}}),
    "s_{3,2}": (3, {(2, 0): {0: 1}, (2, 1): {0: 1, 1: 1}}),
    "s_{4,2}": (4, {(3, 0): {0: 1}, (3, 1): {0: 1, 1: 1}, (3, 2): {1: 1, 2: 1}}),
    "s_{4,6}": (4, {(1, 2): {0: 1}, (3, 1): {1: 1}, (3, 2): {2: -1}}),
    "s_{4,10}": (4, {(1, 2): {0: 1}, (3, 0): {0: 2}, (3, 1): {1: 1},
                     (3, 2): {1: 1, 2: 1}}),
    "s_{4,11}": (4, {(1, 2): {0: 1}, (3, 0): {0: 1}, (3, 1): {1: 1}}),
    "s_{4,12}": (4, {(2, 0): {0: 1}, (2, 1): {1: 1}, (3, 0): {1: -1},
                     (3, 1): {0: 1}}),
    "s_{5,33}": (5, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 1): {1: -1},
                     (4, 2): {2: -2}, (4, 3): {3: 1}}),
    "s_{5,36}": (5, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: 2},
                     (4, 1): {1: 1}, (4, 3): {3: 1}}),
    "s_{5,37}": (5, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: 1},
                     (4, 1): {1: 1}, (4, 2): {2: 1}}),
    "s_{5,44}": (5, {(1, 2): {0: 1}, (3, 0): {0: 1}, (3, 1): {1: 1},
                     (4, 1): {1: 1}, (4, 2): {2: -1}}),
    "s_{6,242}": (6, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: 2},
                      (4, 1): {1: 1}, (4, 3): {3: 1}, (5, 0): {0: 1},
                      (5, 1): {1: 1}, (5, 2): {2: 1}}),
}


def sw_constants(name: str, params: tuple = ()) -> StructureConstants:
    """Structure constants for an indecomposable class or a '+'-direct sum."""
    if "+" in name:
        acc = None
        for part in name.split("+"):
            c = sw_constants(part, params if part != "n_{1,1}" else ())
            acc = c if acc is None else direct_sum(acc, c)
        return acc
    digits = ""
    while name and name[0].isdigit():
        digits += name[0]
        name = name[1:]
    if digits:
        mult = int(digits)
        acc = sw_constants(name, params)
        for _ in range(mult - 1):
            acc = direct_sum(acc, sw_constants(name, params))
        return acc
    if name in _SW_SIMPLE:
        d, br = _SW_SIMPLE[name]
        return StructureConstants.from_brackets(d, br)
    B = StructureConstants.from_brackets
    if name == "s_{3,1}":
        (A,) = params
        return B(3, {(2, 0): {0: 1}, (2, 1): {1: Q(A)}})
    if name == "s_{4,3}":
        A, Bp = params
        return B(4, {(3, 0): {0: 1}, (3, 1): {1: Q(A)}, (3, 2): {2: Q(Bp)}})
    if name == "s_{4,8}":
        (A,) = params
        return B(4, {(1, 2): {0: 1}, (3, 0): {0: 1 + Q(A)}, (3, 1): {1: 1},
                     (3, 2): {2: Q(A)}})
    if name == "s_{5,35}":
        (A,) = params
        return B(5, {(1, 3): {0: 1}, (2, 3): {1: 1}, (4, 0): {0: Q(A) + 2},
                     (4, 1): {1: Q(A) + 1}, (4, 2): {2: Q(A)}, (4, 3): {3: 1}})
    if name == "s_{5,41}":
        A, Bp = params
        return B(5, {(3, 0): {0: 1}, (3, 2): {2: Q(A)}, (4, 1): {1: 1},
                     (4, 2): {2: Q(Bp)}})
    raise OutOfCatalog(f"unknown class {name!r}")
