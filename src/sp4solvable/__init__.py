"""Exact-arithmetic certification of the solvable subalgebra classification
of the rank-2 symplectic Lie algebra sp(4).

The library constructs sp(4) over the rationals, computes the conjugacy
invariants used in the classification of its solvable subalgebras, and
machine-checks the full catalog: every representative family, every claimed
conjugacy (via explicit symplectic conjugators), every claimed inequivalence
(via invariant signatures), and every isomorphism onto the reference
presentations of small solvable Lie algebras.

What loads when: ``import sp4solvable`` runs no submodule.  Each name in
`__all__` is looked up in its defining module on every access, and that
module (with what it imports) is loaded the first time one of its names is
used (PEP 562).  So ``sp4solvable.load_catalog()`` loads only rational,
errors and catalog, which reads the five tables as data.  The first row
evaluated adds exprs, the first instance built (``entry.basis_at(a)``) adds
linalg and sp4, and the first label adds identify, which holds the labels
with the reference presentations, and structure; ``classify_element`` adds
linalg, sp4 and jordan, and ``verify_catalog`` loads the rest.  The
command-line front end (`sp4solvable.cli`) imports every module up front.
Nothing is cached in the package namespace, so a binding patched in its
defining module is what ``sp4solvable.<name>`` returns.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "rational": ("Q", "format_rational", "parse_rational"),
    "errors": (),
    "exprs": (),
    "linalg": ("Mat4", "Poly", "Subspace", "char_poly", "echelon_span", "inverse",
               "kernel", "rank", "rational_roots"),
    "sp4": ("A_MAT", "AJ_MAT", "J_FORM", "T", "W_MAT", "X_A2B", "X_AB", "X_ALPHA",
            "X_BETA", "DiagonalElement", "bracket", "conjugate", "conjugate_subalgebra",
            "in_sp4", "in_sp4_group", "parse_conjugator", "shear",
            "standard_subalgebra", "weyl_orbit"),
    "structure": ("StructureConstants", "Subalgebra", "derived_series",
                  "generated_subalgebra", "is_abelian", "is_closed", "is_nilpotent",
                  "is_solvable", "structure_constants", "structure_constants_for_basis"),
    "jordan": ("JordanDecomposition", "OrbitLabel", "classify_element",
               "conjugate_ss_into_cartan", "jordan_decompose", "jordan_type"),
    "invariants": ("InvariantSignature", "nilpotent_subspace", "pencil_rank_strata",
                   "signature"),
    "identify": ("DeGraafClass", "SWClass", "degraaf_constants", "degraaf_to_sw",
                 "identify_degraaf", "sw_bridge_map", "sw_constants", "sw_lambda",
                 "tri_algebra_constants", "verify_isomorphism"),
    "catalog": ("CatalogEntry", "DEFAULT_PARAM_SAMPLES", "catalog_from_json",
                "load_catalog"),
    "verify": ("VerificationReport", "match_catalog", "random_subalgebra_probe",
               "verify_catalog", "verify_entry", "verify_separations"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

# export -> full name of its defining module
_OWNER = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
          for name in names}


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is not None:
        return getattr(sys.modules.get(owner) or import_module(owner), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
