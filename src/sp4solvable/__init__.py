"""Exact-arithmetic certification of the solvable subalgebra classification
of the rank-2 symplectic Lie algebra sp(4).

The library constructs sp(4) over the rationals, computes the conjugacy
invariants used in the classification of its solvable subalgebras, and
machine-checks the full catalog: every representative family, every claimed
conjugacy (via explicit symplectic conjugators), every claimed inequivalence
(via invariant signatures), and every isomorphism onto the reference
presentations of small solvable Lie algebras.
"""

from .rational import Q, format_rational, parse_rational
from .linalg import (Mat4, Poly, Subspace, char_poly, echelon_span, inverse,
                     kernel, rank, rational_roots)
from .sp4 import (A_MAT, AJ_MAT, DEFAULT_PARAM_SAMPLES, J_FORM, T, W_MAT,
                  X_A2B, X_AB, X_ALPHA, X_BETA, DiagonalElement, bracket,
                  conjugate, conjugate_subalgebra, in_sp4, in_sp4_group,
                  parse_conjugator, shear, standard_subalgebra, weyl_orbit)
from .structure import (StructureConstants, Subalgebra, derived_series,
                        generated_subalgebra, is_abelian, is_closed,
                        is_nilpotent, is_solvable, structure_constants,
                        structure_constants_for_basis)
from .jordan import (JordanDecomposition, OrbitLabel, classify_element,
                     conjugate_ss_into_cartan, is_nilpotent_mat,
                     is_semisimple, jordan_decompose, jordan_type)
from .invariants import (InvariantSignature, nilpotent_subspace,
                         pencil_rank_strata, signature)
from .presentations import DeGraafClass, SWClass, degraaf_constants, sw_constants
from .identify import (degraaf_to_sw, identify_degraaf, sw_bridge_map,
                       sw_lambda, tri_algebra_constants, verify_isomorphism)
from .catalog import CatalogEntry, catalog_from_json, catalog_to_json, load_catalog
from .verify import (VerificationReport, match_catalog,
                     random_subalgebra_probe, verify_catalog, verify_entry,
                     verify_separations)

__version__ = "0.1.0"
