"""End-to-end certification of the classification tables, plus structure
constant identification against the reference catalogs.

Run:  python demos/04_catalog_certification.py
"""

import time

from sp4solvable import (T, X_A2B, X_AB, X_ALPHA, X_BETA, degraaf_to_sw,
                         generated_subalgebra, identify_degraaf, load_catalog,
                         match_catalog, structure_constants_for_basis,
                         tri_algebra_constants, verify_catalog)
from sp4solvable.rational import Q

entries = load_catalog()
print(f"catalog: {len(entries)} rows "
      f"(dims {sorted(set(e.dim for e in entries))})")

print("\nIdentification of structure constants (dimension <= 4):")
cases = [
    ("<T(2,1), X_a, X_ab>", [T(2, 1), X_ALPHA, X_AB]),
    ("<T(2,1), n_p>", [T(2, 1), X_ALPHA, X_AB, X_A2B]),
    ("<T(3,1), X_a+X_b, X_a2b>", [T(3, 1), X_ALPHA + X_BETA, X_A2B]),
    ("n", [X_BETA, X_ALPHA, X_AB, X_A2B]),
]
for label, basis in cases:
    dg = identify_degraaf(structure_constants_for_basis(basis))
    print(f"  {label:28s} ->  {dg}  ->  {degraaf_to_sw(dg)}")

print("\nThe <T,A,B> trichotomy ([T,A]=2A, [T,B]=rB):")
for r in (Q(6), Q(2), Q(-2)):
    print(f"  r = {r}: {identify_degraaf(tri_algebra_constants(r))}")

print("\nRandom subalgebras match back into the catalog:")
for seeds, label in [([X_ALPHA], "X_a"),
                     ([T(2, 1), X_ALPHA], "T(2,1), X_a"),
                     ([X_ALPHA, X_BETA], "X_a, X_b (generates n)")]:
    sub = generated_subalgebra(seeds)
    print(f"  <{label}> (dim {sub.dim}) -> {match_catalog(sub)}")

print("\nFull certification at the default 8-value sample set:")
t0 = time.time()
rep = verify_catalog(probe_seed=1, probe_count=25)
print(f"  {len(rep.records)} checks, overall pass: {rep.overall_pass} "
      f"({time.time() - t0:.1f}s)")
