"""The conjugacy invariants behind the inequivalence proofs: pencil rank
stratification of nilpotent planes, and the fields of the signature that
separate the classes.

Run:  python demos/03_invariants_and_separations.py
"""

from sp4solvable import (Subalgebra, T, X_A2B, X_AB, X_ALPHA, X_BETA,
                         conjugate_subalgebra, parse_conjugator,
                         pencil_rank_strata, signature)


def alg(*mats):
    return Subalgebra.from_matrices(list(mats))


print("Rank stratification of nilpotent pencils t*n1 + n2:")
for label, n1, n2 in [("<X_a, X_a2b>", X_ALPHA, X_A2B),
                      ("<X_a, X_ab>", X_ALPHA, X_AB),
                      ("<X_ab, X_a2b>", X_AB, X_A2B)]:
    s = pencil_rank_strata(n1, n2)
    print(f"  {label:16s} generic rank {s.generic_rank}, "
          f"rank-1 lines: {s.drop_line_count(1)}   summary {s.summary()}")
print("  (two rank-1 lines vs one: the two nilpotent planes are inequivalent)")

print("\nThe derived series separates <T(1,0),X_a> from <T(0,1),X_a>:")
s1 = signature(alg(T(1, 0), X_ALPHA))
s2 = signature(alg(T(0, 1), X_ALPHA))
print(f"  derived dims: {s1.derived_dims} vs {s2.derived_dims}; "
      f"differing fields: {s1.differing_fields(s2)}")

print("\nThe probe separates the two mixed-generator planes: the constant term")
print("of x0's char poly, det(x0), is nonzero on one and ('z', 4) on the other:")
s1 = signature(alg(T(1, 1) + X_BETA, X_A2B))
s2 = signature(alg(T(1, 0) + X_ALPHA, X_A2B))
print(f"  differing fields: {s1.differing_fields(s2)}")
print(f"  x0 sections: {s1.to_json()['probe'][3:7]}")
print(f"           vs {s2.to_json()['probe'][3:7]}")

print("\nParameter families: a = 2 and a = 1/2 are conjugate for "
      "<T(a,1), X_a, X_a2b>, a = 3 is not:")
s2a = signature(alg(T(2, 1), X_ALPHA, X_A2B))
half = signature(alg(T("1/2", 1), X_ALPHA, X_A2B))
s3a = signature(alg(T(3, 1), X_ALPHA, X_A2B))
print(f"  sig(a=2) == sig(a=1/2): {s2a == half}")
print(f"  sig(a=2) == sig(a=3):   {s2a == s3a}")

print("\nSignatures are invariant under symplectic conjugation:")
g = parse_conjugator("W A shear:alpha_plus_beta:5 diag:2,3,1/2,1/3")
row = alg(T(2, 1), X_BETA, X_AB, X_A2B)
img = Subalgebra(conjugate_subalgebra(g, row.space))
print(f"  signature preserved: {signature(row) == signature(img)}")
