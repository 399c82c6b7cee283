"""One-dimensional conjugacy classes: Jordan decomposition, element
classification and the constructive reduction of semisimple elements into
the diagonal Cartan subalgebra.

Run:  python demos/02_one_dimensional_classes.py
"""

import json
import random

from sp4solvable import (Mat4, T, X_A2B, X_ALPHA, X_BETA, classify_element,
                         conjugate, conjugate_ss_into_cartan, inverse,
                         jordan_decompose, jordan_type, parse_conjugator)
from sp4solvable.rational import Q

print("Jordan-Chevalley decomposition (exact, in closed form):")
x = T(1, 0) + X_ALPHA
d = jordan_decompose(x)
print(f"  T(1,0)+X_a  ->  S = T(1,0): {d.semisimple == T(1, 0)}, "
      f"N = X_a: {d.nilpotent == X_ALPHA}")

print("\nThe three nonzero nilpotent orbits, by Jordan block sizes:")
for name, rep in [("X_alpha", X_ALPHA), ("X_beta", X_BETA),
                  ("X_alpha + X_beta", X_ALPHA + X_BETA)]:
    blocks = jordan_type(rep)[Q(0)]
    print(f"  {name:18s} blocks {blocks}  ->  {classify_element(rep).row}")

print("\nclassify_element is conjugation invariant:")
rng = random.Random(1)
g = parse_conjugator("W shear:beta:2 A shear:alpha:-1/2")
x = T(2, 3) + X_A2B * 0
print(f"  T(2,3): {json.dumps(classify_element(x).to_json())}")
y = g * x * inverse(g)
print(f"  its conjugate: {json.dumps(classify_element(y).to_json())}")

print("\nX_{alpha+2beta} lies in the X_alpha orbit:")
print(f"  {json.dumps(classify_element(X_A2B).to_json())}")

print("\nScaling a mixed element keeps its row, scales the parameter:")
print(f"  5*(T(1,1)+X_b): {json.dumps(classify_element((T(1, 1) + X_BETA) * 5).to_json())}")

print("\nCartan reduction: shears clear the root components of a semisimple"
      " Borel element:")
x = T(2, 1) + X_ALPHA * 3
g, (a, b) = conjugate_ss_into_cartan(x)
print(f"  g (T(2,1)+3X_a) g^-1 == T(2,1): {conjugate(g, x) == T(a, b)}")
g, (a, b) = conjugate_ss_into_cartan(T(1, 0) + X_BETA)
print(f"  multi-root sweep lands on the t-part: {(a, b) == (1, 0)}")
