"""Roots, reflections, and the symmetric group.

Roots live as integer vectors e_i - e_j.  Reflecting in the root e_i - e_j
is the same thing as swapping coordinates i and j, and the script checks
that equivalence on the whole root inventory.
"""

from titslift.roots import (all_roots, pairing, reflect, root, simple_root,
                            weyl_action)
from titslift.tits import Permutation

n = 3
roots = all_roots(n)
print(f"rank {n}: {len(roots)} roots")
print("simple roots:", ", ".join(str(simple_root(n, i).eps)
                                 for i in range(1, n + 1)))
print()

# Integer pairings drive every sign that appears later in the relation
# with the twisted exponent, so the table deserves a look.
print("pairing(alpha_j, coroot i):")
for i in range(1, n + 1):
    row = [pairing(simple_root(n, j), i) for j in range(1, n + 1)]
    print(f"  i={i}:", row)
print()

alpha = root(n, 1, 2)
beta = root(n, 2, 3)
print(f"reflect {beta.eps} in {alpha.eps} ->", reflect(alpha, beta).eps)

swap = Permutation.transposition(n + 1, 1, 2)
same = all(reflect(alpha, b) == weyl_action(swap, b) for b in roots)
print("reflection in e1-e2 equals the coordinate swap (1 2):", same)
