"""The trace-zero matrices as a Lie algebra.

Rank n means (n+1) x (n+1) matrices; the bracket is the commutator.  The
module keeps a fixed ordered basis (elementary off-diagonal matrices,
then differences of diagonal units) so that linear maps on the algebra
become honest coordinate matrices.
"""

from titslift.liealg import (ad_matrix, basis_indices, bracket,
                             decompose_by_cartan, dimension, generator)

n = 2
print(f"rank {n}: dimension {dimension(n)}")
print("basis:", ", ".join(str(idx) for idx in basis_indices(n)))
print()

e1 = generator(n, "e", 1)
f1 = generator(n, "f", 1)
h1 = generator(n, "h", 1)

print("e1 =", e1.to_matrix())
print("[e1, f1] =", bracket(e1, f1).to_matrix(), " (this is h1)")
assert bracket(e1, f1) == h1
print("[h1, e1] =", bracket(h1, e1).to_matrix(), " (twice e1)")
print()

# The adjoint operator of h1 is diagonal in this basis; its eigenvalues
# on basis lines are the integers shown below.
buckets = decompose_by_cartan(n, h1)
for eigenvalue in sorted(buckets, reverse=True):
    print(f"  ad(h1) eigenvalue {eigenvalue:+d}:",
          ", ".join(str(b) for b in buckets[eigenvalue]))
print()

# ad is a morphism into commutators of operators.
x = bracket(e1, generator(n, "e", 2))
lhs = ad_matrix(bracket(h1, x))
rhs = ad_matrix(h1) * ad_matrix(x) - ad_matrix(x) * ad_matrix(h1)
assert lhs == rhs
print("ad([h1, x]) == [ad h1, ad x] checked for a sample x")
