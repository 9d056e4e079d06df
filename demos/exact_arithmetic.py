"""A tour of the exact matrix layer.

Every entry is an integer or a Fraction and every operation is exact, so
a determinant of 1 means exactly 1, not 0.9999999999999998.
"""

from fractions import Fraction

from titslift.linalg import Matrix, exp_nilpotent

m = Matrix([[1, Fraction(1, 2)], [Fraction(1, 3), 1]])
print("m =", m)
print("det(m) =", m.det())
print("m^-1 =", m.inv())
print("m * m^-1 =", m * m.inv())
print()

# The inverse is exact, so round trips are identities, not approximations.
assert m * m.inv() == Matrix.identity(2)

# Nilpotent matrices have polynomial exponentials; the series stops on
# its own once a power vanishes.
x = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
print("x =", x)
print("exp(x) =", exp_nilpotent(x))
print("exp(x) * exp(-x) =", exp_nilpotent(x) * exp_nilpotent(-x))
assert exp_nilpotent(x) * exp_nilpotent(-x) == Matrix.identity(3)
print()
print("all identities exact, no epsilon anywhere")
