"""Monomial matrices, the torus, and parametrized lifts.

A matrix with exactly one nonzero entry per row and column normalizes the
diagonal torus; splitting off the underlying permutation is what makes
word evaluation compatible with the symmetric group.  Lifts of braid
generators depend on one nonzero parameter each, and two parameter
choices are conjugate by a diagonal matrix whenever a certain rational
root exists; both directions are shown below.
"""

from fractions import Fraction

from titslift.braid import parse_word
from titslift.records import TitsSection
from titslift.tits import (NoExactWitness, conjugation_witness, coset_class,
                           evaluate_word, normalizer_decompose,
                           sigma_generator)

n = 2
s = TitsSection(n, (Fraction(2, 3), 5))
print("section parameters:", s.params)
g1 = sigma_generator(s, 1)
print("lift of generator 1:")
print(" ", g1.m)
print("its square:", (g1 * g1).m, " (diagonal, order four)")
print()

g = evaluate_word(s, parse_word(n, "1 2 1"))
dec = normalizer_decompose(g)
print("word '1 2 1' evaluates to:")
print(" ", g.m)
print("permutation part:", dec.sigma.images, " scales:", dec.scales)
print("coset class:", coset_class(g).images)
assert dec.reconstruct().m == g.m
print()

# Two sections are conjugate by a torus element when the required root
# is rational; otherwise the witness constructor says so instead of
# returning an approximation.
a = TitsSection(1, (1,))
b = TitsSection(1, (4,))
t = conjugation_witness(a, b)
print("witness conjugating the a=4 lift to the a=1 lift:",
      t.m.diagonal_entries())
try:
    conjugation_witness(a, TitsSection(1, (2,)))
except NoExactWitness as exc:
    print("a=2 needs sqrt(2), so:", exc)
