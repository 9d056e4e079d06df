"""Words in braid generators and their shadow in the symmetric group.

A word is a sequence of signed generator indices, stored as letters
(i, e) for S_i^e.  The projection forgets signs and multiplies out
adjacent transpositions.  A word is called pure when that projection is
the identity permutation.
"""

from titslift.braid import is_pure, natural_projection, parse_word
from titslift.sweep import relation_words

n = 3
w = parse_word(n, "1 2 -1 3 1 -1")
print("letters:", w.letters)
print("projection to permutations:", natural_projection(w).images)
print("pure?", is_pure(w))
print()

conj = parse_word(n, "1 -1")
print("'1 -1' is pure:", is_pure(conj))
print("'1 1' is pure:", is_pure(parse_word(n, "1 1")),
      " (squares vanish in the symmetric group)")
print()

# The generated relation table drives the verification commands; each
# row is a pair of words that must evaluate to the same matrix.
print("relation table for rank 2:")
for tag, i, j, left, right in relation_words(2):
    print(f"  [{tag}] i={i} j={j}:  {left or '(empty)'}  ==  "
          f"{right or '(empty)'}")
