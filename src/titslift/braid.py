"""Words over the Artin generators S_1..S_n and their projection to the
symmetric group on n+1 letters.

Words are never rewritten with braid relations (that would be the word
problem); equality of the group elements they denote is checked downstream
by evaluating both sides as matrices.  The only rewriting here is free
reduction, the cancellation of adjacent S_i S_i^{-1} pairs.
"""

from __future__ import annotations

from .records import frozen
from .roots import Permutation, simple_root, pairing

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)


@frozen
class BraidWord:
    """A word over S_1..S_n, stored literally (not freely reduced)."""

    n: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"rank must be at least 1, got {self.n}")
        letters = []
        for x in self.letters:
            try:
                i, e = x
            except (TypeError, ValueError):
                raise ValueError(f"letter {x!r} must be two ints") from None
            if type(i) is not int or type(e) is not int:
                raise ValueError(f"letter ({i!r}, {e!r}) must be two ints")
            if not 1 <= i <= self.n:
                raise ValueError(f"generator index {i} out of range 1..{self.n}")
            if e not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {e}")
            letters.append((i, e))
        object.__setattr__(self, "letters", tuple(letters))

    @classmethod
    def empty(cls, n: int) -> BraidWord:
        return cls(n, ())

    @classmethod
    def from_ints(cls, n: int, signed: list[int] | tuple[int, ...]) -> BraidWord:
        """Build from signed indices: -k means S_k inverse.

        >>> BraidWord.from_ints(2, [1, 2, -1]).letters
        ((1, 1), (2, 1), (1, -1))
        """
        letters = []
        for v in signed:
            if type(v) is not int:  # a bool is not a generator index
                raise ValueError(f"letter {v!r} must be an int")
            if v == 0:
                raise ValueError("0 is not a generator index")
            letters.append((abs(v), 1 if v > 0 else -1))
        return cls(n, tuple(letters))

    def to_ints(self) -> tuple[int, ...]:
        return tuple(i * e for i, e in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def free_reduce(self) -> BraidWord:
        """Cancel adjacent inverse pairs until none remain."""
        stack: list[Letter] = []
        for letter in self.letters:
            if stack and stack[-1][0] == letter[0] and \
                    stack[-1][1] == -letter[1]:
                stack.pop()
            else:
                stack.append(letter)
        return BraidWord(self.n, tuple(stack))

    def __str__(self) -> str:
        return word_to_text(self)


def parse_word(n: int, text: str) -> BraidWord:
    """Parse the whitespace-separated signed-integer format, e.g. "1 2 -1"."""
    try:
        signed = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}") from exc
    return BraidWord.from_ints(n, signed)


def word_to_text(w: BraidWord) -> str:
    return " ".join(str(v) for v in w.to_ints())


def natural_projection(w: BraidWord) -> Permutation:
    """The image of a word in the symmetric group on n+1 letters.

    Each S_i, with either exponent, maps to the adjacent transposition
    (i, i+1); letters compose left to right, matching matrix products.
    """
    images = list(range(1, w.n + 2))
    for i, _ in w.letters:
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def is_pure(w: BraidWord) -> bool:
    """True when the word projects to the identity permutation."""
    return natural_projection(w).is_identity()


@frozen
class CoxeterMatrix:
    """Pair orders for type A_n: m(i,i) = 1, adjacent 3, distant 2."""

    n: int

    def m(self, i: int, j: int) -> int:
        for k in (i, j):
            if not 1 <= k <= self.n:
                raise ValueError(f"index {k} out of range 1..{self.n}")
        if i == j:
            return 1
        return 3 if abs(i - j) == 1 else 2


@frozen
class RelationInstance:
    """One relation template: assert left and right evaluate equally."""

    tag: str
    i: int
    j: int
    left: BraidWord
    right: BraidWord


def relation_instances(n: int) -> list[RelationInstance]:
    """All relation templates for rank n, as pairs of braid words.

    Four families are emitted, tagged 2.9 (braid relations), 2.10
    (commuting squares), 2.11 (fourth power trivial) and 2.12 (square
    twisted by conjugation).  Families 2.9, 2.10 and 2.12 range over
    ordered pairs i != j; family 2.11 involves a single index and is
    emitted once per i (so rank 1 still checks S_1^4).  Instances share
    their words: the 2.9 and 2.10 sides at (j, i) are those at (i, j)
    swapped, and the right side of 2.12 is a 2.10 word or S_j^2.
    """
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    cox = CoxeterMatrix(n)
    alpha = {j: simple_root(n, j) for j in range(1, n + 1)}
    words: dict[tuple[int, ...], BraidWord] = {}

    def word(*signed: int) -> BraidWord:
        if signed not in words:
            words[signed] = BraidWord.from_ints(n, signed)
        return words[signed]

    out = [RelationInstance("2.11", i, i, word(i, i, i, i), word())
           for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            m = cox.m(i, j)
            out.append(RelationInstance(
                "2.9", i, j, word(*(i, j, i)[:m]), word(*(j, i, j)[:m])))
            out.append(RelationInstance(
                "2.10", i, j, word(i, i, j, j), word(j, j, i, i)))
            # exponent -2 * <alpha_j, h_i>: 2 for adjacent i, j, else 0
            e = -2 * pairing(alpha[j], i)
            sign = 1 if e >= 0 else -1
            out.append(RelationInstance(
                "2.12", i, j, word(i, j, j, -i),
                word(j, j, *[sign * i] * abs(e))))
    return out
