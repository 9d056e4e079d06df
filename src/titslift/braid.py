"""Words over the Artin generators S_1..S_n and their projection to the
symmetric group on n+1 letters.

Words are never rewritten with braid relations (that would be the word
problem); equality of the group elements they denote is checked downstream
by evaluating both sides as matrices.  The only rewriting here is free
reduction, the cancellation of adjacent S_i S_i^{-1} pairs.  The relation
table is written in ``sweep``; ``relation_instances`` views it here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relations import check_letter, parse_letters, signed_letters
from .sweep import Letter, Letters, relation_words
from .tits import Permutation


@dataclass(frozen=True)
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
            letters.append(check_letter(self.n, i, e))
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
        return cls(n, signed_letters(n, signed))

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


def parse_word(n: int, text: str) -> BraidWord:
    """Parse the whitespace-separated signed-integer format, e.g. "1 2 -1"."""
    return BraidWord(n, parse_letters(n, text))


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


@dataclass(frozen=True)
class RelationInstance:
    """One relation template: assert left and right evaluate equally."""

    tag: str
    i: int
    j: int
    left: BraidWord
    right: BraidWord


def relation_instances(n: int) -> list[RelationInstance]:
    """The rows of relation_words(n) as records of braid words.

    The rows share their letter tuples, so each tuple object becomes one
    BraidWord, shared by every instance that uses it.
    """
    words: dict[int, BraidWord] = {}  # id of a letter tuple -> its word

    def word(letters: Letters) -> BraidWord:
        w = words.get(id(letters))
        if w is None:
            w = words[id(letters)] = BraidWord(n, letters)
        return w

    return [RelationInstance(tag, i, j, word(left), word(right))
            for tag, i, j, left, right in relation_words(n)]
