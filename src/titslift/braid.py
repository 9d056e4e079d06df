"""Words over the Artin generators S_1..S_n and their projection to the
symmetric group on n+1 letters.

Words are stored as written, never rewritten (with braid relations that
would be the word problem); equality of the group elements they denote is
checked downstream by evaluating both sides.  The relation table is
written in ``sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .records import check_rank
from .relations import check_letter, parse_letters, signed_letters
from .sweep import Letter, RelationRow, letters_fold, relation_words
from .tits import Permutation


@dataclass(frozen=True)
class BraidWord:
    """A word over S_1..S_n, stored as written."""

    n: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        check_rank(self.n)
        letters = []
        for x in self.letters:
            try:
                i, e = x
            except (TypeError, ValueError):
                raise ValueError(f"letter {x!r} must be two ints") from None
            letters.append(check_letter(self.n, i, e))
        object.__setattr__(self, "letters", tuple(letters))

    @classmethod
    def from_ints(cls, n: int, signed: list[int] | tuple[int, ...]) -> BraidWord:
        """Build from signed indices: -k means S_k inverse.

        >>> BraidWord.from_ints(2, [1, 2, -1]).letters
        ((1, 1), (2, 1), (1, -1))
        """
        return cls(n, signed_letters(n, signed))


def parse_word(n: int, text: str) -> BraidWord:
    """Parse the whitespace-separated signed-integer format, e.g. "1 2 -1"."""
    return BraidWord(n, parse_letters(n, text))


def natural_projection(w: BraidWord) -> Permutation:
    """The image of a word in the symmetric group on n+1 letters.

    Each S_i, with either exponent, maps to the adjacent transposition
    (i, i+1); letters compose left to right, matching matrix products.
    It is the row pattern of the word's value, sweep.letters_fold, with
    the signs dropped.
    """
    return Permutation(tuple(map(abs, letters_fold(w.n)(w.letters))))


def is_pure(w: BraidWord) -> bool:
    """True when the word projects to the identity permutation."""
    return natural_projection(w).is_identity()


# kept because bench/traced_cli.py wraps it by name
def relation_instances(n: int) -> list[RelationRow]:
    """The relation table, sweep.relation_words(n)."""
    return relation_words(n)
