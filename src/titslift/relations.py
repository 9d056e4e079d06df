"""The relation table as rows of plain letters, and ``verify``, which
checks it at both levels on ints and imports only ``records``; also the
plain word arithmetic ``eval-word`` runs: letters read and checked, folded
at a = 1 and moved to a section.

Each side of a row is folded once into its value at a = 1, a signed
permutation.  Every section's lifts are one torus conjugate of those at
a = 1 (Tits), so the group verdict is L = R there.  Ad(L) = Ad(R) exactly
when L R^-1 is central, that is +-I, so the algebra verdict is L = +-R.
A failing check keeps the two sides: their values at the section for the
group, and for the algebra the images of the generators e_k, f_k: Ad(g)
sends e_k to s_k s_{k+1} E_{sigma(k), sigma(k+1)}, f_k to the transpose.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .records import Scalar, TitsSection, canonical, frozen

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)
Letters = tuple[Letter, ...]
# (tag, i, j, left letters, right letters): one relation as plain data
RelationRow = tuple[str, int, int, Letters, Letters]


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


def relation_words(n: int) -> list[RelationRow]:
    """All relation templates for rank n, as rows of plain letters.

    Four families are emitted, tagged 2.9 (braid relations), 2.10
    (commuting squares), 2.11 (fourth power trivial) and 2.12 (square
    twisted by conjugation).  Families 2.9, 2.10 and 2.12 range over
    ordered pairs i != j; family 2.11 involves a single index and is
    emitted once per i (so rank 1 still checks S_1^4).  Rows share their
    letter tuples: the 2.9 and 2.10 sides at (j, i) are those at (i, j)
    swapped, and the right side of 2.12 is a 2.10 word or S_j^2.  The
    letters are written here, so they are not validated again.
    """
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    cox = CoxeterMatrix(n)
    s = [(k, 1) for k in range(n + 1)]  # s[k] is the letter S_k
    square = [(x, x) for x in s]
    out = [("2.11", i, i, square[i] * 2, ()) for i in range(1, n + 1)]
    sides = {}  # (i, j) with i < j -> m(i, j), the 2.9 and the 2.10 sides
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                m = cox.m(i, j)
                braid = (s[i], s[j], s[i])[:m], (s[j], s[i], s[j])[:m]
                squares = square[i] + square[j], square[j] + square[i]
                sides[i, j] = m, braid, squares
            elif i > j:
                m, braid, squares = sides[j, i]
                braid, squares = braid[::-1], squares[::-1]
            else:
                continue
            out.append(("2.9", i, j, *braid))
            out.append(("2.10", i, j, *squares))
            # S_j^2 S_i^e with e = -2 <alpha_j, h_i>: 2 when m = 3, else 0
            out.append(("2.12", i, j, (s[i], s[j], s[j], (i, -1)),
                        squares[1] if m == 3 else square[j]))
    return out


def check_letter(n: int, i: object, e: object) -> Letter:
    """The letter S_i^e of a rank-n word: i in 1..n, e = +1 or -1."""
    if type(i) is not int or type(e) is not int:
        raise ValueError(f"letter ({i!r}, {e!r}) must be two ints")
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    if e not in (1, -1):
        raise ValueError(f"exponent must be +1 or -1, got {e}")
    return i, e


def parse_letters(n: int, text: str) -> Letters:
    """The checked letters of a rank-n word written as "1 2 -1"."""
    try:
        signed = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}") from exc
    return signed_letters(n, signed)


def signed_letters(n: int, signed: list[int] | tuple[int, ...]) -> Letters:
    """The checked letters of a rank-n word given as signed indices, -k
    for S_k^-1; 0 is out of range like any index outside 1..n."""
    letters = []
    for v in signed:
        if type(v) is not int:  # a bool is not a generator index
            raise ValueError(f"letter {v!r} must be an int")
        letters.append(check_letter(n, abs(v), 1 if v > 0 else -1))
    return tuple(letters)


def letters_fold(n: int) -> Callable[[Letters], tuple[int, ...]]:
    """The map taking the letters of a rank-n word to its value at a = 1.

    The value is a signed permutation matrix, kept as one int per column:
    +-(1-based row of its nonzero entry).  The letter step is where the
    lift is written down: S_i^e swaps the 0-based columns j = i-1 and
    k = i and signs them -e and e.  Column j of x * S is column sigma_S(j)
    of x times S's j-th scale, so a letter moves two ints.  The letters
    are not checked here: they come from check_letter, from
    parse_letters or from relation_words.
    """
    identity = list(range(1, n + 2))

    def fold(letters: Letters) -> tuple[int, ...]:
        cols = identity.copy()
        for i, e in letters:
            cols[i - 1], cols[i] = -e * cols[i], e * cols[i - 1]
        return tuple(cols)
    return fold


def scales_at(s: TitsSection, value: tuple[int, ...]) -> list[Scalar]:
    """The column scales of a value at a = 1 moved to the section s.

    With t_k = a_k a_{k+1} ... a_n (t_{n+1} = 1), diag(t) S_i(1) diag(t)^-1
    is S_i(a), so every word has S_w(a) = diag(t) S_w(1) diag(t)^-1 (Tits):
    column j keeps its row sigma(j) and gets the scale
    eps_j t_{sigma(j)} / t_j.  Conjugation is a bijection, so two words
    agree at a section exactly when they agree at a = 1.
    """
    if len(value) != s.n + 1:
        raise ValueError(f"rank mismatch: section {s.n} vs {len(value) - 1}")
    t = [Fraction(1)] * (s.n + 1)  # 0-based: t[k] = a_{k+1} ... a_n
    for k in reversed(range(s.n)):
        t[k] = s.params[k] * t[k + 1]
    return [canonical((1 if x > 0 else -1) * t[abs(x) - 1] / t[j])
            for j, x in enumerate(value)]


@frozen(hidden=("left", "right"))
class RelationCheck:
    """Outcome of one relation instance: tag, indices, verdict.

    On failure, left and right hold the two sides' values: the generator
    images as (row, column, coefficient) triples, or the monomial
    decompositions at the section.  They stay None on a pass and never
    take part in equality or the JSON form.
    """

    tag: str
    i: int
    j: int
    passed: bool
    left: object = None
    right: object = None


@frozen
class RelationReport:
    """All relation checks for one rank, sorted by (tag, i, j)."""

    n: int
    relations: tuple[RelationCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(
            sorted(self.relations, key=lambda r: (r.tag, r.i, r.j))))

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.relations)

    def failures(self) -> list[RelationCheck]:
        return [r for r in self.relations if not r.passed]


_ADJOINT_TAG = {"2.9": "0.2", "2.10": "0.4", "2.11": "0.5", "2.12": "0.6"}


def _adjoint_images(value: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """e_1..e_n, then f_1..f_n, under Ad of the value at a = 1, each a
    matrix unit E_{row, column} times a coefficient, as a triple."""
    e = [(abs(x), abs(y), 1 if x * y > 0 else -1)
         for x, y in zip(value, value[1:])]
    return tuple(e + [(col, row, c) for row, col, c in e])


def verify(s: TitsSection, level: str) -> RelationReport:
    """Check every defining relation for rank s.n at one level: "group"
    for the lifts of the section s, "adjoint" for the automorphisms they
    induce (which do not depend on s), or "all" for both.

    Each row of relation_words(s.n) is folded once, side by side, and
    both levels read their verdict off the two values at a = 1.  A word
    shared by several rows is folded for each: looking its value up would
    cost about as much as the fold.
    """
    if level not in ("group", "adjoint", "all"):
        raise ValueError(f"unknown level {level!r}")
    group, adjoint = level != "adjoint", level != "group"
    fold, checks = letters_fold(s.n), []
    for tag, i, j, left_letters, right_letters in relation_words(s.n):
        left, right = fold(left_letters), fold(right_letters)
        same = left == right
        # every field by position: the record's fast path
        if group:
            if not same:  # the sides at the section, for the report
                from .tits import value_at
            checks.append(RelationCheck(
                tag, i, j, same,
                None if same else value_at(s, left),
                None if same else value_at(s, right)))
        if adjoint:
            passed = same or left == tuple([-x for x in right])
            checks.append(RelationCheck(
                _ADJOINT_TAG[tag], i, j, passed,
                None if passed else _adjoint_images(left),
                None if passed else _adjoint_images(right)))
    return RelationReport(s.n, tuple(checks))
