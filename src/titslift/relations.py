"""The record layer over the sweep, and the plain word arithmetic
``eval-word`` runs: letters read and checked, folded at a = 1 and moved
to a section.

``verify`` builds its records from ``sweep.verdict_rows``, the rows the
CLI writes, so there is one sweep.  A failing check keeps the two sides:
their values at the section for the group, and for the algebra the images
of the generators e_k, f_k.
"""

from fractions import Fraction

from . import UsageError
from .records import (INT_TEXT, Scalar, TitsSection, canonical, frozen,
                      parse_section, scalar_to_str)
from .sweep import (ADJOINT_TAG, Letter, Letters, coxeter_entry, letters_fold,
                    verdict_rows)


@frozen
class CoxeterMatrix:
    """Pair orders for type A_n: m(i,i) = 1, adjacent 3, distant 2."""

    n: int

    def m(self, i: int, j: int) -> int:
        for k in (i, j):
            if not 1 <= k <= self.n:
                raise ValueError(f"index {k} out of range 1..{self.n}")
        return coxeter_entry(i, j)


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
    """The checked letters of a rank-n word written as "1 2 -1": each
    token an ASCII integer, records.INT_TEXT."""
    tokens = text.split()
    if not all(INT_TEXT.fullmatch(tok) for tok in tokens):
        raise ValueError(f"cannot parse word {text!r}")
    return signed_letters(n, [int(tok) for tok in tokens])


def signed_letters(n: int, signed: list[int] | tuple[int, ...]) -> Letters:
    """The checked letters of a rank-n word given as signed indices, -k
    for S_k^-1; 0 is out of range like any index outside 1..n."""
    letters = []
    for v in signed:
        if type(v) is not int:  # a bool is not a generator index
            raise ValueError(f"letter {v!r} must be an int")
        letters.append(check_letter(n, abs(v), 1 if v > 0 else -1))
    return tuple(letters)


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


def eval_word(n: int, word: str, params: str | None) -> int:
    """The eval-word subcommand: print the value of a rank-n word at the
    section params as JSON and return 0; bad input raises UsageError."""
    import json
    try:
        section = parse_section(n, params)
        letters = parse_letters(n, word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    value = letters_fold(n)(letters)
    # the value at a = 1 moved to the section: column j holds scales[j]
    # in row images[j], and the images are the word's projection
    images = [abs(x) for x in value]
    try:
        scales = [scalar_to_str(x) for x in scales_at(section, value)]
    except ValueError as exc:
        # a scale longer than Python's int-to-str limit (4300 digits)
        raise UsageError(f"result too large to print: {exc}") from None
    entries = [["0"] * (n + 1) for _ in images]
    for col, (row, x) in enumerate(zip(images, scales)):
        entries[row - 1][col] = x
    print(json.dumps({
        "n": n,
        "word": word.strip(),
        "matrix": {"dim": n + 1, "entries": entries},
        "permutation": images,
        "scales": scales,
        "projection": images,
        "pure": images == sorted(images),
    }, indent=2))
    return 0


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

    The verdicts are sweep.verdict_rows(s.n, level); a failure's two
    sides are moved to the section s, or to the generator images.
    """
    checks = []
    for tag, i, j, passed, *sides in verdict_rows(s.n, level):
        if not sides:
            sides = None, None
        elif tag in ADJOINT_TAG:  # a group tag: the sides at the section
            from .tits import value_at
            sides = [value_at(s, v) for v in sides]
        else:
            sides = [_adjoint_images(v) for v in sides]
        # every field by position: the record's fast path
        checks.append(RelationCheck(tag, i, j, passed, *sides))
    return RelationReport(s.n, tuple(checks))
