"""The plain word arithmetic ``eval-word`` runs: letters read and
checked, folded at a = 1 and moved to a section.

The relation verdicts are ``sweep.verdict_rows``; ``braid`` and ``tits``
build their words and section values on the letters and scales here.
"""

from fractions import Fraction

from . import UsageError
from .records import (INT_TEXT, Scalar, TitsSection, canonical,
                      parse_section, scalar_to_str)
from .sweep import Letter, Letters, letters_fold


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
