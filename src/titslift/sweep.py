"""The relation sweep on plain ints: the relation table as rows of
letters, the fold of a word into its value at a = 1, and the verdict rows
of one level.  It imports nothing, so ``verify`` compiles only this
module, ``cli`` and the package's ``__init__``.

Every section's lifts are one torus conjugate of those at a = 1 (Tits),
so the group verdict is L = R there.  Ad(L) = Ad(R) exactly when L R^-1
is central, that is +-I, so the algebra verdict is L = +-R.
"""

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)
Letters = tuple[Letter, ...]
# (tag, i, j, left letters, right letters): one relation as plain data
RelationRow = tuple[str, int, int, Letters, Letters]

ADJOINT_TAG = {"2.9": "0.2", "2.10": "0.4", "2.11": "0.5", "2.12": "0.6"}


def coxeter_entry(i: int, j: int) -> int:
    """The Coxeter entry m(i, j) of type A_n: 1, 3 if adjacent, else 2."""
    return 1 if i == j else 3 if abs(i - j) == 1 else 2


def relation_words(n: int) -> list[RelationRow]:
    """All relation templates for rank n, as rows of plain letters.

    Four families are emitted, tagged 2.9 (braid relations), 2.10
    (commuting squares), 2.11 (fourth power trivial) and 2.12 (square
    twisted by conjugation).  Families 2.9, 2.10 and 2.12 range over
    ordered pairs i != j; family 2.11 involves a single index and is
    emitted once per i (so rank 1 still checks S_1^4).  The letters are
    written here, so they are not validated again.
    """
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    s = [(k, 1) for k in range(n + 1)]  # s[k] is the letter S_k
    square = [(x, x) for x in s]
    out = [("2.11", i, i, square[i] * 2, ()) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            m = coxeter_entry(i, j)
            out.append(("2.9", i, j, (s[i], s[j], s[i])[:m],
                        (s[j], s[i], s[j])[:m]))
            squares = square[i] + square[j], square[j] + square[i]
            out.append(("2.10", i, j, *squares))
            # S_j^2 S_i^e with e = -2 <alpha_j, h_i>: 2 when m = 3, else 0
            out.append(("2.12", i, j, (s[i], s[j], s[j], (i, -1)),
                        squares[1] if m == 3 else square[j]))
    return out


def letters_fold(n: int):
    """The map taking the letters of a rank-n word to its value at a = 1.

    The value is a signed permutation matrix, kept as one int per column:
    +-(1-based row of its nonzero entry).  The letter step is where the
    lift is written down: S_i^e swaps the 0-based columns j = i-1 and
    k = i and signs them -e and e.  Column j of x * S is column sigma_S(j)
    of x times S's j-th scale, so a letter moves two ints.  The letters
    are not checked here: they come from relations.check_letter, from
    relations.parse_letters or from relation_words.
    """
    identity = list(range(1, n + 2))

    def fold(letters: Letters) -> tuple[int, ...]:
        cols = identity.copy()
        for i, e in letters:
            cols[i - 1], cols[i] = -e * cols[i], e * cols[i - 1]
        return tuple(cols)
    return fold


def verdict_rows(n: int, level: str) -> list[tuple]:
    """The verdicts of rank n at one level, "group", "adjoint" or "all",
    sorted: (tag, i, j, True) for a pass, (tag, i, j, False, left, right)
    with the two sides' values at a = 1 for a failure.

    Each row of relation_words(n) is folded once, side by side, and both
    levels read their verdict off the two values.  A word shared by
    several rows is folded for each: looking its value up would cost
    about as much as the fold.
    """
    if level not in ("group", "adjoint", "all"):
        raise ValueError(f"unknown level {level!r}")
    group, adjoint = level != "adjoint", level != "group"
    fold, out = letters_fold(n), []
    for tag, i, j, left, right in relation_words(n):
        left, right = fold(left), fold(right)
        same = left == right
        if group:
            out.append((tag, i, j, True) if same else
                       (tag, i, j, False, left, right))
        if adjoint:
            passed = same or left == tuple([-x for x in right])
            out.append((ADJOINT_TAG[tag], i, j, True) if passed else
                       (ADJOINT_TAG[tag], i, j, False, left, right))
    # no single emission order serves both levels: "2.9" sorts last among
    # the group tags, "0.2" first among the algebra tags
    out.sort()
    return out
