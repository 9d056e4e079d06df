"""Square matrices as plain rows of exact scalars, and the whole check of
a matrix file that ``normalizer-check`` runs: JSON shape, scalars,
determinant, column scan and answer.

``linalg.Matrix`` and ``tits.normalizer_decompose`` wrap the rows and
the scan.  Besides ``UsageError``, only ``records`` is imported.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction

from . import UsageError
from .records import Scalar, canonical, parse_scalar, scalar_to_str

Rows = Sequence[Sequence[Scalar]]  # a Matrix's rows, or lists read from JSON


class NotInNormalizer(ValueError):
    """The matrix is not monomial, so it does not normalize the torus."""


def rows_from_json(obj: dict) -> list[list[Scalar]]:
    """The rows of {"dim": n, "entries": [[...], ...]}, every entry read
    by records.parse_scalar; any other shape raises ValueError."""
    try:
        dim = obj["dim"]
        entries = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise ValueError("matrix JSON needs 'dim' and 'entries'") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"matrix JSON dim must be an integer, got {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in entries):
        raise ValueError("matrix JSON entries do not match dim")
    if not entries:
        raise ValueError("matrix must be square and nonempty")
    return [[parse_scalar(x) for x in row] for row in entries]


def determinant(rows: Rows) -> Scalar:
    """Exact determinant by Gaussian elimination with nonzero pivots."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prod: Scalar = 1
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        pivot = a[c][c]
        prod *= pivot
        for r in range(c + 1, n):
            if a[r][c] != 0:
                m = Fraction(a[r][c]) / pivot
                a[r] = [x - m * y for x, y in zip(a[r], a[c])]
    return canonical(sign * prod)


def monomial_columns(rows: Rows) -> tuple[list[int], list[Scalar]]:
    """(images, scales): column j's single nonzero entry scales[j-1] sits
    in row images[j-1], 1-based.  Raises NotInNormalizer when a column has
    none or several; exactly the monomial matrices normalize the torus."""
    images, scales = [], []
    for col in range(len(rows)):
        hits = [r for r, row in enumerate(rows, start=1) if row[col] != 0]
        if len(hits) != 1:
            raise NotInNormalizer(
                f"column {col + 1} has {len(hits)} nonzero entries")
        images.append(hits[0])
        scales.append(rows[hits[0] - 1][col])
    return images, scales


def normalizer_check(path: str) -> int:
    """Print the permutation and scales of the matrix at path and return
    0, or print why it is not monomial and return 1.  An unreadable file
    or a determinant other than 1 raises UsageError."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = rows_from_json(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read matrix: {exc}") from None
    if determinant(rows) != 1:
        raise UsageError("matrix does not have determinant 1")
    try:
        # one nonzero per column and determinant one: a permutation
        images, scales = monomial_columns(rows)
    except NotInNormalizer as exc:
        print(json.dumps({"in_normalizer": False, "reason": str(exc)}))
        return 1
    print(json.dumps({
        "in_normalizer": True,
        "permutation": images,
        "scales": [scalar_to_str(x) for x in scales],
        "coset": images,
    }, indent=2))
    return 0
