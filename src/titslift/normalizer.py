"""The ``normalizer-check`` subcommand, on plain rows: whether the matrix
in a JSON file normalizes the diagonal torus.  It sits beside ``rows``,
which ``linalg`` and ``tits`` also wrap, so ``verify`` compiles neither.
"""

import json

from . import UsageError
from .records import scalar_to_str
from .rows import NotInNormalizer, determinant, monomial_columns, rows_from_json


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
