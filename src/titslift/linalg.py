"""Exact dense linear algebra over the rationals.

Matrices are immutable and square.  Entries are scalars in the canonical
form of ``records.canonical`` (a Fraction with denominator 1 collapses to
an int), so equality of matrices is plain structural equality and hashing
is consistent.  Every operation here is exact; nothing in this package
ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

# the scalars live in records, which every subcommand loads
from .records import Scalar, canonical, scalar_to_str
from .rows import determinant, rows_from_json


class SingularMatrixError(ZeroDivisionError):
    """Inversion was attempted on a matrix with determinant zero."""


class NotNilpotentError(ValueError):
    """exp_nilpotent was handed a matrix with no vanishing power."""


class Matrix:
    """An immutable square matrix with exact rational entries.

    The class is generic over any exact characteristic-zero field in the
    duck-typed sense (entries only need +, -, * and exact /); the shipped
    and tested instance is the rationals.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(canonical(x) for x in row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and nonempty")
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, dim: int) -> Matrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim))
                         for i in range(dim)))

    @classmethod
    def diagonal(cls, entries: Iterable[Scalar]) -> Matrix:
        entries = tuple(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0
                               for j in range(len(entries)))
                         for i in range(len(entries))))

    @classmethod
    def unit(cls, dim: int, i: int, j: int) -> Matrix:
        """The matrix with a single 1 in row i, column j (1-based)."""
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"unit position ({i}, {j}) out of range for dim {dim}")
        return cls(tuple(tuple(1 if (r, c) == (i - 1, j - 1) else 0
                               for c in range(dim))
                         for r in range(dim)))

    def __getitem__(self, pos: tuple[int, int]) -> Scalar:
        """Entry at 1-based (row, column)."""
        i, j = pos
        return self.rows[i - 1][j - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = ", ".join("(" + ", ".join(scalar_to_str(x) for x in row) + ")"
                         for row in self.rows)
        return f"Matrix[{body}]"

    def __add__(self, other: Matrix) -> Matrix:
        self._check_dim(other)
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: Matrix) -> Matrix:
        self._check_dim(other)
        return Matrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> Matrix:
        return Matrix(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other: Matrix) -> Matrix:
        self._check_dim(other)
        cols = tuple(zip(*other.rows))
        return Matrix(tuple(tuple(sum(a * b for a, b in zip(row, col)
                                      if a and b) for col in cols)
                            for row in self.rows))

    def scale(self, c: Scalar) -> Matrix:
        return Matrix(tuple(tuple(c * a for a in row) for row in self.rows))

    def _check_dim(self, other: Matrix) -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def trace(self) -> Scalar:
        return canonical(sum(self.rows[i][i] for i in range(self.dim)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, row in enumerate(self.rows)
                   for j, x in enumerate(row) if i != j)

    def diagonal_entries(self) -> tuple[Scalar, ...]:
        return tuple(self.rows[i][i] for i in range(self.dim))

    def det(self) -> Scalar:
        """Exact determinant, by rows.determinant."""
        return determinant(self.rows)

    def inv(self) -> Matrix:
        """Exact inverse by Gauss-Jordan elimination.

        Raises SingularMatrixError when the determinant is zero.
        """
        n = self.dim
        a = [list(row) for row in self.rows]
        b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for c in range(n):
            pivot_row = next((r for r in range(c, n) if a[r][c] != 0), None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            if pivot_row != c:
                a[c], a[pivot_row] = a[pivot_row], a[c]
                b[c], b[pivot_row] = b[pivot_row], b[c]
            inv_pivot = Fraction(1) / a[c][c]
            a[c] = [x * inv_pivot if x else 0 for x in a[c]]
            b[c] = [x * inv_pivot if x else 0 for x in b[c]]
            for r in range(n):
                if r != c and a[r][c] != 0:
                    m = a[r][c]
                    a[r] = [x - m * y for x, y in zip(a[r], a[c])]
                    b[r] = [x - m * y for x, y in zip(b[r], b[c])]
        return Matrix(b)


def exp_nilpotent(x: Matrix) -> Matrix:
    """Exponential of a nilpotent matrix, summed until a power vanishes.

    The series I + x + x^2/2! + ... terminates exactly because some power
    of x is zero; no truncation or approximation is ever involved.  A
    matrix whose dim-th power is still nonzero is not nilpotent and is
    rejected.

    >>> exp_nilpotent(Matrix([[0, 1], [0, 0]]))
    Matrix[(1, 1), (0, 1)]
    """
    total = Matrix.identity(x.dim)
    power = Matrix.identity(x.dim)
    for m in range(1, x.dim + 1):
        power = power * x
        if power.is_zero():
            return total
        total = total + power.scale(Fraction(1, math.factorial(m)))
    raise NotNilpotentError(
        f"matrix has nonzero {x.dim}-th power, so it is not nilpotent")


def matrix_to_json(a: Matrix) -> dict:
    """JSON object form: {"dim": n, "entries": [["p/q", ...], ...]}."""
    return {"dim": a.dim,
            "entries": [[scalar_to_str(x) for x in row] for row in a.rows]}


def matrix_from_json(obj: dict) -> Matrix:
    """The matrix of the JSON object form, read by rows.rows_from_json."""
    return Matrix(rows_from_json(obj))
