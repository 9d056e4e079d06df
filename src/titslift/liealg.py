"""The Lie algebra of traceless (n+1) x (n+1) rational matrices.

Everything downstream depends on a fixed ordered basis, so operators come
out reproducible byte for byte: first the off-diagonal matrix units
E_{i,j} (i != j) in lexicographic (i, j) order, then the simple coroots
h_1 .. h_n, where h_i has +1 at diagonal slot i and -1 at slot i+1.  The
total count is d = (n+1)^2 - 1.

Elements of the diagonal (Cartan) subalgebra are stored in the h_1..h_n
coordinates; conversion to and from diagonal matrices is handled by
LieElement.to_matrix / from_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .linalg import Matrix
from .records import Scalar, canonical, check_rank


@dataclass(frozen=True)
class OffDiagonal:
    """Basis slot for the matrix unit E_{row,col}, row != col, 1-based."""
    row: int
    col: int


@dataclass(frozen=True)
class Cartan:
    """Basis slot for the simple coroot h_index, 1 <= index <= n."""
    index: int


BasisIndex = Union[OffDiagonal, Cartan]


def dimension(n: int) -> int:
    """Dimension d = (n+1)^2 - 1 of the algebra of rank n."""
    check_rank(n)
    return (n + 1) ** 2 - 1


@lru_cache(maxsize=None)
def basis_indices(n: int) -> tuple[BasisIndex, ...]:
    """The fixed ordered basis for rank n.

    >>> basis_indices(1)
    (OffDiagonal(row=1, col=2), OffDiagonal(row=2, col=1), Cartan(index=1))
    """
    check_rank(n)
    off = tuple(OffDiagonal(i, j)
                for i in range(1, n + 2) for j in range(1, n + 2) if i != j)
    return off + tuple(Cartan(i) for i in range(1, n + 1))


def basis_matrix(n: int, idx: BasisIndex) -> Matrix:
    """Matrix realization of one basis slot in dimension n+1."""
    dim = n + 1
    if isinstance(idx, OffDiagonal):
        return Matrix.unit(dim, idx.row, idx.col)
    return (Matrix.unit(dim, idx.index, idx.index)
            - Matrix.unit(dim, idx.index + 1, idx.index + 1))


@lru_cache(maxsize=None)
def _slot_of(n: int) -> dict[BasisIndex, int]:
    return {idx: k for k, idx in enumerate(basis_indices(n))}


def slot(n: int, idx: BasisIndex) -> int:
    """Position of a basis index in the fixed order (0-based)."""
    return _slot_of(n)[idx]


@dataclass(frozen=True)
class LieElement:
    """A traceless matrix, stored as coordinates over the fixed basis."""

    n: int
    coords: tuple[Scalar, ...]

    def __post_init__(self):
        check_rank(self.n)
        if len(self.coords) != dimension(self.n):
            raise ValueError(
                f"rank {self.n} needs {dimension(self.n)} coordinates, "
                f"got {len(self.coords)}")
        object.__setattr__(self, "coords",
                           tuple(canonical(c) for c in self.coords))

    @classmethod
    def zero(cls, n: int) -> LieElement:
        return cls(n, (0,) * dimension(n))

    @classmethod
    def from_matrix(cls, n: int, m: Matrix) -> LieElement:
        """Read coordinates off a traceless matrix of dimension n+1.

        Off-diagonal entries map straight onto the E_{i,j} slots.  The
        diagonal (a_1, ..., a_{n+1}) maps to cumulative sums: the h_k
        coordinate is a_1 + ... + a_k.
        """
        check_rank(n)
        if m.dim != n + 1:
            raise ValueError(f"rank {n} needs a {n + 1} x {n + 1} matrix")
        if m.trace() != 0:
            raise ValueError("matrix has nonzero trace")
        coords = []
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                if i != j:
                    coords.append(m[i, j])
        running: Scalar = 0
        for k in range(1, n + 1):
            running = running + m[k, k]
            coords.append(running)
        return cls(n, tuple(coords))

    def to_matrix(self) -> Matrix:
        dim = self.n + 1
        rows = [[0] * dim for _ in range(dim)]
        for c, idx in zip(self.coords, basis_indices(self.n)):
            if c == 0:
                continue
            if isinstance(idx, OffDiagonal):
                rows[idx.row - 1][idx.col - 1] = c
            else:
                rows[idx.index - 1][idx.index - 1] += c
                rows[idx.index][idx.index] -= c
        return Matrix(rows)

    def is_cartan(self) -> bool:
        """True when every off-diagonal coordinate vanishes."""
        off = self.n * (self.n + 1)
        return all(c == 0 for c in self.coords[:off])

    def __add__(self, other: LieElement) -> LieElement:
        self._check_rank(other)
        return LieElement(self.n, tuple(a + b for a, b in
                                        zip(self.coords, other.coords)))

    def __sub__(self, other: LieElement) -> LieElement:
        self._check_rank(other)
        return LieElement(self.n, tuple(a - b for a, b in
                                        zip(self.coords, other.coords)))

    def __neg__(self) -> LieElement:
        return LieElement(self.n, tuple(-a for a in self.coords))

    def __rmul__(self, c: Scalar) -> LieElement:
        return LieElement(self.n, tuple(c * a for a in self.coords))

    def _check_rank(self, other: LieElement) -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")


def generator(n: int, which: str, i: int) -> LieElement:
    """The Chevalley generator e_i, f_i or h_i of rank n.

    e_i is the matrix unit E_{i,i+1}, f_i is E_{i+1,i}, and h_i is the
    diagonal E_{i,i} - E_{i+1,i+1}.
    """
    check_rank(n)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    if which not in ("e", "f", "h"):
        raise ValueError(f"unknown generator kind {which!r}")
    if which == "e":
        m = Matrix.unit(n + 1, i, i + 1)
    elif which == "f":
        m = Matrix.unit(n + 1, i + 1, i)
    else:
        m = basis_matrix(n, Cartan(i))
    return LieElement.from_matrix(n, m)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """The commutator [x, y] = xy - yx."""
    x._check_rank(y)
    xm, ym = x.to_matrix(), y.to_matrix()
    return LieElement.from_matrix(x.n, xm * ym - ym * xm)


def ad_matrix(x: LieElement) -> Matrix:
    """The operator [x, -] as a d x d matrix over the fixed basis."""
    n = x.n
    xm = x.to_matrix()
    cols = []
    for idx in basis_indices(n):
        bm = basis_matrix(n, idx)
        cols.append(LieElement.from_matrix(n, xm * bm - bm * xm).coords)
    return Matrix(tuple(zip(*cols)))


def decompose_by_cartan(n: int, h: LieElement) -> dict[Scalar, list[BasisIndex]]:
    """Partition the basis by exact eigenvalue under [h, -].

    h must lie in the diagonal subalgebra.  The slot E_{i,j} lands in the
    bucket of its eigenvalue h_ii - h_jj; every Cartan slot lands in the
    bucket of 0.
    """
    check_rank(n)
    if h.n != n:
        raise ValueError(f"rank mismatch: {n} vs {h.n}")
    if not h.is_cartan():
        raise ValueError("element is not in the diagonal subalgebra")
    diag = h.to_matrix().diagonal_entries()
    buckets: dict[Scalar, list[BasisIndex]] = {}
    for idx in basis_indices(n):
        if isinstance(idx, OffDiagonal):
            value = canonical(diag[idx.row - 1] - diag[idx.col - 1])
        else:
            value = 0
        buckets.setdefault(value, []).append(idx)
    return buckets

