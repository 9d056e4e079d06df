"""The diagonal torus of the determinant-one group, its normalizer and
their quotient (``Permutation``), and the lifts of braid words written
out as dense matrices.

A section is nonzero parameters a_1..a_n; the i-th lift is the identity
outside rows and columns {i, i+1}, where it is the block

    (   0      a_i )
    ( -1/a_i    0  )

which has determinant one and squares to the diagonal matrix with -1 at
slots i and i+1.  A word's value is the dense product of its letters'
lifts and their inverses: the definition, which the tests compare with
the fast path that ``verify`` and ``eval-word`` run (``sweep.letters_fold``
and ``relations.scales_at``).  All is exact over the rationals; a root
the rationals lack is reported, not approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING

from .linalg import Matrix, exp_nilpotent
from .records import Scalar, TitsSection, canonical
from .rows import NotInNormalizer, monomial_columns

if TYPE_CHECKING:  # braid imports Permutation from this module
    from .braid import BraidWord


class NoExactWitness(ValueError):
    """The conjugating torus element would need an irrational root."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, .., n_points}; images[k-1] = sigma(k)."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: "
                             f"{self.images}")

    @classmethod
    def identity(cls, n_points: int) -> Permutation:
        return cls(tuple(range(1, n_points + 1)))

    @classmethod
    def transposition(cls, n_points: int, i: int, j: int) -> Permutation:
        if not (1 <= i <= n_points and 1 <= j <= n_points):
            raise ValueError(f"transposition ({i} {j}) out of range")
        images = list(range(1, n_points + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @property
    def n_points(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition (self * other)(k) = self(other(k))."""
        if self.n_points != other.n_points:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[k - 1] for k in other.images))

    def inverse(self) -> Permutation:
        images = [0] * self.n_points
        for k, image in enumerate(self.images, start=1):
            images[image - 1] = k
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(image == k for k, image in enumerate(self.images, start=1))

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd ones."""
        inversions = sum(1 for a, b in itertools.combinations(self.images, 2)
                         if a > b)
        return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class GroupElement:
    """A square rational matrix with determinant exactly one."""

    m: Matrix

    def __post_init__(self):
        if self.m.det() != 1:
            raise ValueError("matrix does not have determinant 1")

    @property
    def dim(self) -> int:
        return self.m.dim

    @classmethod
    def identity(cls, dim: int) -> GroupElement:
        return cls(Matrix.identity(dim))

    def __mul__(self, other: GroupElement) -> GroupElement:
        return GroupElement(self.m * other.m)

    def inv(self) -> GroupElement:
        return GroupElement(self.m.inv())

    def conjugate(self, other: GroupElement) -> GroupElement:
        """self * other * self^{-1}."""
        return GroupElement(self.m * other.m * self.m.inv())


@lru_cache(maxsize=None, typed=True)  # so True is not a cached 1
def sigma_generator(s: TitsSection, i: int) -> GroupElement:
    """The i-th lift of s written out: (0, a_i; -1/a_i, 0) at i, i+1.

    >>> sigma_generator(TitsSection(2, (Fraction(2, 3), 5)), 1).m.rows
    ((0, Fraction(2, 3), 0), (Fraction(-3, 2), 0, 0), (0, 0, 1))
    """
    if type(i) is not int or not 1 <= i <= s.n:
        raise ValueError(f"generator index {i!r} out of range 1..{s.n}")
    a = Fraction(s.params[i - 1])
    rows = [[int(r == c) for c in range(s.n + 1)] for r in range(s.n + 1)]
    rows[i - 1][i - 1:i + 1] = 0, a
    rows[i][i - 1:i + 1] = -1 / a, 0
    return GroupElement(Matrix(rows))


def exp_construction(n: int, i: int) -> GroupElement:
    """The all-ones lift as exp(e_i) exp(-f_i) exp(e_i), an independent
    construction that must agree with sigma_generator at parameter 1."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    e = Matrix.unit(n + 1, i, i + 1)
    f = Matrix.unit(n + 1, i + 1, i)
    return GroupElement(exp_nilpotent(e) * exp_nilpotent(-f) * exp_nilpotent(e))


def evaluate_word(s: TitsSection, w: BraidWord) -> GroupElement:
    """The value of a braid word at the section s: the dense product of
    the lifts and their inverses, one factor per letter."""
    if w.n != s.n:
        raise ValueError(f"need a rank-{s.n} word, got rank {w.n}")
    out = Matrix.identity(s.n + 1)
    for i, e in w.letters:
        lift = sigma_generator(s, i).m
        out = out * (lift if e == 1 else lift.inv())
    return GroupElement(out)


@dataclass(frozen=True)
class MonomialDecomposition:
    """A monomial matrix as (permutation, column scales).

    The matrix is sum_i scales[i-1] * E_{sigma(i), i}: column i holds its
    single nonzero entry scales[i-1] in row sigma(i).  Scales are read
    directly off the entries, signs included, so reconstruct() inverts
    decomposition exactly.
    """

    sigma: Permutation
    scales: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.scales) != self.sigma.n_points:
            raise ValueError("scales length must match permutation size")
        scales = tuple(canonical(x) for x in self.scales)
        object.__setattr__(self, "scales", scales)
        if any(x == 0 for x in scales):
            raise ValueError("monomial scales must be nonzero")

    def reconstruct(self) -> GroupElement:
        dim = self.sigma.n_points
        rows = [[0] * dim for _ in range(dim)]
        for col in range(1, dim + 1):
            rows[self.sigma(col) - 1][col - 1] = self.scales[col - 1]
        return GroupElement(Matrix(rows))


def normalizer_decompose(x: GroupElement) -> MonomialDecomposition:
    """Split a monomial matrix into permutation and scales.

    Raises NotInNormalizer when any row or column has zero or at least
    two nonzero entries; exactly the monomial matrices normalize the
    diagonal torus.  The scan is rows.monomial_columns.
    """
    images, scales = monomial_columns(x.m.rows)
    # one nonzero per column and determinant one: the rows are distinct
    return MonomialDecomposition(Permutation(tuple(images)), tuple(scales))


def coset_class(x: GroupElement) -> Permutation:
    """The torus coset of a monomial matrix, as a permutation: dividing x
    by any monomial matrix with that permutation lands in the torus."""
    return normalizer_decompose(x).sigma


def _int_nth_root(m: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by Newton steps."""
    if m in (0, 1) or k == 1:
        return m
    x = 1 << -(-m.bit_length() // k)  # power of two >= true root
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rational_nth_root(x: Scalar, k: int) -> Scalar | None:
    """The exact rational k-th root of x, or None when there is none.

    For even k the nonnegative root is returned; negative x with even k
    has no rational root.

    >>> rational_nth_root(Fraction(8, 27), 3)
    Fraction(2, 3)
    >>> rational_nth_root(2, 2) is None
    True
    """
    if k < 1:
        raise ValueError(f"root degree must be at least 1, got {k}")
    f = Fraction(x)
    if f < 0 and k % 2 == 0:
        return None
    sign = -1 if f < 0 else 1
    p, q = abs(f.numerator), f.denominator
    rp, rq = _int_nth_root(p, k), _int_nth_root(q, k)
    if rp ** k != p or rq ** k != q:
        return None
    return canonical(Fraction(sign * rp, rq))


def conjugation_witness(s: TitsSection, s2: TitsSection) -> GroupElement:
    """A torus element t with t * lift'(i) * t^{-1} = lift(i) for all i.

    Conjugating the i-th lift by diag(t_1..t_{n+1}) scales its upper entry
    by t_i / t_{i+1}, so t_i / t_{i+1} = a_i / b_i for all i, where a are
    the parameters of s and b those of s2, and prod t_i = 1.  This forces
    t_{n+1} to be an (n+1)-th root of a product of parameter ratios; when
    the rationals hold no such root, NoExactWitness is raised.  For even
    n+1 the positive root is chosen.
    """
    if s.n != s2.n:
        raise ValueError(f"rank mismatch: {s.n} vs {s2.n}")
    n = s.n
    ratios = [Fraction(a) / Fraction(b) for a, b in zip(s.params, s2.params)]
    # suffix[i] = prod of ratios i..n (1-based); t_i = t_{n+1} * suffix[i]
    suffix = [Fraction(1)] * (n + 2)
    for i in range(n, 0, -1):
        suffix[i] = ratios[i - 1] * suffix[i + 1]
    prod_suffix = prod(suffix[1:])
    t_last = rational_nth_root(1 / prod_suffix, n + 1)
    if t_last is None:
        raise NoExactWitness(
            f"no rational ({n + 1})-th root of {1 / prod_suffix}")
    entries = [canonical(Fraction(t_last) * suffix[i]) for i in range(1, n + 2)]
    t = GroupElement(Matrix.diagonal(entries))
    for i in range(1, n + 1):
        if t.conjugate(sigma_generator(s2, i)) != sigma_generator(s, i):
            raise AssertionError(
                f"witness fails to conjugate generator {i}")
    return t
