"""Automorphisms of the trace-zero matrix algebra attached to braid
generators, and batch verification of the relations they satisfy.

The i-th automorphism is exp(ad e_i) exp(ad(-f_i)) exp(ad e_i).  It equals
conjugation by the parameter-1 lift of the i-th braid generator (Tits,
1966), so it is built as that conjugation, by the one construction
``conjugation_automorphism``.  The dense exp(ad) product stays available
through ``liealg.ad_matrix`` and ``linalg.exp_nilpotent`` as an
independent check.  The relation sweep builds no operator: its verdicts
are ``sweep.verdict_rows``, which the two verify calls here return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .liealg import LieElement, basis_indices, basis_matrix, dimension
from .linalg import Matrix
from .records import TitsSection
from .sweep import verdict_rows
from .tits import GroupElement, sigma_generator


@dataclass(frozen=True)
class AlgebraAutomorphism:
    """An invertible linear map on the algebra, as the dense d x d matrix
    op over the fixed basis: column k is the image of the k-th basis
    vector.  Equality is exact."""

    n: int
    op: Matrix

    def __post_init__(self):
        d = dimension(self.n)
        if self.op.dim != d:
            raise ValueError(
                f"operator must be {d}x{d} for rank {self.n}, "
                f"got {self.op.dim}x{self.op.dim}")

    def apply(self, x: LieElement) -> LieElement:
        if x.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {x.n}")
        return LieElement(self.n, tuple(
            sum(a * c for a, c in zip(row, x.coords)) for row in self.op.rows))


# kept as a cache because bench/traced_cli.py reads its cache_info()
@lru_cache(maxsize=None, typed=True)
def _tau_power(n: int, i: int, e: int) -> AlgebraAutomorphism:
    """tau_i^e for a letter's exponent e, which is +1 or -1: conjugation
    by S_i^e, the e-th power of the parameter-1 lift."""
    lift = sigma_generator(TitsSection.ones(n), i)
    return conjugation_automorphism(lift if e == 1 else lift.inv(), n)


def tau_generator(n: int, i: int) -> AlgebraAutomorphism:
    """exp(ad e_i) exp(ad(-f_i)) exp(ad e_i) as a coordinate operator."""
    return _tau_power(n, i, 1)


def conjugation_automorphism(g: GroupElement, n: int) -> AlgebraAutomorphism:
    """The operator x -> g x g^{-1} on trace-zero matrices."""
    if g.dim != n + 1:
        raise ValueError(f"group element dim {g.dim} does not match rank {n}")
    g_inv = g.m.inv()
    cols = [LieElement.from_matrix(n, g.m * basis_matrix(n, idx) * g_inv)
            .coords for idx in basis_indices(n)]
    return AlgebraAutomorphism(n, Matrix(tuple(zip(*cols))))


# kept because bench/traced_cli.py wraps it by name
def verify_theorem1(n: int) -> list[tuple]:
    """The algebra-level verdict rows of rank n, sweep.verdict_rows."""
    return verdict_rows(n, "adjoint")


# kept because bench/traced_cli.py wraps it by name
def verify_group_relations(s: TitsSection) -> list[tuple]:
    """The group-level verdict rows of rank s.n: every section's lifts
    are a torus conjugate of those at a = 1, so s gives the same rows."""
    return verdict_rows(s.n, "group")
