"""The type A_n root system and its Weyl group.

Roots live in coordinates over eps_1..eps_{n+1} (integer vectors whose
entries sum to zero), so the Weyl group acts by permuting coordinates and
reflections can be cross-checked against transpositions directly.  The
group itself is realized as permutations of {1, .., n+1} in one-line
notation, as ``tits.Permutation``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .liealg import check_rank
from .tits import Permutation


@dataclass(frozen=True)
class RootVector:
    """An integer vector over eps_1..eps_{n+1} with entries summing to 0."""

    n: int
    eps: tuple[int, ...]

    def __post_init__(self):
        check_rank(self.n)
        object.__setattr__(self, "eps", tuple(self.eps))
        if len(self.eps) != self.n + 1:
            raise ValueError(f"rank {self.n} needs {self.n + 1} coordinates")
        if any(not isinstance(c, int) for c in self.eps):
            raise ValueError("eps coordinates must be integers")
        if sum(self.eps) != 0:
            raise ValueError(f"coordinates must sum to 0: {self.eps}")

    def is_root(self) -> bool:
        """True for eps_i - eps_j vectors: one +1, one -1, rest 0."""
        return sorted(self.eps) == [-1] + [0] * (self.n - 1) + [1]

    def __sub__(self, other: RootVector) -> RootVector:
        return RootVector(self.n, tuple(a - b for a, b in
                                        zip(self.eps, other.eps)))

    def __rmul__(self, c: int) -> RootVector:
        return RootVector(self.n, tuple(c * a for a in self.eps))


def root(n: int, i: int, j: int) -> RootVector:
    """The root eps_i - eps_j, for i != j in 1..n+1."""
    check_rank(n)
    if i == j or not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise ValueError(f"({i}, {j}) does not name a root for rank {n}")
    eps = [0] * (n + 1)
    eps[i - 1], eps[j - 1] = 1, -1
    return RootVector(n, tuple(eps))


def simple_root(n: int, i: int) -> RootVector:
    """The simple root alpha_i = eps_i - eps_{i+1}, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise ValueError(f"simple root index {i} out of range 1..{n}")
    return root(n, i, i + 1)


def all_roots(n: int) -> list[RootVector]:
    check_rank(n)
    return [root(n, i, j)
            for i in range(1, n + 2) for j in range(1, n + 2) if i != j]


def pairing(beta: RootVector, i: int) -> int:
    """The integer beta(h_i) = beta_i - beta_{i+1} against the coroot h_i.

    >>> pairing(simple_root(2, 1), 1)
    2
    >>> pairing(simple_root(2, 2), 1)
    -1
    """
    if not 1 <= i <= beta.n:
        raise ValueError(f"coroot index {i} out of range 1..{beta.n}")
    return beta.eps[i - 1] - beta.eps[i]


def reflect(alpha: RootVector, beta: RootVector) -> RootVector:
    """Reflect beta in the root alpha: beta - beta(h_alpha) * alpha.

    For alpha = eps_i - eps_j the coroot pairing is beta_i - beta_j, so on
    the eps coordinates the reflection is exactly the swap of slots i and
    j.  Note the adjacent-root case: reflecting alpha_{i+1} in alpha_i
    gives the composite root eps_i - eps_{i+2}, not another simple root.
    """
    if not alpha.is_root():
        raise ValueError(f"not a root: {alpha.eps}")
    if alpha.n != beta.n:
        raise ValueError(f"rank mismatch: {alpha.n} vs {beta.n}")
    i = alpha.eps.index(1)
    j = alpha.eps.index(-1)
    k = beta.eps[i] - beta.eps[j]
    return beta - k * alpha


def weyl_action(sigma: Permutation, beta: RootVector) -> RootVector:
    """Permute coordinates: eps_i goes to eps_{sigma(i)}."""
    if sigma.n_points != beta.n + 1:
        raise ValueError(f"permutation of {sigma.n_points} points cannot act "
                         f"on rank {beta.n} vectors")
    eps = [0] * (beta.n + 1)
    for k, c in enumerate(beta.eps, start=1):
        eps[sigma(k) - 1] = c
    return RootVector(beta.n, tuple(eps))

