"""Roots and the symmetric group acting on them.

The reflection attached to the root e_i - e_j must act exactly like the
coordinate transposition (i j); that equivalence, the Coxeter relations,
and the integer pairing table are the load-bearing facts here.
"""

import itertools

import pytest

from titslift.roots import (RootVector, all_roots, pairing, reflect, root,
                            simple_root, weyl_action)
from titslift.tits import Permutation


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_permutation_compose_applies_right_factor_first():
    s = Permutation.transposition(3, 1, 2)
    t = Permutation.transposition(3, 2, 3)
    # (s * t)(3) = s(t(3)) = s(2) = 1
    assert (s * t)(3) == 1
    assert (t * s)(3) == 2


def test_permutation_inverse_and_sign():
    c = Permutation((2, 3, 1))
    assert c * c.inverse() == Permutation.identity(3)
    assert c.sign() == 1
    assert Permutation.transposition(4, 2, 4).sign() == -1
    assert Permutation.identity(5).sign() == 1


def test_roots_inventory():
    # n(n+1) roots for rank n
    assert len(all_roots(2)) == 6
    assert all(a.is_root for a in all_roots(3))
    assert root(2, 1, 3).eps == (1, 0, -1)
    assert simple_root(2, 2) == root(2, 2, 3)


def test_root_validation():
    with pytest.raises(ValueError):
        RootVector(2, (1, 0, 0))  # does not sum to zero
    with pytest.raises(ValueError):
        root(2, 1, 1)


def test_pairing_table():
    # simple root against coroot index: 2 on the diagonal, -1 adjacent,
    # 0 at distance two or more
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                val = pairing(simple_root(n, j), i)
                if i == j:
                    assert val == 2
                elif abs(i - j) == 1:
                    assert val == -1
                else:
                    assert val == 0


def test_reflection_is_involution():
    for n in (2, 3):
        for alpha in all_roots(n):
            for beta in all_roots(n):
                assert reflect(alpha, reflect(alpha, beta)) == beta


def test_reflection_equals_coordinate_transposition():
    for n in (2, 3, 4):
        for alpha in all_roots(n):
            i = alpha.eps.index(1) + 1
            j = alpha.eps.index(-1) + 1
            swap = Permutation.transposition(n + 1, i, j)
            for beta in all_roots(n):
                assert reflect(alpha, beta) == weyl_action(swap, beta)


def test_reflection_negates_its_own_root():
    for n in (2, 3):
        for alpha in all_roots(n):
            assert reflect(alpha, alpha) == (-1) * alpha


def test_weyl_action_is_a_group_action():
    n = 3
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 2))]
    roots = all_roots(n)
    for s, t in itertools.islice(itertools.product(perms, perms), 200):
        for beta in roots[:3]:
            assert weyl_action(s * t, beta) == weyl_action(
                s, weyl_action(t, beta))


def test_simple_reflections_satisfy_coxeter_relations():
    for n in range(1, 6):
        refl = [Permutation.transposition(n + 1, i, i + 1)
                for i in range(1, n + 1)]
        ident = Permutation.identity(n + 1)
        for i in range(n):
            assert refl[i] * refl[i] == ident
            for j in range(n):
                if i == j:
                    continue
                m = 3 if abs(i - j) == 1 else 2
                prod = ident
                for _ in range(m):
                    prod = prod * refl[i] * refl[j]
                assert prod == ident, (n, i + 1, j + 1)


def test_adjacent_reflection_on_neighbor_root_gives_composite():
    # reflecting e_2 - e_3 in e_1 - e_2 lands on e_1 - e_3
    alpha = root(2, 1, 2)
    beta = root(2, 2, 3)
    assert reflect(alpha, beta) == root(2, 1, 3)
