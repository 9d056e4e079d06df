"""The trace-zero matrix algebra: basis bookkeeping, brackets, the
adjoint operator, eigenspace decomposition under a diagonal element."""

import itertools
import random
from fractions import Fraction

import pytest

from titslift.liealg import (Cartan, LieElement, OffDiagonal, ad_matrix,
                             basis_indices, basis_matrix, bracket,
                             decompose_by_cartan, dimension, generator)
from titslift.linalg import Matrix


def test_dimension():
    assert dimension(1) == 3
    assert dimension(2) == 8
    assert dimension(5) == 35


def test_basis_order_is_offdiagonals_then_cartans():
    # lexicographic E_{i,j} for i != j, then h_1, h_2
    assert basis_indices(2) == (
        OffDiagonal(1, 2), OffDiagonal(1, 3), OffDiagonal(2, 1),
        OffDiagonal(2, 3), OffDiagonal(3, 1), OffDiagonal(3, 2),
        Cartan(1), Cartan(2))


def test_basis_matrix():
    assert basis_matrix(1, OffDiagonal(1, 2)) == Matrix([[0, 1], [0, 0]])
    assert basis_matrix(1, Cartan(1)) == Matrix([[1, 0], [0, -1]])


def test_generators():
    assert generator(2, "e", 1).to_matrix() == Matrix(
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert generator(2, "f", 2).to_matrix() == Matrix(
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert generator(2, "h", 2).to_matrix() == Matrix(
        [[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    with pytest.raises(ValueError):
        generator(2, "x", 1)
    with pytest.raises(ValueError):
        generator(2, "e", 3)


def test_from_matrix_round_trip():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        coords = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(dimension(n)))
        x = LieElement(n, coords)
        assert LieElement.from_matrix(n, x.to_matrix()) == x


def test_from_matrix_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        LieElement.from_matrix(1, Matrix.identity(2))


def test_from_matrix_rejects_wrong_dim():
    with pytest.raises(ValueError):
        LieElement.from_matrix(1, Matrix.identity(3))


def test_cartan_coordinates_are_cumulative_sums():
    h = LieElement.from_matrix(
        2, Matrix.diagonal([3, -1, -2]))
    # cumulative sums of the diagonal: 3, 3 + (-1), after the 6
    # off-diagonal coordinates
    assert h.coords[6:] == (3, 2)
    assert h.is_cartan()
    assert not generator(2, "e", 1).is_cartan()


def test_element_arithmetic():
    e = generator(1, "e", 1)
    f = generator(1, "f", 1)
    assert (e + f).to_matrix() == Matrix([[0, 1], [1, 0]])
    assert (e - e).to_matrix() == Matrix([[0, 0], [0, 0]])
    assert (-e).to_matrix() == Matrix([[0, -1], [0, 0]])
    assert (Fraction(1, 3) * e).to_matrix() == Matrix(
        [[0, Fraction(1, 3)], [0, 0]])


def test_bracket_defining_relations():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            e, f, h = (generator(n, w, i) for w in "efh")
            assert bracket(e, f) == h
            assert bracket(h, e) == 2 * e
            assert bracket(h, f) == -2 * f


def test_bracket_antisymmetry_and_jacobi_exhaustive():
    for n in (1, 2):
        basis = [LieElement.from_matrix(n, basis_matrix(n, idx))
                 for idx in basis_indices(n)]
        for x, y in itertools.product(basis, repeat=2):
            assert bracket(x, y) == -bracket(y, x)
        for x, y, z in itertools.combinations(basis, 3):
            total = (bracket(x, bracket(y, z))
                     + bracket(y, bracket(z, x))
                     + bracket(z, bracket(x, y)))
            assert total == LieElement.zero(n)


def test_ad_is_a_homomorphism_to_commutators():
    rng = random.Random(5)
    n = 2
    for _ in range(10):
        x = LieElement(n, tuple(rng.randint(-3, 3)
                                for _ in range(dimension(n))))
        y = LieElement(n, tuple(rng.randint(-3, 3)
                                for _ in range(dimension(n))))
        lhs = ad_matrix(bracket(x, y))
        rhs = ad_matrix(x) * ad_matrix(y) - ad_matrix(y) * ad_matrix(x)
        assert lhs == rhs


def test_ad_of_generator_is_nilpotent():
    from titslift.linalg import exp_nilpotent
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            exp_nilpotent(ad_matrix(generator(n, "e", i)))
            exp_nilpotent(ad_matrix(generator(n, "f", i)))


def test_decompose_by_cartan_n1():
    h = generator(1, "h", 1)
    buckets = decompose_by_cartan(1, h)
    assert buckets == {
        2: [OffDiagonal(1, 2)],
        -2: [OffDiagonal(2, 1)],
        0: [Cartan(1)],
    }


def test_decompose_by_cartan_requires_diagonal():
    with pytest.raises(ValueError):
        decompose_by_cartan(1, generator(1, "e", 1))

