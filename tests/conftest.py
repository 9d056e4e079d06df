"""Helpers shared by the test modules."""

from fractions import Fraction

import pytest

from titslift.linalg import Matrix


def block(s, i):
    """The i-th lift of the section s written out, independently of the
    fold: the identity outside slots i, i+1, where it is the block
    (0, a_i; -1/a_i, 0)."""
    a = Fraction(s.params[i - 1])
    rows = [[int(r == c) for c in range(s.n + 1)] for r in range(s.n + 1)]
    rows[i - 1][i - 1:i + 1] = 0, a
    rows[i][i - 1:i + 1] = -1 / a, 0
    return Matrix(rows)


@pytest.fixture
def adjoint_images():
    """The images of e_1..e_n, then f_1..f_n, under Ad of a value at
    a = 1 (sweep.letters_fold), each a matrix unit E_{row, column} times
    a coefficient, as a triple: the value's automorphism, read off in
    O(n)."""
    def images(value):
        e = [(abs(x), abs(y), 1 if x * y > 0 else -1)
             for x, y in zip(value, value[1:])]
        return tuple(e + [(col, row, c) for row, col, c in e])
    return images
