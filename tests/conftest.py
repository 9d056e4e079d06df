"""Helpers shared by the test modules."""

import pytest


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
