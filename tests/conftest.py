"""Helpers shared by the test modules."""

import pytest


def square_is_trivial(row):
    """A relation row with S_i^2 = 1 in place of S_i^4 = 1."""
    tag, i, j, left, right = row
    return row if tag != "2.11" else (tag, i, j, left[:2], right)


def flip_last_exponent(row):
    """A relation row with 2.12's final S_i^-1 changed to S_i."""
    tag, i, j, left, right = row
    return row if tag != "2.12" else (tag, i, j, left[:-1] + ((i, 1),),
                                      right)


def mutant_id(value):
    """The test id of a row mutant: its name with a leading underscore,
    so the parametrized tests keep their ids; None, pytest's default id,
    for any other parameter."""
    if value in (square_is_trivial, flip_last_exponent):
        return "_" + value.__name__
    return None


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
