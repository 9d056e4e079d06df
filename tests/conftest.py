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


def dense_word(s, letters):
    """The dense product of the written-out lifts of the section s and
    their inverses, one factor per letter (i, e) of a word."""
    lifts = {}
    out = Matrix.identity(s.n + 1)
    for i, e in letters:
        if (i, e) not in lifts:
            g = block(s, i)
            lifts[i, e] = g if e == 1 else g.inv()
        out = out * lifts[i, e]
    return out


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
