"""Exact matrix arithmetic: construction, determinants, inverses,
terminating exponentials, JSON round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from titslift.linalg import (Matrix, NotNilpotentError, SingularMatrixError,
                             exp_nilpotent, matrix_from_json, matrix_to_json)
from titslift.records import (TitsSection, canonical, parse_scalar,
                              scalar_to_str)


def test_canonical_collapses_integral_fractions():
    assert canonical(Fraction(6, 3)) == 2
    assert isinstance(canonical(Fraction(6, 3)), int)
    assert canonical(Fraction(1, 2)) == Fraction(1, 2)
    assert canonical(7) == 7


def test_canonical_rejects_floats_and_bools():
    # a float would enter as its binary value: 0.1 as 3602879701896397/2^55;
    # text is read by parse_scalar alone, so canonical refuses it too
    for x in (0.5, 0.1, 2.0, True, False, "5", "-3/2", None):
        with pytest.raises(ValueError, match="an int or a Fraction"):
            canonical(x)
    for bad in (0.1, "2"):
        with pytest.raises(ValueError, match="an int or a Fraction"):
            TitsSection(1, (bad,))
    for bad in (True, "1/2"):
        with pytest.raises(ValueError, match="an int or a Fraction"):
            Matrix([[bad]])


def test_scalar_to_str():
    assert scalar_to_str(3) == "3"
    assert scalar_to_str(Fraction(-1, 2)) == "-1/2"


def test_constructor_rejects_non_square():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        Matrix([])


def test_identity_diagonal_unit():
    assert Matrix.identity(2).rows == ((1, 0), (0, 1))
    assert Matrix.diagonal([2, Fraction(1, 2)]).rows == (
        (2, 0), (0, Fraction(1, 2)))
    assert Matrix.unit(3, 1, 2).rows == ((0, 1, 0), (0, 0, 0), (0, 0, 0))


def test_one_based_indexing():
    m = Matrix([[1, 2], [3, 4]])
    assert m[1, 1] == 1
    assert m[1, 2] == 2
    assert m[2, 1] == 3


def test_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a + b == Matrix([[1, 3], [4, 4]])
    assert a - a == Matrix([[0, 0], [0, 0]])
    assert -b == Matrix([[0, -1], [-1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a.scale(Fraction(1, 2)) == Matrix(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]])


def test_trace():
    assert Matrix([[1, 2], [3, 4]]).trace() == 5


def test_det_known_values():
    assert Matrix([[1, 2], [3, 4]]).det() == -2
    assert Matrix([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]]).det() == 1
    assert Matrix([[1, 2], [2, 4]]).det() == 0
    # pivot search must not give up on a zero in the corner
    assert Matrix([[0, 1], [1, 0]]).det() == -1


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_multiplicative(rows_a, rows_b):
    a, b = Matrix(rows_a), Matrix(rows_b)
    assert (a * b).det() == a.det() * b.det()


def test_inv_round_trip():
    rng = random.Random(11)
    found = 0
    while found < 10:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        m = Matrix(rows)
        if m.det() == 0:
            continue
        found += 1
        assert m * m.inv() == Matrix.identity(3)
        assert m.inv() * m == Matrix.identity(3)


def test_inv_singular_raises():
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 2], [2, 4]]).inv()


def test_is_diagonal_and_entries():
    d = Matrix.diagonal([1, Fraction(2, 3)])
    assert d.is_diagonal()
    assert d.diagonal_entries() == (1, Fraction(2, 3))
    assert not Matrix([[1, 1], [0, 1]]).is_diagonal()


def test_exp_nilpotent_strict_upper():
    x = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    expected = Matrix([[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]])
    assert exp_nilpotent(x) == expected


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        exp_nilpotent(Matrix.identity(2))


def test_json_round_trip():
    m = Matrix([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    obj = matrix_to_json(m)
    assert obj["dim"] == 2
    assert obj["entries"][0] == ["1/2", "-3"]
    assert matrix_from_json(obj) == m


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [["1", "0"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 1, "entries": 5})


@pytest.mark.parametrize("bad", [0.5, 1.0, float("inf"), True, False, None,
                                 "1/0", "0.5", "1e3", " 1", "1/-2", "",
                                 [1], "+3", "1_000", "2/", "0/0"])
def test_scalar_parser_accepts_only_ints_and_fraction_strings(bad):
    # the grammar the JSON format uses; Fraction alone would also read
    # decimals, exponents, spaces, signs and underscores
    with pytest.raises(ValueError):
        parse_scalar(bad)
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 1, "entries": [[bad]]})


def test_scalar_parser_reads_ints_and_fraction_strings():
    assert parse_scalar(-7) == -7
    assert parse_scalar("-7") == -7
    assert parse_scalar("10/4") == Fraction(5, 2)
    assert type(parse_scalar("4/2")) is int
    # the grammar admits a zero denominator, which is then named
    for x in ("1/0", "0/0"):
        with pytest.raises(ValueError, match=f"zero denominator in {x!r}"):
            parse_scalar(x)
