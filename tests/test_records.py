"""The package's record classes.

The toolkit's records are frozen dataclasses.  ``TitsSection``, the one
record a CLI call builds, is written out by hand so that no call imports
``dataclasses``; it is held here to the construction, equality, hash and
repr of a frozen dataclass twin.
"""

import dataclasses
from fractions import Fraction

import pytest

from titslift.liealg import Cartan, OffDiagonal
from titslift.records import TitsSection, canonical
from titslift.tits import Permutation, monomial_lift, sigma_generator


@dataclasses.dataclass(frozen=True)
class Twin:
    """TitsSection's fields and checks, as a frozen dataclass."""

    n: int
    params: tuple

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"rank must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"rank must be at least 1, got {self.n}")
        if len(self.params) != self.n:
            raise ValueError(f"rank {self.n} needs {self.n} parameters")
        params = tuple(canonical(a) for a in self.params)
        object.__setattr__(self, "params", params)
        if any(a == 0 for a in params):
            raise ValueError("section parameters must be nonzero")


@pytest.mark.parametrize("args,kwargs", [
    ((1, ("2",)), {}), ((2, (Fraction(4, 2), "-1/3")), {}),
    ((3, [1, 2, 3]), {}), ((), {"params": (1, 5), "n": 2}),
    ((2,), {"params": (Fraction(1, 3), 7)}),
])
def test_record_matches_frozen_dataclass(args, kwargs):
    x, y = TitsSection(*args, **kwargs), Twin(*args, **kwargs)
    assert (x.n, x.params) == (y.n, y.params)
    assert repr(x) == repr(y).replace("Twin", "TitsSection", 1)
    assert hash(x) == hash(y)
    assert x == TitsSection(*args, **kwargs)
    assert x != TitsSection(x.n, (-1,) * x.n)


@pytest.mark.parametrize("args,kwargs", [
    ((), {}), ((1, (1,), 3), {}), ((1,), {"n": 2}), ((1,), {"d": 2}),
])
def test_record_rejects_bad_arguments_like_dataclass(args, kwargs):
    for cls in (TitsSection, Twin):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_rejects_bad_fields_like_dataclass():
    for args in ((0, ()), (2, (1,)), (1, (0,)), (1, (0.5,)), (1, ("+1",)),
                 (2.0, (1, 1)), (True, (1,))):
        messages = []
        for cls in (TitsSection, Twin):
            with pytest.raises(ValueError) as caught:
                cls(*args)
            messages.append(str(caught.value))
        assert messages[0] == messages[1], args


def test_records_are_frozen():
    for record, field in ((Permutation((2, 1)), "images"),
                          (TitsSection(2, (2, 1)), "params")):
        with pytest.raises(AttributeError):
            setattr(record, field, (1, 2))
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) == (2, 1)


def test_equality_and_hash_follow_fields():
    assert Permutation([2, 1]) == Permutation((2, 1))
    assert hash(Permutation([2, 1])) == hash(Permutation((2, 1)))
    assert Permutation((2, 1)) != Permutation((1, 2))
    assert OffDiagonal(1, 2) == OffDiagonal(row=1, col=2)
    assert OffDiagonal(1, 2) != OffDiagonal(2, 1)
    assert {OffDiagonal(1, 2): 0}[OffDiagonal(1, 2)] == 0


def test_records_of_different_classes_differ():
    # the same fields, equal values
    @dataclasses.dataclass(frozen=True)
    class Index:
        index: int

    for record, other, fields in ((Cartan(2), Index(2), (2,)),
                                  (TitsSection(1, (2,)), Twin(1, (2,)),
                                   (1, (2,)))):
        assert record != other
        assert record.__eq__(other) is NotImplemented
        assert record != fields


def test_repr_names_the_fields():
    assert repr(OffDiagonal(1, 2)) == "OffDiagonal(row=1, col=2)"
    assert repr(TitsSection(2, (Fraction(4, 2), Fraction(1, 3)))) == \
        "TitsSection(n=2, params=(2, Fraction(1, 3)))"


def test_post_init_runs_on_keyword_construction():
    s = TitsSection(params=(Fraction(4, 2), 3), n=2)
    assert s.params == (2, 3) and type(s.params[0]) is int
    with pytest.raises(ValueError, match="nonzero"):
        TitsSection(n=2, params=(1, 0))


def test_equal_sections_share_cache_entries():
    a = TitsSection(2, (Fraction(6, 3), Fraction(1, 5)))
    b = TitsSection(2, (2, Fraction(2, 10)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert monomial_lift(a, 1, -1) == monomial_lift(b, 1, -1)
    assert sigma_generator(a, 2) is sigma_generator(b, 2)
    assert TitsSection(2, (2, 1)) != TitsSection(2, (1, 2))
