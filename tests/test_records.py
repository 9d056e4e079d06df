"""The frozen-record decorator and the package's record classes.

The decorator stands in for dataclasses.dataclass(frozen=True), so one
class body is declared both ways and the two are held to the same
construction, equality, hash and repr.
"""

import dataclasses
from fractions import Fraction

import pytest

from titslift.liealg import Cartan, OffDiagonal
from titslift.records import TitsSection, frozen
from titslift.relations import CoxeterMatrix, RelationCheck
from titslift.tits import Permutation, monomial_lift, sigma_generator


def _both(hidden=()):
    """One class body as a frozen record and as a frozen dataclass."""

    def body():
        class Pair:
            a: int
            b: object = "b"
            c: object = None

            def __post_init__(self):
                object.__setattr__(self, "a", int(self.a))
        return Pair

    ours = frozen(body(), hidden=hidden)
    theirs = body()
    for name in hidden:
        setattr(theirs, name, dataclasses.field(
            default=getattr(theirs, name), compare=False, repr=False))
    return ours, dataclasses.dataclass(frozen=True)(theirs)


@pytest.mark.parametrize("hidden", [(), ("c",)])
@pytest.mark.parametrize("args,kwargs", [
    (("1",), {}), ((1, 2), {}), ((1, 2, 3), {}), ((), {"a": 1, "c": [3]}),
    ((1,), {"c": 5, "b": 4}),
])
def test_record_matches_frozen_dataclass(hidden, args, kwargs):
    ours, theirs = _both(hidden)
    x, y = ours(*args, **kwargs), theirs(*args, **kwargs)
    assert (x.a, x.b, x.c) == (y.a, y.b, y.c)
    assert repr(x) == repr(y)
    if "c" not in hidden and isinstance(x.c, list):
        return  # an unhashable field leaves both unhashable
    assert hash(x) == hash(y)
    assert x == ours(*args, **kwargs)
    assert (x == ours(x.a, x.b, "other")) == ("c" in hidden)


@pytest.mark.parametrize("args,kwargs", [
    ((), {}), ((1, 2, 3, 4), {}), ((1,), {"a": 2}), ((1,), {"d": 2}),
])
def test_record_rejects_bad_arguments_like_dataclass(args, kwargs):
    for cls in _both():
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_records_are_frozen():
    p = Permutation((2, 1))
    with pytest.raises(AttributeError):
        p.images = (1, 2)
    with pytest.raises(AttributeError):
        del p.images
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p.images == (2, 1)


def test_equality_and_hash_follow_fields():
    assert Permutation([2, 1]) == Permutation((2, 1))
    assert hash(Permutation([2, 1])) == hash(Permutation((2, 1)))
    assert Permutation((2, 1)) != Permutation((1, 2))
    assert OffDiagonal(1, 2) == OffDiagonal(row=1, col=2)
    assert OffDiagonal(1, 2) != OffDiagonal(2, 1)
    assert {OffDiagonal(1, 2): 0}[OffDiagonal(1, 2)] == 0


def test_records_of_different_classes_differ():
    # one int field each, equal values
    assert Cartan(2) != CoxeterMatrix(2)
    assert Cartan(2).__eq__(CoxeterMatrix(2)) is NotImplemented
    assert Cartan(2) != (2,)


def test_repr_names_the_fields():
    assert repr(OffDiagonal(1, 2)) == "OffDiagonal(row=1, col=2)"
    assert repr(TitsSection(2, (Fraction(4, 2), Fraction(1, 3)))) == \
        "TitsSection(n=2, params=(2, Fraction(1, 3)))"


def test_relation_check_hides_its_sides():
    bare = RelationCheck("2.9", 1, 2, False)
    full = RelationCheck("2.9", 1, 2, False, left="L", right="R")
    assert bare.left is None and bare.right is None
    assert (full.left, full.right) == ("L", "R")
    assert full == bare and hash(full) == hash(bare)
    assert repr(full) == "RelationCheck(tag='2.9', i=1, j=2, passed=False)"
    assert RelationCheck("2.9", 1, 2, True) != bare


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
