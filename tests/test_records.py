"""The package's record classes, and the guards on library arguments.

The toolkit's records are frozen dataclasses.  ``TitsSection``, the one
record a CLI call builds, is written out by hand so that no call imports
``dataclasses``; it is held here to the construction, equality, hash and
repr of a frozen dataclass twin.
"""

import dataclasses
from fractions import Fraction

import pytest

from titslift import sweep
from titslift.liealg import (Cartan, LieElement, OffDiagonal, bracket,
                             decompose_by_cartan, generator)
from titslift.linalg import Matrix
from titslift.records import TitsSection, canonical
from titslift.roots import (RootVector, pairing, reflect, simple_root,
                            weyl_action)
from titslift.tits import Permutation, exp_construction, sigma_generator


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
    ((1, (Fraction(-6, 3),)), {}),
    ((2, (Fraction(4, 2), Fraction(-1, 3))), {}),
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
    assert sigma_generator(a, 2) is sigma_generator(b, 2)
    assert TitsSection(2, (2, 1)) != TitsSection(2, (1, 2))


@pytest.mark.parametrize("call,match", [
    (lambda: RootVector(2, (1, -1)), "rank 2 needs 3 coordinates"),
    (lambda: RootVector(1, (Fraction(1, 2), Fraction(-1, 2))),
     "must be integers"),
    (lambda: simple_root(2, 3), "simple root index 3 out of range 1..2"),
    (lambda: pairing(simple_root(2, 1), 3),
     "coroot index 3 out of range 1..2"),
    (lambda: reflect(RootVector(2, (2, -2, 0)), simple_root(2, 1)),
     r"not a root: \(2, -2, 0\)"),
    (lambda: reflect(simple_root(1, 1), simple_root(2, 1)),
     "rank mismatch: 1 vs 2"),
    (lambda: weyl_action(Permutation((2, 1)), simple_root(2, 1)),
     "permutation of 2 points cannot act on rank 2 vectors"),
    (lambda: Permutation.transposition(2, 1, 3),
     r"transposition \(1 3\) out of range"),
    (lambda: Permutation((2, 1)) * Permutation((1, 2, 3)),
     "permutations of different sizes"),
    (lambda: exp_construction(2, 3), "generator index 3 out of range 1..2"),
    (lambda: Matrix.unit(2, 3, 1),
     r"unit position \(3, 1\) out of range for dim 2"),
    (lambda: Matrix.identity(2) * Matrix.identity(3),
     "dimension mismatch: 2 vs 3"),
    (lambda: LieElement(1, (1, 2)), "rank 1 needs 3 coordinates, got 2"),
    (lambda: generator(1, "e", 1) + generator(2, "e", 1),
     "rank mismatch: 1 vs 2"),
    (lambda: bracket(generator(1, "e", 1), generator(2, "e", 1)),
     "rank mismatch: 1 vs 2"),
    (lambda: decompose_by_cartan(2, generator(1, "h", 1)),
     "rank mismatch: 2 vs 1"),
    (lambda: sweep.relation_words(0), "rank must be at least 1, got 0"),
    (lambda: sweep.verdict_rows(2, "both"), "unknown level 'both'"),
    (lambda: TitsSection.ones(2.0), "rank must be an int, got 2.0"),
], ids=["root-length", "root-coordinate", "simple-root-index",
        "pairing-index", "reflect-not-a-root", "reflect-rank",
        "weyl-action-size", "transposition-index", "compose-sizes",
        "exp-construction-index", "unit-position", "matrix-dims",
        "lie-coordinates", "lie-add-rank", "bracket-rank",
        "cartan-rank", "relation-words-rank", "verdict-level",
        "section-ones-rank"])
def test_library_guards_raise_value_error(call, match):
    # every guard on a library argument raises ValueError, so it holds
    # under python -O and reads as an input error, never a TypeError
    with pytest.raises(ValueError, match=match):
        call()
