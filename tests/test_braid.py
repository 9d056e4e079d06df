"""Braid words: parsing, free reduction, the projection to the symmetric
group, and the generated table of relation instances."""

import pytest
from hypothesis import given, strategies as st

from titslift.braid import (BraidWord, CoxeterMatrix, is_pure,
                            natural_projection, parse_word,
                            relation_instances, word_to_text)
from titslift.roots import Permutation


def letters(n, max_len=10):
    return st.lists(
        st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
        max_size=max_len)


def test_parse_and_print_round_trip():
    w = parse_word(3, "1 2 -3 1")
    assert w.letters == ((1, 1), (2, 1), (3, -1), (1, 1))
    assert word_to_text(w) == "1 2 -3 1"
    assert parse_word(3, word_to_text(w)) == w
    assert parse_word(2, "") == BraidWord.empty(2)


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_word(2, "3")
    with pytest.raises(ValueError):
        parse_word(2, "0")
    with pytest.raises(ValueError):
        parse_word(2, "one")


def test_word_rejects_letters_that_are_not_ints():
    for letter in ((1.9, 1), ("2", 1), (True, 1), (1, 1.0), (2, True), 1,
                   (1, 1, 1)):
        with pytest.raises(ValueError, match="must be two ints"):
            BraidWord(2, (letter,))
    # a flat pair of ints is two letters, neither of them a pair
    with pytest.raises(ValueError, match="must be two ints"):
        BraidWord(2, (1, 2))
    # lists are still taken as letters, stored as tuples
    assert BraidWord(2, ([2, -1],)).letters == ((2, -1),)


def test_from_ints_rejects_letters_that_are_not_ints():
    for signed in ([True], [1, False], [1.0], ["2"], [-1.5]):
        with pytest.raises(ValueError, match="must be an int"):
            BraidWord.from_ints(2, signed)
    assert BraidWord.from_ints(2, [2, -1]).letters == ((2, 1), (1, -1))


def test_free_reduction_cancels_adjacent_inverses():
    w = parse_word(2, "1 -1 2")
    assert w.free_reduce() == parse_word(2, "2")
    inner = parse_word(2, "1 2 -2 -1")
    assert inner.free_reduce() == BraidWord.empty(2)


@given(letters(3))
def test_word_times_inverse_reduces_to_empty(ls):
    inverse = tuple((i, -e) for i, e in reversed(ls))
    assert BraidWord(3, tuple(ls) + inverse).free_reduce() == \
        BraidWord.empty(3)


@given(letters(3), letters(3))
def test_projection_is_a_homomorphism(ls_a, ls_b):
    a = BraidWord(3, tuple(ls_a))
    b = BraidWord(3, tuple(ls_b))
    assert natural_projection(BraidWord(3, a.letters + b.letters)) == (
        natural_projection(a) * natural_projection(b))


def test_projection_ignores_exponent_sign():
    assert natural_projection(parse_word(2, "1")) == natural_projection(
        parse_word(2, "-1"))


def test_projection_known_values():
    assert natural_projection(parse_word(2, "1 2")) == Permutation((2, 3, 1))
    assert natural_projection(parse_word(2, "1 2 1")) == Permutation((3, 2, 1))


def test_is_pure():
    assert is_pure(parse_word(2, "1 -1"))
    assert is_pure(parse_word(1, "1 1 1 1"))
    assert is_pure(parse_word(2, "1 1"))
    assert not is_pure(parse_word(2, "1"))
    assert not is_pure(parse_word(2, "1 2"))


def test_coxeter_matrix():
    m = CoxeterMatrix(3)
    assert m.m(1, 1) == 1
    assert m.m(1, 2) == 3
    assert m.m(2, 1) == 3
    assert m.m(1, 3) == 2


def test_relation_instances_rank_one():
    insts = list(relation_instances(1))
    assert len(insts) == 1
    only = insts[0]
    assert only.tag == "2.11"
    assert only.left == parse_word(1, "1 1 1 1")
    assert only.right == BraidWord.empty(1)


def test_relation_instances_rank_two_inventory():
    insts = list(relation_instances(2))
    by_tag = {}
    for inst in insts:
        by_tag.setdefault(inst.tag, []).append(inst)
    assert sorted(by_tag) == ["2.10", "2.11", "2.12", "2.9"]
    assert len(by_tag["2.9"]) == 2
    assert len(by_tag["2.10"]) == 2
    assert len(by_tag["2.11"]) == 2
    assert len(by_tag["2.12"]) == 2


def test_braid_instance_words_alternate():
    insts = {(i.tag, i.i, i.j): i for i in relation_instances(3)}
    braid_adj = insts[("2.9", 1, 2)]
    assert braid_adj.left == parse_word(3, "1 2 1")
    assert braid_adj.right == parse_word(3, "2 1 2")
    braid_far = insts[("2.9", 1, 3)]
    assert braid_far.left == parse_word(3, "1 3")
    assert braid_far.right == parse_word(3, "3 1")


def test_twist_instance_exponents():
    insts = {(i.tag, i.i, i.j): i for i in relation_instances(3)}
    adj = insts[("2.12", 1, 2)]
    assert adj.left == parse_word(3, "1 2 2 -1")
    assert adj.right == parse_word(3, "2 2 1 1")
    far = insts[("2.12", 1, 3)]
    assert far.left == parse_word(3, "1 3 3 -1")
    assert far.right == parse_word(3, "3 3")


def test_relation_instances_build_each_word_once():
    for n in range(1, 13):
        ids = {}
        for inst in relation_instances(n):
            for w in (inst.left, inst.right):
                ids.setdefault(w.letters, set()).add(id(w))
        assert all(len(objects) == 1 for objects in ids.values()), n
    # S_i^4 and S_i^2, the empty word, and per ordered pair the left
    # words of 2.9, 2.10 and 2.12
    assert len(ids) == 2 * 12 + 1 + 3 * 12 * 11 == 421


def test_projections_of_relation_instances_agree():
    # every relation already holds in the symmetric group
    for n in (1, 2, 3):
        for inst in relation_instances(n):
            assert natural_projection(inst.left) == natural_projection(
                inst.right), (inst.tag, inst.i, inst.j)
