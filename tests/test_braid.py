"""Braid words: parsing, the projection to the symmetric group, the
generated table of relation instances, sweep.relation_words, and the
groups that table presents, counted by coset enumeration."""

from math import factorial

import pytest
from hypothesis import given, strategies as st

from titslift.braid import BraidWord, is_pure, natural_projection, parse_word
from titslift.liealg import dimension, generator
from titslift.roots import RootVector, all_roots, pairing, root, simple_root
from titslift.sweep import coxeter_entry, letters_fold, relation_words
from titslift.tits import Permutation

from conftest import flip_last_exponent, mutant_id, square_is_trivial


def letters(n, max_len=10):
    return st.lists(
        st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
        max_size=max_len)


def test_parse_reads_signed_letters():
    w = parse_word(3, " 1 2\t-3 1 ")
    assert w.letters == ((1, 1), (2, 1), (3, -1), (1, 1))
    assert w == BraidWord.from_ints(3, [1, 2, -3, 1])
    assert parse_word(2, "") == BraidWord(2, ())


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


def test_word_rejects_a_rank_that_is_not_a_positive_int():
    for n in (2.0, True, "2"):
        with pytest.raises(ValueError, match="rank must be an int"):
            BraidWord(n, ())
    with pytest.raises(ValueError, match="at least 1"):
        BraidWord(0, ())
    # the root system and the algebra share the check
    for build in (lambda: RootVector(True, (1, -1)),
                  lambda: generator(True, "e", 1), lambda: dimension(True),
                  lambda: root(2.0, 1, 2), lambda: all_roots(2.0)):
        with pytest.raises(ValueError, match="rank must be an int"):
            build()


def test_from_ints_rejects_letters_that_are_not_ints():
    for signed in ([True], [1, False], [1.0], ["2"], [-1.5]):
        with pytest.raises(ValueError, match="must be an int"):
            BraidWord.from_ints(2, signed)
    assert BraidWord.from_ints(2, [2, -1]).letters == ((2, 1), (1, -1))


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
    assert coxeter_entry(1, 1) == 1
    assert coxeter_entry(1, 2) == 3
    assert coxeter_entry(2, 1) == 3
    assert coxeter_entry(1, 3) == 2


def _word(n, text):
    return parse_word(n, text).letters


def test_relation_instances_rank_one():
    assert relation_words(1) == [("2.11", 1, 1, _word(1, "1 1 1 1"), ())]


def test_relation_instances_rank_two_inventory():
    tags = [row[0] for row in relation_words(2)]
    assert sorted(set(tags)) == ["2.10", "2.11", "2.12", "2.9"]
    assert all(tags.count(tag) == 2 for tag in tags)


def test_braid_instance_words_alternate():
    rows = {row[:3]: row[3:] for row in relation_words(3)}
    assert rows["2.9", 1, 2] == (_word(3, "1 2 1"), _word(3, "2 1 2"))
    assert rows["2.9", 1, 3] == (_word(3, "1 3"), _word(3, "3 1"))


def test_twist_instance_exponents():
    rows = {row[:3]: row[3:] for row in relation_words(3)}
    assert rows["2.12", 1, 2] == (_word(3, "1 2 2 -1"), _word(3, "2 2 1 1"))
    assert rows["2.12", 1, 3] == (_word(3, "1 3 3 -1"), _word(3, "3 3"))


def test_projections_of_relation_instances_agree():
    # every relation already holds in the symmetric group
    for n in (1, 2, 3):
        for tag, i, j, left, right in relation_words(n):
            assert natural_projection(BraidWord(n, left)) == \
                natural_projection(BraidWord(n, right)), (tag, i, j)


def _family_rows(n):
    """The four families written out from signed indices, one by one."""
    def word(*signed):
        return BraidWord.from_ints(n, signed).letters
    rows = [("2.11", i, i, word(i, i, i, i), word()) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                m = 3 if abs(i - j) == 1 else 2
                e = -2 * pairing(simple_root(n, j), i)
                rows += [("2.9", i, j, word(*(i, j, i)[:m]),
                          word(*(j, i, j)[:m])),
                         ("2.10", i, j, word(i, i, j, j), word(j, j, i, i)),
                         ("2.12", i, j, word(i, j, j, -i),
                          word(j, j, *[i if e > 0 else -i] * abs(e)))]
    return rows


def test_relation_words_are_the_four_families_written_out():
    for n in range(1, 9):
        assert relation_words(n) == _family_rows(n)


def test_twist_exponent_is_the_cartan_pairing():
    # 2.12 is S_i S_j^2 S_i^-1 = S_j^2 S_i^e with e = -2 <alpha_j, h_i>,
    # written in the table from the Coxeter entry alone
    for n in range(1, 9):
        for tag, i, j, left, right in relation_words(n):
            if tag != "2.12":
                continue
            e = -2 * pairing(simple_root(n, j), i)
            twist = ((i, 1 if e > 0 else -1),) * abs(e)
            assert right == ((j, 1), (j, 1)) + twist


def _coset_count(n, relators):
    """The number of cosets of the trivial subgroup in the group with
    generators S_1..S_n and these relators, by Todd-Coxeter enumeration
    (HLT: scan every relator at every coset, define cosets to fill the
    gaps, and merge cosets that a relator forces equal).

    A letter (i, e) is the column 2(i - 1) + (e < 0) of the coset table;
    column g ^ 1 is its inverse.
    """
    gens = 2 * n
    rels = [[2 * (i - 1) + (e < 0) for i, e in r] for r in relators]
    table, parent = [[None] * gens], [0]

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def define(c, g):
        table.append([None] * gens)
        parent.append(len(parent))
        table[c][g], table[-1][g ^ 1] = len(table) - 1, c

    def coincide(a, b):
        queue = []

        def merge(x, y):
            x, y = find(x), find(y)
            if x != y:
                x, y = min(x, y), max(x, y)
                parent[y] = x
                queue.append(y)
        merge(a, b)
        while queue:
            dead = queue.pop(0)
            for g in range(gens):
                d = table[dead][g]
                if d is None:
                    continue
                table[d][g ^ 1] = None
                c, d = find(dead), find(d)
                if table[c][g] is not None:
                    merge(d, table[c][g])
                elif table[d][g ^ 1] is not None:
                    merge(c, table[d][g ^ 1])
                else:
                    table[c][g], table[d][g ^ 1] = d, c

    def scan_and_fill(c, r):
        f, b, i, j = c, c, 0, len(r) - 1
        while True:
            while i <= j and table[f][r[i]] is not None:
                f, i = table[f][r[i]], i + 1
            if i > j:
                if f != b:
                    coincide(f, b)
                return
            while j >= i and table[b][r[j] ^ 1] is not None:
                b, j = table[b][r[j] ^ 1], j - 1
            if j < i:
                coincide(f, b)
                return
            if i == j:
                table[f][r[i]], table[b][r[i] ^ 1] = b, f
                return
            define(f, r[i])

    c = 0
    while c < len(table):
        for r in rels:
            if find(c) != c:
                break
            scan_and_fill(c, r)
        if find(c) == c:
            for g in range(gens):
                if table[c][g] is None:
                    define(c, g)
        c += 1
    return sum(find(c) == c for c in range(len(table)))


def _relators(rows):
    """The relators L R^-1 of relation rows, each once, in a fixed
    order."""
    return sorted({left + tuple((i, -e) for i, e in reversed(right))
                   for _, _, _, left, right in rows})


@pytest.mark.parametrize("relators,order", [
    # S_3 = <a, b | a^2, b^2, (ab)^3>
    ([((1, 1),) * 2, ((2, 1),) * 2, ((1, 1), (2, 1)) * 3], 6),
    # D_5 = <r, s | r^5, s^2, (sr)^2>
    ([((1, 1),) * 5, ((2, 1),) * 2, ((2, 1), (1, 1)) * 2], 10),
    # Q_8 = <a, b | a^4, a^2 b^-2, a^-1 b a b>
    ([((1, 1),) * 4, ((1, 1), (1, 1), (2, -1), (2, -1)),
      ((1, -1), (2, 1), (1, 1), (2, 1))], 8),
    # S_4 = <a, b, c | a^2, b^2, c^2, (ab)^3, (bc)^3, (ac)^2>
    ([((1, 1),) * 2, ((2, 1),) * 2, ((3, 1),) * 2, ((1, 1), (2, 1)) * 3,
      ((2, 1), (3, 1)) * 3, ((1, 1), (3, 1)) * 2], 24),
], ids=["S3", "D5", "Q8", "S4"])
def test_coset_count_gives_textbook_orders(relators, order):
    n = max(i for r in relators for i, _ in r)
    assert _coset_count(n, relators) == order


def test_relation_table_presents_the_extended_weyl_group():
    # the relators L R^-1 of families 2.9-2.12 present a group of order
    # 2^n (n+1)!, the signed permutations of determinant one that the
    # lifts at a = 1 generate (Tits): no group relation is missing
    for n in range(1, 5):
        relators = _relators(relation_words(n))
        assert _coset_count(n, relators) == 2 ** n * factorial(n + 1)


# the orders at n = 2, 3, 4 of the groups each mutant table presents
MUTANT_ORDERS = {square_is_trivial: (6, 24, 120),
                 flip_last_exponent: (12, 24, 120)}


@pytest.mark.parametrize("mutate", MUTANT_ORDERS, ids=mutant_id)
def test_mutated_tables_present_other_groups(mutate):
    # each differs from 2^n (n+1)! = 24, 192, 1920: the enumeration tells
    # a wrong table from the true one
    for n, order in zip((2, 3, 4), MUTANT_ORDERS[mutate]):
        relators = _relators(map(mutate, relation_words(n)))
        assert _coset_count(n, relators) == order


def test_coxeter_element_power_folds_to_a_sign():
    # c = S_1 ... S_n projects to an (n+1)-cycle, and c^(n+1) is the
    # scalar (-1)^n I: central, so invisible to the algebra level
    for n in range(1, 33):
        c = tuple((k, 1) for k in range(1, n + 1))
        value = letters_fold(n)(c * (n + 1))
        assert value == tuple((-1) ** n * k for k in range(1, n + 2))


def test_table_and_coxeter_power_present_the_algebra_group():
    # the table plus the relator c^(n+1) presents <tau_i>, of order
    # 2^n (n+1)! / 2 at odd n, where -I = c^(n+1) is a fold value, and
    # 2^n (n+1)! at even n
    for n, order in zip(range(1, 5), (2, 24, 96, 1920)):
        c = tuple((k, 1) for k in range(1, n + 1))
        relators = _relators(relation_words(n)) + [c * (n + 1)]
        assert _coset_count(n, relators) == order


def test_every_rank_reduces_to_the_rank_three_table():
    # the finite check for every rank: each side of the row (tag, i, j)
    # is +identity off the columns C = {i, i+1, j, j+1}, and restricted
    # to C and relabelled in order it is the same side of the matching
    # row at rank |C| - 1, which is 1, 2 or 3.  So the sweep at n <= 3
    # decides 2.9-2.12 at every rank
    small = {r: {row[:3]: row[3:] for row in relation_words(r)}
             for r in (1, 2, 3)}
    small_folds = {r: letters_fold(r) for r in (1, 2, 3)}
    rows = 0
    for n in range(1, 33):
        fold = letters_fold(n)
        for tag, i, j, *sides in relation_words(n):
            cols = sorted({i, i + 1, j, j + 1})
            label = {c: k for k, c in enumerate(cols, start=1)}
            r = len(cols) - 1
            sides_r = small[r][tag, label[i], label[j]]
            for letters, letters_r in zip(sides, sides_r):
                value = fold(letters)
                assert all(value[c - 1] == c
                           for c in range(1, n + 2) if c not in label)
                restricted = tuple((1 if value[c - 1] > 0 else -1)
                                   * label[abs(value[c - 1])] for c in cols)
                assert restricted == small_folds[r](letters_r)
            rows += 1
    assert rows == sum(3 * n * n - 2 * n for n in range(1, 33))  # 33264
