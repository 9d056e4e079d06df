"""The coordinate operators attached to braid generators: their action on
the algebra, and the relations they satisfy, read off the verdict rows."""

import random
from fractions import Fraction

import pytest

import titslift.sweep as sweep
from titslift.autos import (AlgebraAutomorphism, _tau_power,
                            conjugation_automorphism, tau_generator,
                            verify_group_relations, verify_theorem1)
from titslift.braid import BraidWord
from titslift.liealg import (LieElement, OffDiagonal, ad_matrix,
                             basis_indices, bracket, decompose_by_cartan,
                             dimension, generator, slot)
from titslift.linalg import Matrix, exp_nilpotent
from titslift.records import TitsSection
from titslift.sweep import letters_fold, relation_words
from titslift.tits import (GroupElement, Permutation, evaluate_word,
                           exp_construction, sigma_generator)

from conftest import flip_last_exponent, mutant_id, square_is_trivial

# algebra-level tag -> group-level tag of the same relation family
PAIR_TAGS = {"0.2": "2.9", "0.4": "2.10", "0.5": "2.11", "0.6": "2.12"}


def _dense(s, letters):
    """A word's value at the section s by the definition: the dense
    product of the written-out lifts, tits.evaluate_word."""
    return evaluate_word(s, BraidWord(s.n, letters)).m


def _column(op, k):
    """Column k of a dense operator, as a dict from row to its nonzero
    entry."""
    return {r: row[k] for r, row in enumerate(op.rows) if row[k] != 0}


def _walked_images(n, letters):
    """The images of e_1..e_n, f_1..f_n under tau_{l1} o ... o tau_{lm},
    walked through the columns of the operators, last letter first; each
    image is one root vector, as (row, column, coefficient).
    """
    images = [(slot(n, OffDiagonal(k, k + 1)), 1) for k in range(1, n + 1)]
    images += [(slot(n, OffDiagonal(k + 1, k)), 1) for k in range(1, n + 1)]
    for i, e in reversed(letters):
        op = _tau_power(n, i, e).op
        for k, (r, x) in enumerate(images):
            (t, y), = _column(op, r).items()  # a root line: one entry or raise
            images[k] = (t, x * y)
    basis = basis_indices(n)
    return tuple((basis[r].row, basis[r].col, x) for r, x in images)


def test_rank_one_generator_action():
    tau = tau_generator(1, 1)
    e = generator(1, "e", 1)
    f = generator(1, "f", 1)
    h = generator(1, "h", 1)
    assert tau.apply(e) == -f
    assert tau.apply(f) == -e
    assert tau.apply(h) == -h


def test_generator_index_is_checked_after_a_cached_call():
    # a bool or float index equals an int one, so an untyped cache would
    # answer tau_generator(2, True) with the cached tau_1 unchecked
    tau_generator(2, 1)
    for i in (True, 1.0):
        with pytest.raises(ValueError, match="out of range"):
            tau_generator(2, i)
        with pytest.raises(ValueError, match="out of range"):
            exp_construction(2, i)


def test_generator_action_on_adjacent_chevalley_elements():
    tau = tau_generator(2, 1)
    # tau_1 swaps the first two basis vectors of the natural module,
    # so it carries the (2,3) ladder to the (1,3) ladder
    e2 = generator(2, "e", 2)
    image = tau.apply(e2).to_matrix()
    assert image == Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_operator_permutes_root_lines_up_to_sign():
    # each off-diagonal basis matrix maps to plus or minus the one whose
    # indices are swapped by (i, i+1); diagonal elements stay diagonal
    # but may spread across several coroot coordinates
    for n in (1, 2, 3):
        d = dimension(n)
        off = n * (n + 1)  # off-diagonal slots come first in the basis
        for i in range(1, n + 1):
            op = tau_generator(n, i).op
            swap = Permutation.transposition(n + 1, i, i + 1)
            for col, idx in enumerate(basis_indices(n), start=1):
                if col > off:
                    hit_rows = [row for row in range(1, d + 1)
                                if op[row, col] != 0]
                    assert all(row > off for row in hit_rows)
                    continue
                nonzero = [(row, op[row, col]) for row in range(1, d + 1)
                           if op[row, col] != 0]
                assert len(nonzero) == 1
                row, val = nonzero[0]
                assert val in (1, -1)
                target = OffDiagonal(swap(idx.row), swap(idx.col))
                assert row == slot(n, target) + 1


def test_fourth_power_is_identity():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            tau = tau_generator(n, i).op
            assert tau * tau * tau * tau == Matrix.identity(dimension(n))
            assert _tau_power(n, i, -1).op == tau * tau * tau


def test_preserves_brackets():
    rng = random.Random(37)
    n = 2
    tau = tau_generator(n, 1)
    for _ in range(15):
        x = LieElement(n, tuple(rng.randint(-3, 3)
                                for _ in range(dimension(n))))
        y = LieElement(n, tuple(rng.randint(-3, 3)
                                for _ in range(dimension(n))))
        assert tau.apply(bracket(x, y)) == bracket(
            tau.apply(x), tau.apply(y))


def test_stabilizes_diagonal_part():
    for n in (2, 3):
        for i in range(1, n + 1):
            tau = tau_generator(n, i)
            for k in range(1, n + 1):
                h = generator(n, "h", k)
                assert tau.apply(h).is_cartan()


def test_compose_and_identity():
    a, a_inv = _tau_power(2, 1, 1).op, _tau_power(2, 1, -1).op
    b, b_inv = _tau_power(2, 2, 1).op, _tau_power(2, 2, -1).op
    identity = Matrix.identity(dimension(2))
    assert a * a_inv == identity
    assert (a * b) * (b_inv * a_inv) == identity


def test_apply_rank_mismatch():
    with pytest.raises(ValueError):
        tau_generator(2, 1).apply(generator(1, "e", 1))


def test_operator_size_validation():
    with pytest.raises(ValueError):
        AlgebraAutomorphism(2, Matrix.identity(3))


def test_matches_conjugation_by_the_lift():
    # tau_i is built on the written-out lift; conjugation by
    # exp(e_i) exp(-f_i) exp(e_i) is the same operator
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            lhs = tau_generator(n, i)
            rhs = conjugation_automorphism(exp_construction(n, i), n)
            assert lhs.op == rhs.op


def test_exponential_of_ad_is_conjugation_by_the_exponential():
    # the operator identity behind the previous test, one factor at a
    # time: exponentiating an inner derivation equals conjugating by the
    # exponential of the element itself
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            for x in (generator(n, "e", i), -1 * generator(n, "f", i)):
                lhs = exp_nilpotent(ad_matrix(x))
                g = GroupElement(exp_nilpotent(x.to_matrix()))
                rhs = conjugation_automorphism(g, n)
                assert lhs == rhs.op


def test_conjugation_by_diagonal_fixes_cartan_coordinates():
    from fractions import Fraction
    from titslift.linalg import Matrix as M
    g = GroupElement(M.diagonal([2, Fraction(1, 4), 2]))
    conj = conjugation_automorphism(g, 2)
    for k in (1, 2):
        h = generator(2, "h", k)
        assert conj.apply(h) == h


def _verdicts(rows, tags=None):
    """(tag, i, j) -> passed for verdict rows, each tag mapped by tags."""
    return {(tags[tag] if tags else tag, i, j): passed
            for tag, i, j, passed, *_ in rows}


def test_group_and_algebra_reports_agree_instance_by_instance(
        adjoint_images):
    rng = random.Random(91)
    for n in (1, 2, 3):
        adjoint = _verdicts(verify_theorem1(n), PAIR_TAGS)
        group = _verdicts(verify_group_relations(TitsSection.ones(n)))
        assert adjoint == group
        # the values themselves, not just the verdicts: each side's
        # generator images are the generator columns of dense conjugation
        # by the evaluated word, each a single entry.  Every relation word
        # has the value of its reverse, so random words are added to show
        # that the last letter acts first.
        s = TitsSection.ones(n)
        words = [w for row in relation_words(n) for w in row[3:]]
        words += [tuple((rng.randint(1, n), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 8)))
                  for _ in range(10)]
        fold, basis = letters_fold(n), basis_indices(n)
        for w in words:
            conj = conjugation_automorphism(GroupElement(_dense(s, w)), n)
            columns = _generator_columns(conj)
            assert all(len(col) == 1 for col in columns)
            assert adjoint_images(fold(w)) == tuple(
                (basis[r].row, basis[r].col, x)
                for col in columns for r, x in col.items())


def test_read_off_images_match_the_operator_walk(adjoint_images):
    # the images read off the word's value at a = 1 against the images
    # walked through the columns of tau_i and its inverse
    rng = random.Random(29)
    for n in range(1, 7):
        fold = letters_fold(n)
        for _ in range(30):
            w = BraidWord(n, tuple((rng.randint(1, n), rng.choice((1, -1)))
                                   for _ in range(rng.randint(0, 12))))
            assert adjoint_images(fold(w.letters)) == _walked_images(
                n, w.letters)


def test_generator_matches_the_exp_ad_product():
    # conjugation by the lift against the dense exp(ad) product
    for n in range(1, 5):
        for i in range(1, n + 1):
            ad_e = ad_matrix(generator(n, "e", i))
            ad_f = ad_matrix(generator(n, "f", i))
            dense = (exp_nilpotent(ad_e) * exp_nilpotent(-ad_f)
                     * exp_nilpotent(ad_e))
            tau = tau_generator(n, i)
            assert tau.op == dense
            inverse = _tau_power(n, i, -1).op
            assert tau.op * inverse == Matrix.identity(dimension(n))
            assert inverse == dense.inv()


def _generator_columns(auto):
    """The columns of the operator at e_1..e_n, then at f_1..f_n."""
    n = auto.n
    return (tuple(_column(auto.op, slot(n, OffDiagonal(k, k + 1)))
                  for k in range(1, n + 1))
            + tuple(_column(auto.op, slot(n, OffDiagonal(k + 1, k)))
                    for k in range(1, n + 1)))


def _use_table(monkeypatch, rows):
    """Make the sweep read these rows: sweep.verdict_rows, under autos and
    the CLI, reads the relation table through relation_words."""
    monkeypatch.setattr(sweep, "relation_words", lambda k: rows)


@pytest.mark.parametrize("mutate,tag", [(square_is_trivial, "2.11"),
                                        (flip_last_exponent, "2.12")],
                         ids=mutant_id)
def test_mutated_relation_tables_fail_at_both_levels(monkeypatch, mutate,
                                                     tag, adjoint_images):
    for n in (2, 3):
        table = [mutate(row) for row in relation_words(n)]
        _use_table(monkeypatch, table)
        s = TitsSection(n, (2,) * n)
        adjoint = [r for r in verify_theorem1(n) if not r[3]]
        group = [r for r in verify_group_relations(s) if not r[3]]
        failed = set(_verdicts(adjoint, PAIR_TAGS))
        assert failed == set(_verdicts(group))
        assert failed and {t for t, _, _ in failed} == {tag}
        # a failing row keeps the two sides' values at a = 1: a group
        # failure's words have different dense products at the section,
        # an algebra failure's values differ in their generator images
        words, fold = {row[:3]: row[3:] for row in table}, letters_fold(n)
        for row in group:
            left_word, right_word = words[row[:3]]
            assert row[4:] == (fold(left_word), fold(right_word))
            assert _dense(s, left_word) != _dense(s, right_word)
        for _, _, _, _, left, right in adjoint:
            assert len(left) == len(right) == n + 1
            assert adjoint_images(left) != adjoint_images(right)


@pytest.mark.parametrize("mutate", [lambda row: row, square_is_trivial,
                                    flip_last_exponent], ids=mutant_id)
def test_group_verdicts_match_the_dense_word_values(monkeypatch, mutate):
    # the pair comparison of the sweep against the dense matrices
    rng = random.Random(83)
    for n in range(1, 5):
        table = [mutate(row) for row in relation_words(n)]
        _use_table(monkeypatch, table)
        for _ in range(3):
            s = TitsSection(n, tuple(
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                         rng.randint(1, 5)) for _ in range(n)))
            verdicts = _verdicts(verify_group_relations(s))
            assert verdicts == {
                (tag, i, j): _dense(s, left) == _dense(s, right)
                for tag, i, j, left, right in table}


@pytest.mark.parametrize("mutate", [lambda row: row, square_is_trivial,
                                    flip_last_exponent], ids=mutant_id)
def test_adjoint_verdicts_match_the_dense_operator_products(monkeypatch,
                                                            mutate):
    # the generator-image comparison of the sweep against whole operators:
    # each word's dense product of its letters' operators
    for n in range(1, 5):
        table = [mutate(row) for row in relation_words(n)]
        _use_table(monkeypatch, table)
        identity = Matrix.identity(dimension(n))

        def dense(letters):
            out = identity
            for i, e in letters:
                out = out * _tau_power(n, i, e).op
            return out

        verdicts = _verdicts(verify_theorem1(n), PAIR_TAGS)
        assert verdicts == {(tag, i, j): dense(left) == dense(right)
                            for tag, i, j, left, right in table}


def test_algebra_level_cannot_see_the_centre_at_rank_one(monkeypatch):
    # S_1^2 evaluates to -1, which is central: the group level rejects
    # S_1^2 = 1 while conjugation by -1 is the identity operator
    _use_table(monkeypatch, [square_is_trivial(row)
                             for row in relation_words(1)])
    assert not all(r[3] for r in verify_group_relations(TitsSection.ones(1)))
    assert all(r[3] for r in verify_theorem1(1))


def test_algebra_passes_exactly_when_the_group_quotient_is_central():
    # conjugation by g is the identity operator exactly when g is central,
    # and a central signed permutation matrix is +-I: the operator walk
    # against the fold of the quotient
    only_algebra = set()
    for mutate in (lambda row: row, square_is_trivial, flip_last_exponent):
        for n in range(1, 7):
            fold, identity = letters_fold(n), tuple(range(1, n + 2))
            for row in map(mutate, relation_words(n)):
                tag, i, _, left, right = row
                algebra = _walked_images(n, left) == _walked_images(n, right)
                # the quotient L R^{-1} is the value of the word L R^{-1}
                right_inverse = tuple((k, -e) for k, e in reversed(right))
                q = fold(left + right_inverse)
                central = q in (identity, tuple(-k for k in identity))
                assert algebra == central, (n, row)
                if algebra and q != identity:  # q = -I: L != R
                    only_algebra.add((mutate, n, tag, i))
    assert only_algebra == {(square_is_trivial, 1, "2.11", 1)}


def test_algebra_verdict_is_l_equals_plus_or_minus_r(monkeypatch):
    # the rule L = +-R at a = 1 against the operator walk, on random word
    # pairs; at odd n, -I = S_1^2 S_3^2 ... S_n^2 gives pairs that only the
    # algebra level accepts
    rng = random.Random(131)
    seen = set()
    for n in range(1, 7):
        def word(length):
            return tuple((rng.randint(1, n), rng.choice((1, -1)))
                         for _ in range(length))
        minus_one = tuple((k, 1) for k in range(1, n + 1, 2) for _ in "ab")
        table = []
        for k in range(40):
            u, cut = word(rng.randint(0, 12)), rng.randint(0, 12)
            i = rng.randint(1, n)
            other = (word(rng.randint(0, 12)),
                     u[:cut] + ((i, rng.choice((1, -1))),) * 2 + u[cut:],
                     u[:cut] + ((i, 1),) * 4 + u[cut:],
                     u[:cut] + minus_one + u[cut:])[k % 4]
            table.append(("2.9", k, k, u, other))
        _use_table(monkeypatch, table)
        s = TitsSection(n, tuple(Fraction(rng.choice((-3, -1, 2, 5)),
                                          rng.randint(1, 4))
                                 for _ in range(n)))
        rows = sweep.verdict_rows(n, "all")
        adjoint = {r[1]: r[3] for r in rows if r[0] == "0.2"}
        group = {r[1]: r[3] for r in rows if r[0] == "2.9"}
        for row in table:
            _, k, _, left, right = row
            walked = _walked_images(n, left) == _walked_images(n, right)
            assert adjoint[k] == walked, (n, row)
            assert group[k] == (_dense(s, left) == _dense(s, right))
            seen.add((n % 2, walked, group[k]))
    assert seen == {(p, a, g) for p in (0, 1) for a, g in
                    ((True, True), (False, False))} | {(1, True, False)}


def test_conjugation_is_a_homomorphism():
    rng = random.Random(53)
    n = 2
    s = TitsSection(2, (rng.randint(1, 4), rng.randint(1, 4)))
    g = sigma_generator(s, 1)
    h = sigma_generator(s, 2)
    assert conjugation_automorphism(g * h, n).op == (
        conjugation_automorphism(g, n).op * conjugation_automorphism(h, n).op)


def test_conjugation_dim_mismatch():
    with pytest.raises(ValueError):
        conjugation_automorphism(GroupElement.identity(4), 2)


def test_verify_theorem1_small_ranks():
    for n in (1, 2):
        assert all(r[3] for r in verify_theorem1(n))
    tags = {r[0] for r in verify_theorem1(2)}
    assert tags == {"0.2", "0.4", "0.5", "0.6"}


def test_verify_theorem1_above_rank_eight():
    # the verdicts at the all-ones section, instance by instance
    for n in (12, 16):
        adjoint = verify_theorem1(n)
        assert all(r[3] for r in adjoint)
        group = verify_group_relations(TitsSection.ones(n))
        assert _verdicts(adjoint, PAIR_TAGS) == _verdicts(group)


def test_verify_theorem1_rank_one_has_only_the_order_relation():
    assert verify_theorem1(1) == [("0.5", 1, 1, True)]


def test_generator_slots_are_built_once_per_rank():
    # the images are read off the word's value, so the algebra sweep
    # never builds an operator
    _tau_power.cache_clear()
    assert all(r[3] for r in verify_theorem1(4))
    assert _tau_power.cache_info().currsize == 0


def test_verify_group_relations():
    from fractions import Fraction
    rows = verify_group_relations(TitsSection(2, (Fraction(3, 7), -2)))
    assert all(r[3] for r in rows)
    assert {r[0] for r in rows} == {"2.9", "2.10", "2.11", "2.12"}


def test_report_order_is_deterministic():
    keys = [r[:3] for r in verify_theorem1(3)]
    assert keys == sorted(keys)


def test_eigenvalue_buckets_travel_with_the_generator():
    # conjugating the algebra by the lift of i permutes the eigenspaces
    # of h_i the same way the operator permutes basis lines
    n = 2
    h = generator(n, "h", 1)
    buckets = decompose_by_cartan(n, h)
    assert set(buckets) <= {-2, -1, 0, 1, 2}
    tau = tau_generator(n, 1)
    # tau_1(h_1) = -h_1, so the +2 bucket must land inside the -2 bucket
    minus = tau.apply(h)
    flipped = decompose_by_cartan(n, minus)
    assert flipped[2] == buckets[-2]
