"""Lifts, the torus, and the normalizer: block shapes, monomial
decomposition, coset bookkeeping, and the two witness constructions.

Word values come two ways: the fast path that verify and eval-word run,
sweep.letters_fold at a = 1 moved to a section by relations.scales_at,
and the definition, tits.evaluate_word, the dense product of the
written-out lifts.  The tests here compare the two."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from titslift.braid import BraidWord, natural_projection, parse_word
from titslift.cli import main
from titslift.linalg import Matrix, matrix_to_json
from titslift.records import TitsSection, scalar_to_str
from titslift.relations import scales_at
from titslift.sweep import letters_fold
from titslift.tits import (GroupElement, MonomialDecomposition,
                           NoExactWitness, NotInNormalizer, Permutation,
                           conjugation_witness, coset_class, evaluate_word,
                           exp_construction, normalizer_decompose,
                           rational_nth_root, sigma_generator)


def random_section(rng, n):
    return TitsSection(n, tuple(
        Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]),
                 rng.choice([1, 2, 3])) for _ in range(n)))


def fast(s, letters):
    """A word's value at the section s by the fast path, as (images,
    scales): the fold at a = 1, moved by scales_at."""
    value = letters_fold(s.n)(letters)
    return tuple(map(abs, value)), tuple(scales_at(s, value))


def dense(s, letters):
    """The same value by the definition: evaluate_word, split into
    (images, scales) by the normalizer's column scan."""
    dec = normalizer_decompose(evaluate_word(s, BraidWord(s.n, letters)))
    return dec.sigma.images, dec.scales


def random_torus(rng, dim):
    entries = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                        rng.choice([1, 2])) for _ in range(dim - 1)]
    prod = Fraction(1)
    for x in entries:
        prod *= x
    entries.append(1 / prod)
    return GroupElement(Matrix.diagonal(entries))


def test_group_element_requires_det_one():
    with pytest.raises(ValueError):
        GroupElement(Matrix([[2, 0], [0, 2]]))
    GroupElement(Matrix([[2, 0], [0, Fraction(1, 2)]]))


def test_group_element_ops():
    g = GroupElement(Matrix([[1, 1], [0, 1]]))
    h = GroupElement(Matrix([[1, 0], [1, 1]]))
    assert (g * h).m == Matrix([[2, 1], [1, 1]])
    assert (g * g.inv()).m == Matrix.identity(2)
    assert g.conjugate(h).m == g.m * h.m * g.m.inv()


def test_section_validation():
    with pytest.raises(ValueError):
        TitsSection(2, (1, 0))
    with pytest.raises(ValueError):
        TitsSection(2, (1,))
    with pytest.raises(ValueError):
        TitsSection(0, ())
    assert TitsSection.ones(3).params == (1, 1, 1)


def test_sigma_block_shape():
    s = TitsSection(2, (Fraction(2, 3), 5))
    g = sigma_generator(s, 1)
    assert g.m == Matrix([
        [0, Fraction(2, 3), 0],
        [Fraction(-3, 2), 0, 0],
        [0, 0, 1]])
    g2 = sigma_generator(s, 2)
    assert g2.m == Matrix([
        [1, 0, 0],
        [0, 0, 5],
        [0, Fraction(-1, 5), 0]])
    for i in (0, 3, True, 1.0):
        with pytest.raises(ValueError, match="out of range"):
            sigma_generator(s, i)
    # both exponents at random sections: the fold's letter step and
    # scales_at against the written-out block and its dense inverse
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(3):
            s = random_section(rng, n)
            for i in range(1, n + 1):
                for e in (1, -1):
                    assert fast(s, ((i, e),)) == dense(s, ((i, e),))


def test_sigma_square_and_fourth_power():
    rng = random.Random(3)
    for n in (1, 2, 3):
        s = random_section(rng, n)
        for i in range(1, n + 1):
            g = sigma_generator(s, i)
            sq = (g * g).m
            expected = [1] * (n + 1)
            expected[i - 1] = -1
            expected[i] = -1
            assert sq == Matrix.diagonal(expected)
            assert (g * g * g * g).m == Matrix.identity(n + 1)


def test_exp_construction_closed_form():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            got = exp_construction(n, i)
            expected = (Matrix.identity(n + 1)
                        + Matrix.unit(n + 1, i, i + 1)
                        - Matrix.unit(n + 1, i + 1, i)
                        - Matrix.unit(n + 1, i, i)
                        - Matrix.unit(n + 1, i + 1, i + 1))
            assert got.m == expected
            assert got.m == sigma_generator(TitsSection.ones(n), i).m


def test_evaluate_word_identities():
    s = TitsSection.ones(2)
    assert evaluate_word(s, parse_word(2, "1 -1")).m == Matrix.identity(3)
    assert evaluate_word(s, parse_word(2, "")).m == Matrix.identity(3)
    lhs = evaluate_word(s, parse_word(2, "1 2 1"))
    rhs = evaluate_word(s, parse_word(2, "2 1 2"))
    assert lhs.m == rhs.m
    with pytest.raises(ValueError):
        evaluate_word(s, parse_word(3, "1"))


def test_fold_matches_the_dense_product():
    # the fold and scales_at against evaluate_word, the dense product of
    # the written-out lifts; the second half draws letters from two
    # indices, so every word repeats a letter and uses both exponents of
    # it
    rng = random.Random(23)
    for trial in range(80):
        n = rng.randint(1, 4)
        s = random_section(rng, n)
        if trial < 40:
            w = parse_word(n, " ".join(
                str(rng.choice([-1, 1]) * rng.randint(1, n))
                for _ in range(rng.randint(0, 12))))
        else:
            i, j = rng.randint(1, n), rng.randint(1, n)
            signed = [i, -i] + [rng.choice([-1, 1]) * rng.choice([i, j])
                                for _ in range(rng.randint(1, 12))]
            rng.shuffle(signed)
            w = BraidWord.from_ints(n, signed)
        assert fast(s, w.letters) == dense(s, w.letters)


def test_lift_times_its_inverse_is_the_identity():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        s = random_section(rng, n)
        identity = (tuple(range(1, n + 2)), (1,) * (n + 1))
        for i in range(1, n + 1):
            for letters in (((i, 1), (i, -1)), ((i, -1), (i, 1))):
                assert fast(s, letters) == dense(s, letters) == identity
    # a letter is S_i or its inverse, for i in 1..n
    with pytest.raises(ValueError, match="exponent must be"):
        BraidWord(2, ((1, 2),))
    with pytest.raises(ValueError, match="out of range"):
        BraidWord(2, ((3, 1),))


def test_word_permutation_is_the_natural_projection():
    # the permutation part of a word's value does not see the section
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 6)
        s = random_section(rng, n)
        w = parse_word(n, " ".join(
            str(rng.choice([-1, 1]) * rng.randint(1, n))
            for _ in range(rng.randint(0, 15))))
        assert natural_projection(w) == coset_class(evaluate_word(s, w))


def _random_word(rng, n, longest):
    return BraidWord(n, tuple((rng.randint(1, n), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, longest))))


def test_generic_value_at_random_sections_is_the_dense_product():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 6)
        letters = _random_word(rng, n, 40).letters
        for _ in range(2):
            s = random_section(rng, n)
            assert fast(s, letters) == dense(s, letters)
    # one long word, whose value at a = 1 has been negated thousands of
    # times on its way
    w = BraidWord(3, tuple((rng.randint(1, 3), rng.choice((1, -1)))
                           for _ in range(5000)))
    s = random_section(rng, 3)
    assert fast(s, w.letters) == dense(s, w.letters)


WORDS_AND_SECTIONS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, n) | st.integers(-n, -1), max_size=30),
    st.lists(st.fractions(-9, 9, max_denominator=9).filter(bool),
             min_size=n, max_size=n).map(
        lambda params: TitsSection(n, tuple(params)))))


@settings(max_examples=80, deadline=None)
@given(WORDS_AND_SECTIONS)
def test_eval_word_prints_the_dense_product_of_determinant_one(case):
    # eval-word computes no determinant: its value has sign(sigma) times
    # the product of its scales equal to 1, as the dense product does,
    # and the matrix it prints is that dense product
    signed, s = case
    value = evaluate_word(s, BraidWord.from_ints(s.n, signed)).m
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval-word", "--n", str(s.n),
                     "--word", " ".join(map(str, signed)),
                     "--params=" + ",".join(map(scalar_to_str, s.params))])
    assert code == 0
    payload = json.loads(out.getvalue())
    sign = Permutation(tuple(payload["permutation"])).sign()
    scales = map(Fraction, payload["scales"])
    assert sign * math.prod(scales) == 1 == value.det()
    assert payload["matrix"] == matrix_to_json(value)


def test_value_at_a_section_is_the_torus_conjugate_of_the_value_at_one():
    # with t_k = a_k ... a_n, S_w(a) = diag(t) S_w(1) diag(t)^-1 for the
    # dense products, so column j of the value at s is
    # eps_j t_{sigma(j)} / t_j in row sigma(j), as scales_at has it
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 6)
        w = _random_word(rng, n, 40)
        value = letters_fold(n)(w.letters)
        s = random_section(rng, n)
        t = [Fraction(1)] * (n + 1)
        for k in reversed(range(n)):
            t[k] = s.params[k] * t[k + 1]
        d = Matrix.diagonal(t)
        at_one = evaluate_word(TitsSection.ones(n), w).m
        at_s = evaluate_word(s, w).m
        assert at_s == d * at_one * d.inv()
        scales = scales_at(s, value)
        for j, x in enumerate(value):
            row, sign = abs(x), (1 if x > 0 else -1)
            assert at_one[row, j + 1] == sign
            assert at_s[row, j + 1] == scales[j] == sign * t[row - 1] / t[j]


def test_generic_and_section_verdicts_agree():
    # the verdict at s is the verdict at a = 1: two words have equal dense
    # values at a section exactly when their folds are equal
    rng = random.Random(107)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        fold, s = letters_fold(n), random_section(rng, n)
        u = _random_word(rng, n, 20).letters
        cut, i = rng.randint(0, len(u)), rng.randint(1, n)
        # S_i^4 = 1 holds at every section, S_i^2 is a sign change
        insert = ((i, rng.choice((1, -1))),) * rng.choice((2, 4))
        v = u[:cut] + insert + u[cut:]
        at_s = evaluate_word(s, BraidWord(n, u))
        for x in (v, _random_word(rng, n, 20).letters):
            at_one = fold(u) == fold(x)
            assert at_one == (at_s == evaluate_word(s, BraidWord(n, x)))
            outcomes.add(at_one)
    assert outcomes == {True, False}


def _fold_closure(n):
    """Every fold value at rank n, reached breadth first by extending
    words one letter at a time and folding each new word."""
    fold = letters_fold(n)
    letters = [(i, e) for i in range(1, n + 1) for e in (1, -1)]
    seen, frontier = {fold(())}, [()]
    while frontier:
        longer = []
        for word in frontier:
            for letter in letters:
                value = fold(word + (letter,))
                if value not in seen:
                    seen.add(value)
                    longer.append(word + (letter,))
        frontier = longer
    return seen


def test_fold_values_are_the_extended_weyl_group():
    # the lifts at a = 1 generate the signed permutation matrices of
    # determinant one, sign(sigma) * prod eps_j = 1: 2^n (n+1)! of them
    for n in range(1, 5):
        values = _fold_closure(n)
        assert len(values) == 2 ** n * factorial(n + 1)
        for value in values:
            sigma = Permutation(tuple(abs(x) for x in value))
            signs = sum(x < 0 for x in value)
            assert sigma.sign() * (-1) ** signs == 1


def test_adjoint_group_is_the_quotient_by_plus_minus_one_at_odd_rank(
        adjoint_images):
    # Ad(v) = Ad(w) exactly when v = +-w, so <tau_i> has one element per
    # fold value up to sign.  -I has determinant (-1)^(n+1), so it is a
    # fold value exactly when n is odd: there <tau_i> is the quotient of
    # the lifts' group by +-I, of index 2, and at even n it is isomorphic
    # to that group
    for n in range(1, 6):
        values = _fold_closure(n)
        classes = {frozenset((v, tuple(-x for x in v))) for v in values}
        order = 2 ** n * factorial(n + 1)
        assert len(values) == order
        assert len(classes) == (order // 2 if n % 2 else order), n
        # the generator images tell the automorphisms apart
        assert len({adjoint_images(v) for v in values}) == len(classes)
        assert (tuple(-k for k in range(1, n + 2)) in values) == (n % 2 == 1)


def test_fold_rejects_words_of_another_rank():
    with pytest.raises(ValueError, match="rank-2"):
        evaluate_word(TitsSection.ones(2), BraidWord.from_ints(3, [3]))
    with pytest.raises(ValueError, match="rank mismatch"):
        scales_at(TitsSection.ones(2), letters_fold(3)(()))


def test_normalizer_decompose_diagonal_and_permutation():
    d = GroupElement(Matrix.diagonal([2, Fraction(1, 2)]))
    dec = normalizer_decompose(d)
    assert dec.sigma == Permutation.identity(2)
    assert dec.scales == (2, Fraction(1, 2))

    p = GroupElement(Matrix([[0, -1], [1, 0]]))
    dec = normalizer_decompose(p)
    assert dec.sigma == Permutation((2, 1))
    assert dec.scales == (1, -1)


def test_normalizer_rejects_non_monomial():
    g = GroupElement(Matrix([[1, 1], [0, 1]]))
    with pytest.raises(NotInNormalizer):
        normalizer_decompose(g)


def test_decompose_reconstruct_round_trip():
    rng = random.Random(7)
    for n in (1, 2, 3):
        s = random_section(rng, n)
        g = GroupElement.identity(n + 1)
        for _ in range(6):
            i = rng.randint(1, n)
            g = g * sigma_generator(s, i)
            if rng.random() < 0.5:
                g = g * random_torus(rng, n + 1)
        dec = normalizer_decompose(g)
        assert dec.reconstruct().m == g.m


def test_monomial_decomposition_validation():
    with pytest.raises(ValueError):
        MonomialDecomposition(Permutation.identity(2), (1,))
    with pytest.raises(ValueError):
        MonomialDecomposition(Permutation.identity(2), (1, 0))


def test_coset_class_and_quotient_is_torus():
    rng = random.Random(19)
    s = random_section(rng, 3)
    g = evaluate_word(s, parse_word(3, "1 3 2 1"))
    sigma = coset_class(g)
    # the signed permutation matrix of sigma: sign(sigma) in column 1
    dim = sigma.n_points
    rep = GroupElement(Matrix(
        [[(sigma.sign() if c == 1 else 1) if sigma(c) == r else 0
          for c in range(1, dim + 1)] for r in range(1, dim + 1)]))
    quotient = g * rep.inv()
    assert quotient.m.is_diagonal()


def test_coset_class_is_multiplicative():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 3)
        s = random_section(rng, n)
        w1 = [rng.randint(1, n) for _ in range(rng.randint(1, 5))]
        w2 = [rng.randint(1, n) for _ in range(rng.randint(1, 5))]
        x = evaluate_word(s, parse_word(n, " ".join(map(str, w1))))
        y = evaluate_word(s, parse_word(n, " ".join(map(str, w2))))
        assert coset_class(x * y) == coset_class(x) * coset_class(y)


def test_rational_nth_root():
    assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_nth_root(16, 4) == 2
    assert rational_nth_root(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert rational_nth_root(2, 2) is None
    assert rational_nth_root(-4, 2) is None
    assert rational_nth_root(Fraction(10, 9), 2) is None
    assert rational_nth_root(0, 5) == 0
    # a radicand big enough to stress the integer Newton iteration
    big = Fraction(10 ** 60 + 3, 7 ** 30)
    assert rational_nth_root(big ** 3, 3) == big
    for k in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            rational_nth_root(8, k)


def test_conjugation_witness_worked_instance():
    t = conjugation_witness(TitsSection(1, (1,)), TitsSection(1, (4,)))
    assert t.m == Matrix.diagonal([Fraction(1, 2), 2])


def test_conjugation_witness_conjugates_every_generator():
    rng = random.Random(29)
    for n in (1, 2, 3):
        a = random_section(rng, n)
        r = [Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
             for _ in range(n)]
        b = TitsSection(n, tuple(
            a.params[i] * r[i] ** (n + 1) for i in range(n)))
        t = conjugation_witness(a, b)
        assert t.m.is_diagonal()
        assert t.m.det() == 1
        for i in range(1, n + 1):
            assert t.conjugate(sigma_generator(b, i)).m == \
                sigma_generator(a, i).m


def test_conjugation_witness_no_rational_root():
    with pytest.raises(NoExactWitness):
        conjugation_witness(TitsSection(1, (1,)), TitsSection(1, (2,)))


def test_conjugation_witness_rank_mismatch():
    with pytest.raises(ValueError):
        conjugation_witness(TitsSection.ones(1), TitsSection.ones(2))
