"""The lifts against the benchmark's own arithmetic.

bench/oracle.py evaluates words in the lifts without importing titslift,
so a wrong lift fails here before a benchmark run reports it as a wrong
answer: the fast path that eval-word runs (the fold at a = 1 moved by
relations.scales_at) on every word, and the written-out definition
(tits.evaluate_word) on the first letters of each.
"""

import importlib.util
import pathlib
import random
from fractions import Fraction

from titslift.braid import BraidWord
from titslift.records import TitsSection
from titslift.relations import scales_at
from titslift.sweep import letters_fold
from titslift.tits import evaluate_word, normalizer_decompose

ORACLE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_word_values_match_the_benchmark_oracle():
    oracle = _load_oracle()
    rng = random.Random(211)
    for _ in range(40):
        n = rng.randint(1, 8)
        params = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                           rng.randint(1, 9)) for _ in range(n)]
        s = TitsSection(n, tuple(params))
        signed = [rng.choice((-1, 1)) * rng.randint(1, n)
                  for _ in range(rng.randint(0, 1200))]
        w = BraidWord.from_ints(n, signed)
        perm, scales = oracle.lift_word(params, signed)
        value = letters_fold(n)(w.letters)
        assert list(map(abs, value)) == perm
        assert scales_at(s, value) == scales
        short = signed[:30]
        perm, scales = oracle.lift_word(params, short)
        dense = normalizer_decompose(
            evaluate_word(s, BraidWord.from_ints(n, short)))
        assert dense.sigma.images == tuple(perm)
        assert dense.scales == tuple(scales)
