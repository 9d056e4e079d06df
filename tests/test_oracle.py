"""The lifts against the benchmark's own arithmetic.

bench/oracle.py evaluates words in the lifts without importing titslift,
so a wrong lift fails here before a benchmark run reports it as a wrong
answer.
"""

import importlib.util
import pathlib
import random
from fractions import Fraction

from titslift.braid import BraidWord
from titslift.records import TitsSection
from titslift.tits import monomial_word

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
        value = monomial_word(s, w)
        assert value.sigma.images == tuple(perm)
        assert value.scales == tuple(scales)
