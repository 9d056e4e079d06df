"""Acceptance gate.

One test per criterion, each printing a single line

    ACCEPTANCE C<k> PASS|FAIL: <what was checked>

so the suite output doubles as a certificate.  Every comparison is exact
rational equality; there is no tolerance anywhere.  Randomized criteria
use fixed seeds so reruns check the same instances.
"""

import random
import time
from fractions import Fraction

from titslift.autos import (conjugation_automorphism, tau_generator,
                            verify_group_relations, verify_theorem1)
from titslift.braid import BraidWord, is_pure, natural_projection
from titslift.liealg import Cartan, OffDiagonal, decompose_by_cartan, generator
from titslift.linalg import Matrix
from titslift.records import TitsSection
from titslift.roots import all_roots, pairing, reflect, simple_root, weyl_action
from titslift.tits import (GroupElement, NotInNormalizer, Permutation,
                           conjugation_witness, coset_class, evaluate_word,
                           exp_construction, normalizer_decompose,
                           sigma_generator)


def report(k, ok, detail):
    print(f"ACCEPTANCE C{k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


def random_rational(rng, lo=1, hi=5):
    num = rng.randint(lo, hi) * rng.choice([1, -1])
    den = rng.randint(1, 4)
    return Fraction(num, den)


def test_c1_adjoint_relation_sweep():
    t0 = time.time()
    ok = True
    checked = 0
    for n in range(1, 6):
        rows = verify_theorem1(n)
        checked += len(rows)
        ok = ok and all(r[3] for r in rows)
    elapsed = time.time() - t0
    # 3n^2 - 2n rows at rank n: 2.11 once per i, the rest per pair i != j
    ok = ok and checked == 135 and elapsed < 60
    report(1, ok, f"adjoint relations 0.2/0.4/0.5/0.6 for n=1..5, "
                  f"{checked} instances, exact, {elapsed:.1f}s")


def test_c2_group_relation_sweep():
    rng = random.Random(2026)
    ok = True
    checked = 0
    for n in range(1, 6):
        sections = [TitsSection.ones(n)]
        for _ in range(3):
            sections.append(TitsSection(
                n, tuple(random_rational(rng) for _ in range(n))))
        for s in sections:
            rows = verify_group_relations(s)
            checked += len(rows)
            ok = ok and all(r[3] for r in rows)
    ok = ok and checked == 4 * 135  # four sections per rank
    report(2, ok, f"group relations 2.9-2.12 for n=1..5, all-ones plus "
                  f"3 random sections per rank, {checked} instances")


def test_c3_generator_equals_conjugation_by_its_lift():
    ok = True
    for n in range(1, 6):
        for i in range(1, n + 1):
            tau = tau_generator(n, i)
            lift = exp_construction(n, i)
            conj = conjugation_automorphism(lift, n)
            ok = ok and tau.op == conj.op
            closed = (Matrix.identity(n + 1)
                      + Matrix.unit(n + 1, i, i + 1)
                      - Matrix.unit(n + 1, i + 1, i)
                      - Matrix.unit(n + 1, i, i)
                      - Matrix.unit(n + 1, i + 1, i + 1))
            ok = ok and lift.m == closed
    report(3, ok, "operator = conjugation by the exponential lift, and the "
                  "lift matches its closed form, n=1..5, all i")


def test_c4_words_project_compatibly():
    rng = random.Random(4096)
    ok = True
    total = 0
    for n in (2, 3, 4):
        s = TitsSection.ones(n)
        s_rand = TitsSection(
            n, tuple(random_rational(rng) for _ in range(n)))
        for k in range(200):
            section = s if k % 2 == 0 else s_rand
            length = rng.randint(0, 12)
            w = BraidWord(n, tuple(
                (rng.randint(1, n), rng.choice([1, -1]))
                for _ in range(length)))
            g = evaluate_word(section, w)
            ok = ok and coset_class(g) == natural_projection(w)
            ok = ok and (is_pure(w) == g.m.is_diagonal())
            total += 1
    report(4, ok, f"coset class = symmetric-group projection and "
                  f"pure <=> diagonal, {total} random words, n=2..4")


def test_c5_normalizer_characterization():
    rng = random.Random(555)
    ok = True
    accepted = 0
    # products of lifts and torus elements always decompose and round-trip
    for n in (1, 2, 3, 4):
        s = TitsSection(n, tuple(random_rational(rng) for _ in range(n)))
        for _ in range(25):
            g = GroupElement.identity(n + 1)
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.6:
                    g = g * sigma_generator(s, rng.randint(1, n))
                else:
                    entries = [random_rational(rng) for _ in range(n)]
                    prod = Fraction(1)
                    for x in entries:
                        prod *= x
                    entries.append(1 / prod)
                    g = g * GroupElement(Matrix.diagonal(entries))
            try:
                dec = normalizer_decompose(g)
            except NotInNormalizer:
                ok = False
                break
            ok = ok and dec.reconstruct().m == g.m
            accepted += 1
    # random non-monomial determinant-one matrices are rejected
    rejected = 0
    for dim in (2, 3, 4, 5):
        count = 0
        while count < 100:
            rows = [[rng.randint(-3, 3) for _ in range(dim)]
                    for _ in range(dim)]
            m = Matrix(rows)
            d = m.det()
            if d == 0:
                continue
            scaled = [list(m.rows[0])] + [list(r) for r in m.rows[1:]]
            scaled[0] = [Fraction(x, d) for x in scaled[0]]
            g = GroupElement(Matrix(scaled))
            try:
                normalizer_decompose(g)
                continue  # happened to be monomial, draw again
            except NotInNormalizer:
                rejected += 1
                count += 1
    ok = ok and rejected == 400
    report(5, ok, f"{accepted} generator-torus products decomposed and "
                  f"reconstructed, {rejected} non-monomial matrices rejected")


def test_c6_conjugation_witness():
    rng = random.Random(66)
    ok = True
    # the worked rank-one instance
    t = conjugation_witness(TitsSection(1, (1,)), TitsSection(1, (4,)))
    ok = ok and t.m == Matrix.diagonal([Fraction(1, 2), 2])
    pairs = 0
    for n in (1, 2, 3, 4):
        for _ in range(20):
            a = TitsSection(
                n, tuple(random_rational(rng) for _ in range(n)))
            r = [Fraction(rng.randint(1, 3), rng.randint(1, 2))
                 for _ in range(n)]
            b = TitsSection(n, tuple(
                a.params[i] * r[i] ** (n + 1) for i in range(n)))
            t = conjugation_witness(a, b)
            for i in range(1, n + 1):
                ok = ok and t.conjugate(sigma_generator(b, i)).m == \
                    sigma_generator(a, i).m
            pairs += 1
    report(6, ok, f"torus witness conjugates all lifts exactly, "
                  f"{pairs} random parameter pairs for n=1..4, plus the "
                  f"pinned rank-one instance diag(1/2, 2)")


def test_c7_root_system_consistency():
    ok = True
    # reflecting in a root acts as the matching coordinate transposition
    for n in (1, 2, 3, 4):
        for alpha in all_roots(n):
            i = alpha.eps.index(1) + 1
            j = alpha.eps.index(-1) + 1
            swap = Permutation.transposition(n + 1, i, j)
            for beta in all_roots(n):
                ok = ok and reflect(alpha, beta) == weyl_action(swap, beta)
    # simple reflections satisfy the Coxeter presentation exhaustively
    for n in range(1, 6):
        refl = [Permutation.transposition(n + 1, i, i + 1)
                for i in range(1, n + 1)]
        ident = Permutation.identity(n + 1)
        for i in range(n):
            ok = ok and refl[i] * refl[i] == ident
            for j in range(n):
                if i == j:
                    continue
                m = 3 if abs(i - j) == 1 else 2
                prod = ident
                for _ in range(m):
                    prod = prod * refl[i] * refl[j]
                ok = ok and prod == ident
    # the integer pairing table takes only the values 2, -1, 0
    for n in (2, 3, 4, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                val = pairing(simple_root(n, j), i)
                expect = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                ok = ok and val == expect
    report(7, ok, "reflections match transpositions on all roots (n<=4), "
                  "Coxeter relations exhaustive (n<=5), pairing table "
                  "{2,-1,0} exact")


def test_c8_adjoint_eigenvalue_decomposition():
    ok = True
    for n in range(1, 6):
        for i in range(1, n + 1):
            buckets = decompose_by_cartan(n, generator(n, "h", i))
            ok = ok and set(buckets) <= {-2, -1, 0, 1, 2}
            ok = ok and OffDiagonal(i, i + 1) in buckets.get(2, [])
            ok = ok and OffDiagonal(i + 1, i) in buckets.get(-2, [])
            ok = ok and all(isinstance(b, Cartan) or b.row != b.col
                            for b in buckets.get(0, []))
    report(8, ok, "eigenvalues of ad(h_i) lie in {-2..2} with the raising "
                  "slot at +2 and lowering slot at -2, n=1..5")
