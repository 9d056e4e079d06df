"""Checks on titslift CLI output, computed without importing titslift.

The benchmark keeps its own small monomial arithmetic and its own table
of relation instances, so a wrong answer from the package cannot also
corrupt the check.  A monomial matrix is a permutation plus scales:
column j holds its single nonzero entry scales[j-1] in row perm[j-1]
(1-based points, 0-based lists).  The i-th lift at parameter a sends
e_{i+1} to a*e_i and e_i to -e_{i+1}/a; its inverse sends e_i to
e_{i+1}/a and e_{i+1} to -a*e_i.

Every check_* function returns a list of problems; an empty list means
the output passed.  self_test() shows that the checks can fail.
"""

from __future__ import annotations

import json
from fractions import Fraction

ADJOINT_TAG = {"2.9": "0.2", "2.10": "0.4", "2.11": "0.5", "2.12": "0.6"}


def frac_str(x) -> str:
    """Canonical string form of a rational: "p" or "p/q"."""
    return str(Fraction(x))


def lift_word(params: list[Fraction], word: list[int]):
    """Evaluate a signed-index word in the lifts, as (perm, scales)."""
    dim = len(params) + 1
    perm = list(range(1, dim + 1))
    scales = [Fraction(1)] * dim
    for v in word:
        i = abs(v)
        a = params[i - 1]
        # right-multiplying by a lift only touches columns i and i+1
        t_i, t_next = (-1 / a, a) if v > 0 else (1 / a, -a)
        c, d = i - 1, i
        perm[c], perm[d] = perm[d], perm[c]
        scales[c], scales[d] = t_i * scales[d], t_next * scales[c]
    return perm, scales


def to_rows(perm: list[int], scales: list[Fraction]) -> list[list[str]]:
    dim = len(perm)
    rows = [["0"] * dim for _ in range(dim)]
    for col, (row, x) in enumerate(zip(perm, scales)):
        rows[row - 1][col] = frac_str(x)
    return rows


def sign(perm: list[int]) -> int:
    """+1 for even permutations, -1 for odd ones, by cycle count."""
    seen = [False] * len(perm)
    s = 1
    for start in range(len(perm)):
        k, length = start, 0
        while not seen[k]:
            seen[k] = True
            k = perm[k] - 1
            length += 1
        if length and length % 2 == 0:
            s = -s
    return s


def relation_table(n: int) -> list[tuple[str, int, int, list[int], list[int]]]:
    """Every relation instance of rank n as (tag, i, j, left, right).

    2.11 is S_i^4 = 1 once per i.  For ordered pairs i != j: 2.9 is the
    braid relation of length 3 (adjacent) or 2 (distant), 2.10 says the
    squares commute, and 2.12 is S_i S_j^2 S_i^-1 = S_j^2 S_i^e with
    e = 2 for adjacent i, j and 0 otherwise.
    """
    out = [("2.11", i, i, [i] * 4, []) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            adjacent = abs(i - j) == 1
            m = 3 if adjacent else 2
            out.append(("2.9", i, j, [(i, j)[k % 2] for k in range(m)],
                        [(j, i)[k % 2] for k in range(m)]))
            out.append(("2.10", i, j, [i, i, j, j], [j, j, i, i]))
            out.append(("2.12", i, j, [i, j, j, -i],
                        [j, j] + ([i, i] if adjacent else [])))
    return out


def failing_relations(params: list[Fraction], table) -> list[tuple]:
    """The (tag, i, j) of each instance whose two sides differ."""
    return [(tag, i, j) for tag, i, j, left, right in table
            if lift_word(params, left) != lift_word(params, right)]


def _load(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError:
        problems.append("stdout is not JSON")
        return None


def check_verify(code: int, stdout: str, n: int, level: str) -> list[str]:
    """A passing report for rank n naming exactly the expected instances."""
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    obj = _load(stdout, problems)
    if obj is None:
        return problems
    if obj.get("n") != n:
        problems.append(f"report names rank {obj.get('n')}, expected {n}")
    rels = obj.get("relations") or []
    count = n + 3 * n * (n - 1)
    if len(rels) != count:
        problems.append(f"{len(rels)} instances, expected {count}")
    tag = (lambda t: ADJOINT_TAG[t]) if level == "adjoint" else (lambda t: t)
    want = {(tag(t), i, j) for t, i, j, _, _ in relation_table(n)}
    got = {(r.get("tag"), r.get("i"), r.get("j")) for r in rels}
    if got != want:
        problems.append(f"instance set differs: {len(got ^ want)} mismatches")
    failed = [r for r in rels if r.get("pass") is not True]
    if failed:
        problems.append(f"{len(failed)} instances do not pass")
    if obj.get("all_pass") is not True:
        problems.append("all_pass is not true")
    return problems


def check_eval_word(code: int, stdout: str, params: list[Fraction],
                    word: list[int]) -> list[str]:
    """Matrix, decomposition, projection and purity of a word's value."""
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    obj = _load(stdout, problems)
    if obj is None:
        return problems
    n = len(params)
    perm, scales = lift_word(params, word)
    want = {
        "n": n,
        "word": " ".join(str(v) for v in word),
        "matrix": {"dim": n + 1, "entries": to_rows(perm, scales)},
        "permutation": perm,
        "scales": [frac_str(x) for x in scales],
        "projection": perm,
        "pure": perm == list(range(1, n + 2)),
    }
    for key, value in want.items():
        if obj.get(key) != value:
            problems.append(f"{key} differs from the monomial arithmetic")
    try:
        got_perm = obj["permutation"]
        product = Fraction(sign(got_perm))
        for x in obj["scales"]:
            product *= Fraction(x)
        if product != 1:
            problems.append(f"sign * prod(scales) = {product}, expected 1")
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError):
        problems.append("permutation or scales unreadable")
    return problems


def check_normalizer(code: int, stdout: str, perm: list[int] | None,
                     scales: list[Fraction] | None) -> list[str]:
    """The matrix's own permutation and scales, or a non-monomial verdict.

    perm is None for a matrix built as monomial times elementary, which
    must come back with exit 1 and "in_normalizer": false.
    """
    problems: list[str] = []
    expected_code = 1 if perm is None else 0
    if code != expected_code:
        problems.append(f"exit {code}, expected {expected_code}")
    obj = _load(stdout, problems)
    if obj is None:
        return problems
    if perm is None:
        if obj.get("in_normalizer") is not False:
            problems.append("non-monomial matrix reported in the normalizer")
        return problems
    want = {"in_normalizer": True, "permutation": perm,
            "scales": [frac_str(x) for x in scales], "coset": perm}
    for key, value in want.items():
        if obj.get(key) != value:
            problems.append(f"{key} differs from the matrix's construction")
    return problems


def _mutate_json(stdout: str, edit) -> str:
    obj = json.loads(stdout)
    edit(obj)
    return json.dumps(obj)


def _negate_first_scale(obj):
    obj["scales"][0] = frac_str(-Fraction(obj["scales"][0]))


def _shift_first_instance(obj):
    obj["relations"][0]["j"] += 1


def _claim_monomial(obj):
    obj["in_normalizer"] = True


# the edit each kind of sample gets; each turns a right answer wrong
MUTATIONS = {"verify": _shift_first_instance,
             "eval-word": _negate_first_scale,
             "normalizer-check": _negate_first_scale,
             "normalizer-check-non-monomial": _claim_monomial}


def self_test(params: list[Fraction], samples: list[tuple]) -> list[str]:
    """Show that the checks reject wrong answers.

    params is a section of rank at least 2.  samples holds
    (kind, check, code, stdout) for real outputs that passed their
    check; a mutated copy of each must now fail it.  Returns the
    mutations that were wrongly accepted.
    """
    escaped: list[str] = []
    n = len(params)
    table = relation_table(n)
    if failing_relations(params, table):
        escaped.append("the unmutated relation table does not hold")
    squares = [(t, i, j, l[:2], r) for t, i, j, l, r in table if t == "2.11"]
    if len(failing_relations(params, squares)) != n:
        escaped.append("S_i^2 = 1 accepted")
    # S_i^-2 = S_i^2 since S_i has order four, so negating the exponent
    # e of 2.12 leaves a true relation; flip the sign of the trailing
    # S_i^-1 on the left instead, which is false for every pair
    flipped = [(t, i, j, l[:3] + [-l[3]], r)
               for t, i, j, l, r in table if t == "2.12"]
    if len(failing_relations(params, flipped)) != len(flipped):
        escaped.append("2.12 with S_i S_j^2 S_i accepted")
    for kind, check, code, stdout in samples:
        edit = MUTATIONS[kind]
        if not check(code, _mutate_json(stdout, edit)):
            escaped.append(f"{kind} output accepted after {edit.__name__}")
        if not check(1 - code, stdout):
            escaped.append(f"{kind} output with a wrong exit code accepted")
    return escaped
