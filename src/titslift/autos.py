"""Automorphisms of the trace-zero matrix algebra attached to braid
generators, and batch verification of the relations they satisfy.

The i-th automorphism is exp(ad e_i) exp(ad(-f_i)) exp(ad e_i).  It equals
conjugation by the parameter-1 lift of the i-th braid generator, a
monomial matrix, so it is built here in closed form from that lift's
permutation and scales, as sparse columns.  The dense exp(ad) product
stays available through ``liealg.ad_matrix`` and ``linalg.exp_nilpotent``
as an independent check.  The relation sweep builds no operator: this
module holds the JSON form of the reports of ``relations.verify``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .liealg import (Cartan, LieElement, OffDiagonal, basis_indices,
                     basis_matrix, dimension, slot)
from .linalg import Matrix
from .records import Scalar, TitsSection, canonical, frozen
from .relations import (_ADJOINT_TAG, RelationCheck, RelationReport,
                        relation_words, verify)
from .tits import GroupElement, monomial_lift

Column = dict[int, Scalar]  # 0-based row -> nonzero entry


def _combine(cols: tuple[Column, ...], vec: Column) -> Column:
    """The sparse vector sum_r vec[r] * cols[r], zeros dropped."""
    out: dict[int, Scalar] = {}
    for r, x in vec.items():
        for s, y in cols[r].items():
            out[s] = out.get(s, 0) + x * y
    return {s: canonical(v) for s, v in out.items() if v != 0}


@frozen
class AlgebraAutomorphism:
    """An invertible linear map on the algebra, in basis coordinates.

    cols[k] is the image of the k-th basis vector as a sparse column: a
    dict from 0-based row to its nonzero, canonical entry.  Equality is
    exact.
    """

    n: int
    cols: tuple[Column, ...]

    def __post_init__(self):
        d = dimension(self.n)
        if len(self.cols) != d:
            raise ValueError(
                f"operator must be {d}x{d} for rank {self.n}, "
                f"got {len(self.cols)}x{len(self.cols)}")

    @property
    def op(self) -> Matrix:
        """The operator as a dense d x d matrix."""
        d = len(self.cols)
        rows = [[0] * d for _ in range(d)]
        for k, col in enumerate(self.cols):
            for r, x in col.items():
                rows[r][k] = x
        return Matrix(rows)

    def apply(self, x: LieElement) -> LieElement:
        if x.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {x.n}")
        coords = _combine(self.cols, dict(enumerate(x.coords)))
        return LieElement(self.n, tuple(coords.get(r, 0)
                                        for r in range(len(self.cols))))


@lru_cache(maxsize=None)
def _tau_power(n: int, i: int, e: int) -> AlgebraAutomorphism:
    """tau_i^e for a letter's exponent e, which is +1 or -1.

    This is conjugation by S_i^e, the e-th power of the parameter-1 lift.
    Read it as g = sum_j s_j E_{sigma(j), j}.  Then x -> g x g^{-1} sends
    E_jk to (s_j / s_k) E_{sigma(j), sigma(k)}, and the coroot h_k to the
    diagonal matrix E_{sigma(k), sigma(k)} - E_{sigma(k+1), sigma(k+1)},
    whose h-coordinates are its cumulative sums.
    """
    dec = monomial_lift(TitsSection.ones(n), i, e)
    sigma, s = dec.sigma, dec.scales
    cols = []
    for idx in basis_indices(n):
        if isinstance(idx, OffDiagonal):
            target = OffDiagonal(sigma(idx.row), sigma(idx.col))
            ratio = Fraction(s[idx.row - 1]) / s[idx.col - 1]
            cols.append({slot(n, target): canonical(ratio)})
            continue
        diag = [0] * (n + 1)
        diag[sigma(idx.index) - 1] = 1
        diag[sigma(idx.index + 1) - 1] = -1
        col = {}
        running = 0
        for m in range(1, n + 1):
            running += diag[m - 1]
            if running:
                col[slot(n, Cartan(m))] = running
        cols.append(col)
    return AlgebraAutomorphism(n, tuple(cols))


def tau_generator(n: int, i: int) -> AlgebraAutomorphism:
    """exp(ad e_i) exp(ad(-f_i)) exp(ad e_i) as a coordinate operator."""
    return _tau_power(n, i, 1)


def conjugation_automorphism(g: GroupElement, n: int) -> AlgebraAutomorphism:
    """The operator x -> g x g^{-1} on trace-zero matrices."""
    if g.dim != n + 1:
        raise ValueError(f"group element dim {g.dim} does not match rank {n}")
    g_inv = g.m.inv()
    cols = []
    for idx in basis_indices(n):
        image = LieElement.from_matrix(n, g.m * basis_matrix(n, idx) * g_inv)
        cols.append({r: x for r, x in enumerate(image.coords) if x != 0})
    return AlgebraAutomorphism(n, tuple(cols))


def report_to_json(rep: RelationReport) -> dict:
    return {
        "n": rep.n,
        "relations": [
            {"tag": r.tag, "i": r.i, "j": r.j, "pass": r.passed}
            for r in rep.relations
        ],
        "all_pass": rep.all_pass,
    }


def report_from_json(obj: dict) -> RelationReport:
    """The inverse of report_to_json.  Only what a sweep can write is read
    back: a field of the wrong type, an "all_pass" that contradicts the
    entries, or entries that are not the (tag, i, j) rows of
    relation_words(n), each once, at every level whose tags the document
    holds (so no other tag and no index outside 1..n), raise."""
    try:
        n, rels = obj["n"], tuple(
            RelationCheck(r["tag"], r["i"], r["j"], r["pass"])
            for r in obj["relations"]
        )
    except (TypeError, KeyError) as exc:
        raise ValueError("report JSON needs 'n' and 'relations'") from exc
    if type(n) is not int or any(
            (type(r.tag), type(r.i), type(r.j), type(r.passed))
            != (str, int, int, bool) for r in rels):
        raise ValueError("report needs int n, i, j, a str tag, a bool pass")
    keys = {(r.tag, r.i, r.j) for r in rels}
    groups = {tag in _ADJOINT_TAG for tag, _, _ in keys}  # True: a group tag
    # n rows of 2.11 and 3 per ordered pair i != j at each level, counted
    # first, so that a large n builds no table for a short document
    if not rels or len(rels) != len(keys) or \
            len(keys) != len(groups) * (3 * n * n - 2 * n) or \
            keys != {(tag if group else _ADJOINT_TAG[tag], i, j)
                     for tag, i, j, _, _ in relation_words(n)
                     for group in groups}:
        raise ValueError(f"entries are not the rows of rank {n}, each once, "
                         "at every level the document holds")
    report = RelationReport(n, rels)
    if "all_pass" in obj and obj["all_pass"] is not report.all_pass:
        raise ValueError("'all_pass' does not match the relations")
    return report


def verify_theorem1(n: int) -> RelationReport:
    """Check every defining relation at the algebra level for rank n."""
    return verify(TitsSection.ones(n), "adjoint")


def verify_group_relations(s: TitsSection) -> RelationReport:
    """Check every defining relation for the lifts of one section."""
    return verify(s, "group")
