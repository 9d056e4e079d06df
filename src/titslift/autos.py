"""Automorphisms of the trace-zero matrix algebra attached to braid
generators, and batch verification of the relations they satisfy.

The i-th automorphism is exp(ad e_i) exp(ad(-f_i)) exp(ad e_i).  It equals
conjugation by the parameter-1 lift of the i-th braid generator, a
monomial matrix, so it is built here in closed form from that lift's
permutation and scales, as sparse columns.  The dense exp(ad) product
stays available through ``liealg.ad_matrix`` and ``linalg.exp_nilpotent``
as an independent check.  Only this operator code loads ``liealg``.

The relation sweep builds no operator and no braid word.  It reads the
relation table as rows of plain letters (``braid.relation_words``) and
folds each side once into its value at a = 1, a signed permutation
(``tits.letters_fold``).  Every section's lifts are one torus conjugate
of those at a = 1, so the group verdict is L = R there.  Ad(L) = Ad(R)
exactly when L R^-1 is central, and the only central signed permutations
are +-I, so the algebra verdict is L = +-R.  A failing check keeps the two
sides: their values at the section for the group, and for the algebra the
images of e_1..e_n, f_1..f_n, which generate it: Ad(g) sends e_k to
s_k s_{k+1} E_{sigma(k), sigma(k+1)} and f_k to the transposed unit with
the same coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .braid import relation_words
from .records import Scalar, canonical, frozen
from .tits import (GroupElement, TitsSection, letters_fold, monomial_lift,
                   value_at)

if TYPE_CHECKING:  # the operator code loads these where it builds them
    from .liealg import LieElement
    from .linalg import Matrix

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
        from .liealg import dimension
        d = dimension(self.n)
        if len(self.cols) != d:
            raise ValueError(
                f"operator must be {d}x{d} for rank {self.n}, "
                f"got {len(self.cols)}x{len(self.cols)}")

    @property
    def op(self) -> Matrix:
        """The operator as a dense d x d matrix."""
        from .linalg import Matrix
        d = len(self.cols)
        rows = [[0] * d for _ in range(d)]
        for k, col in enumerate(self.cols):
            for r, x in col.items():
                rows[r][k] = x
        return Matrix(rows)

    def apply(self, x: LieElement) -> LieElement:
        from .liealg import LieElement
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
    from .liealg import Cartan, OffDiagonal, basis_indices, slot
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
    from .liealg import LieElement, basis_indices, basis_matrix
    if g.dim != n + 1:
        raise ValueError(f"group element dim {g.dim} does not match rank {n}")
    g_inv = g.m.inv()
    cols = []
    for idx in basis_indices(n):
        image = LieElement.from_matrix(n, g.m * basis_matrix(n, idx) * g_inv)
        cols.append({r: x for r, x in enumerate(image.coords) if x != 0})
    return AlgebraAutomorphism(n, tuple(cols))


@frozen(hidden=("left", "right"))
class RelationCheck:
    """Outcome of one relation instance: tag, indices, verdict.

    On failure, left and right hold the two sides' values: the generator
    images as (row, column, coefficient) triples, or the monomial
    decompositions at the section.  They stay None on a pass and never
    take part in equality or the JSON form.
    """

    tag: str
    i: int
    j: int
    passed: bool
    left: object = None
    right: object = None


@frozen
class RelationReport:
    """All relation checks for one rank, sorted by (tag, i, j)."""

    n: int
    relations: tuple[RelationCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(
            sorted(self.relations, key=lambda r: (r.tag, r.i, r.j))))

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.relations)

    def failures(self) -> list[RelationCheck]:
        return [r for r in self.relations if not r.passed]


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
    try:
        rels = tuple(
            RelationCheck(r["tag"], r["i"], r["j"], r["pass"])
            for r in obj["relations"]
        )
        return RelationReport(obj["n"], rels)
    except (TypeError, KeyError) as exc:
        raise ValueError("report JSON needs 'n' and 'relations'") from exc


_ADJOINT_TAG = {"2.9": "0.2", "2.10": "0.4", "2.11": "0.5", "2.12": "0.6"}


def _adjoint_images(value: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """e_1..e_n, then f_1..f_n, under Ad of the value at a = 1, each a
    matrix unit E_{row, column} times a coefficient, as a triple."""
    e = [(abs(x), abs(y), 1 if x * y > 0 else -1)
         for x, y in zip(value, value[1:])]
    return tuple(e + [(col, row, c) for row, col, c in e])


def verify(s: TitsSection, level: str) -> RelationReport:
    """Check every defining relation for rank s.n at one level: "group"
    for the lifts of the section s, "adjoint" for the automorphisms they
    induce (which do not depend on s), or "all" for both.

    Each row of relation_words(s.n) is folded once, side by side, and
    both levels read their verdict off the two values at a = 1.  A word
    shared by several rows is folded for each: looking its value up would
    cost about as much as the fold.
    """
    if level not in ("group", "adjoint", "all"):
        raise ValueError(f"unknown level {level!r}")
    group, adjoint = level != "adjoint", level != "group"
    fold, checks = letters_fold(s.n), []
    for tag, i, j, left_letters, right_letters in relation_words(s.n):
        left, right = fold(left_letters), fold(right_letters)
        same = left == right
        # every field by position: the record's fast path
        if group:
            checks.append(RelationCheck(
                tag, i, j, same,
                None if same else value_at(s, left),
                None if same else value_at(s, right)))
        if adjoint:
            passed = same or left == tuple([-x for x in right])
            checks.append(RelationCheck(
                _ADJOINT_TAG[tag], i, j, passed,
                None if passed else _adjoint_images(left),
                None if passed else _adjoint_images(right)))
    return RelationReport(s.n, tuple(checks))


def verify_theorem1(n: int) -> RelationReport:
    """Check every defining relation at the algebra level for rank n."""
    return verify(TitsSection.ones(n), "adjoint")


def verify_group_relations(s: TitsSection) -> RelationReport:
    """Check every defining relation for the lifts of one section."""
    return verify(s, "group")
