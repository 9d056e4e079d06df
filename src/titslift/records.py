"""The exact scalars, and ``TitsSection``, the one record a CLI call
builds.

A scalar is an int or a ``fractions.Fraction`` in canonical form: a
Fraction with denominator 1 collapses to an int, so equality is plain
structural equality.  ``canonical`` and ``parse_scalar`` are the only ways
in, ``scalar_to_str`` the way out.  ``INT_TEXT`` is the "p" of the
scalar grammar, which ``relations.parse_letters`` also reads words with.
"""

import re
from fractions import Fraction

Scalar = int | Fraction

INT_TEXT = re.compile(r"-?[0-9]+")  # unlike int(): no "+1", "1_0" or "١"
_SCALAR_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def canonical(x: Scalar | str) -> Scalar:
    """Return x as an int when integral, else as a reduced Fraction.

    Accepts ints, Fractions and strings "p" or "p/q" like "-3/2"; floats,
    bools and other strings ("1.5", "+3") are rejected with ValueError.

    >>> from fractions import Fraction
    >>> canonical(Fraction(4, 2))
    2
    >>> canonical("5/10")
    Fraction(1, 2)
    """
    if type(x) is int:
        return x
    if isinstance(x, (bool, float)):
        raise ValueError(
            f"scalar must be exact, not a float or bool, got {x!r}")
    if isinstance(x, str) and not _SCALAR_TEXT.fullmatch(x):
        raise ValueError(f'scalar string must be "p" or "p/q", got {x!r}')
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def parse_scalar(x: object) -> Scalar:
    """Read a scalar from JSON: an int, or a string "p" or "p/q".

    Floats, booleans, decimal strings and zero denominators are rejected
    with ValueError, so input stays as exact as the output format.

    >>> parse_scalar("6/4")
    Fraction(3, 2)
    >>> parse_scalar(0.5)
    Traceback (most recent call last):
    ...
    ValueError: scalar must be an int or a string "p" or "p/q", got 0.5
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if not isinstance(x, str) or not _SCALAR_TEXT.fullmatch(x):
        raise ValueError(
            f'scalar must be an int or a string "p" or "p/q", got {x!r}')
    try:
        return canonical(Fraction(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def scalar_to_str(x: Scalar) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    return str(Fraction(x))


class TitsSection:
    """Nonzero parameters a_1..a_n choosing one lift per braid generator.

    Written out rather than a dataclass, whose import every eval-word
    and verify --params call would pay for; it behaves as a frozen one:
    fields by position or keyword, ``==`` and ``hash`` over (n, params),
    the repr ``TitsSection(n=..., params=...)`` and no assignment.
    """

    __slots__ = ("n", "params")

    def __init__(self, n: int, params: tuple[Scalar, ...]):
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        if len(params) != n:
            raise ValueError(f"rank {n} needs {n} parameters")
        params = tuple(canonical(a) for a in params)
        if any(a == 0 for a in params):
            raise ValueError("section parameters must be nonzero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "params", params)

    @classmethod
    def ones(cls, n: int) -> "TitsSection":
        return cls(n, (1,) * n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.params) == (other.n, other.params)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.params))

    def __repr__(self):
        return f"TitsSection(n={self.n!r}, params={self.params!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def parse_section(n: int, text: str | None) -> TitsSection:
    """The section written as "a1,...,an", each a scalar string read by
    parse_scalar; None gives all ones.  Other text raises ValueError."""
    if text is None:
        return TitsSection.ones(n)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} parameters, got {len(parts)}")
    return TitsSection(n, tuple(parse_scalar(p) for p in parts))
