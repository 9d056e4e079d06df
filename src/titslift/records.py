"""Immutable record classes declared by annotated fields, and the exact
scalars their fields hold.

``@frozen`` gives a class whose body lists annotated fields, in order,
the behaviour of ``dataclasses.dataclass(frozen=True)`` that this package
uses: an ``__init__`` taking the fields by position or keyword, with a
class-level value as the field's default, that ends by calling
``__post_init__`` when the class has one; ``==`` and ``hash`` over the
field values, with ``NotImplemented`` against any other class; the repr
``Name(field=value, ...)``; and assignment and deletion that raise
AttributeError.

The methods are plain closures, so defining a record compiles no code at
import time; every CLI call is a fresh process and pays for that.

A scalar is an int or a ``fractions.Fraction`` in canonical form: a
Fraction with denominator 1 collapses to an int, so equality is plain
structural equality.  ``canonical`` and ``parse_scalar`` are the only ways
in, ``scalar_to_str`` the way out.  ``INT_TEXT`` is the "p" of the
scalar grammar, which ``relations.parse_letters`` also reads words with.
"""

import re
from fractions import Fraction
from operator import attrgetter

Scalar = int | Fraction

_MISSING = object()
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


def frozen(cls):
    """Make cls a frozen record; the module docstring lists what it adds."""
    names = tuple(vars(cls).get("__annotations__", {}))
    defaults = {k: vars(cls)[k] for k in names if k in vars(cls)}
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)
    post = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        rest = names[len(args):]
        if len(args) > len(names) or not set(kwargs).issubset(rest):
            raise TypeError(f"{cls.__qualname__}() takes the fields "
                            f"{names}, got {args!r} and {kwargs!r}")
        values = list(args)
        for name in rest:
            values.append(kwargs.get(name, defaults.get(name, _MISSING)))
            if values[-1] is _MISSING:
                raise TypeError(
                    f"{cls.__qualname__}() missing field {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        # every field given by position is the hot path: no binding
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        vars(self).update(zip(names, args))
        if post is not None:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@frozen
class TitsSection:
    """Nonzero parameters a_1..a_n choosing one lift per braid generator."""

    n: int
    params: tuple[Scalar, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"rank must be at least 1, got {self.n}")
        if len(self.params) != self.n:
            raise ValueError(f"rank {self.n} needs {self.n} parameters")
        params = tuple(canonical(a) for a in self.params)
        object.__setattr__(self, "params", params)
        if any(a == 0 for a in params):
            raise ValueError("section parameters must be nonzero")

    @classmethod
    def ones(cls, n: int) -> "TitsSection":
        return cls(n, (1,) * n)


def parse_section(n: int, text: str | None) -> TitsSection:
    """The section written as "a1,...,an", each a scalar string read by
    parse_scalar; None gives all ones.  Other text raises ValueError."""
    if text is None:
        return TitsSection.ones(n)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} parameters, got {len(parts)}")
    return TitsSection(n, tuple(parse_scalar(p) for p in parts))
