"""Immutable record classes declared by annotated fields.

``@frozen`` gives a class whose body lists annotated fields, in order,
the behaviour of ``dataclasses.dataclass(frozen=True)`` that this package
uses: an ``__init__`` taking the fields by position or keyword, with a
class-level value as the field's default, that ends by calling
``__post_init__`` when the class has one; ``==`` and ``hash`` over the
field values, with ``NotImplemented`` against any other class; the repr
``Name(field=value, ...)``; and assignment and deletion that raise
AttributeError.  Fields named in ``hidden`` are stored but take no part
in ``==``, ``hash`` or the repr.

The methods are plain closures, so defining a record compiles no code at
import time; every CLI call is a fresh process and pays for that.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


def frozen(cls=None, *, hidden=()):
    """Make cls a frozen record, used as ``@frozen`` or
    ``@frozen(hidden=(...))``; the module docstring lists what it adds."""
    if cls is None:
        return lambda c: frozen(c, hidden=hidden)
    names = tuple(vars(cls).get("__annotations__", {}))
    defaults = {k: vars(cls)[k] for k in names if k in vars(cls)}
    shown = tuple(k for k in names if k not in hidden)
    get = attrgetter(*shown)
    key = get if len(shown) > 1 else lambda self: (get(self),)
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
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in shown)
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
