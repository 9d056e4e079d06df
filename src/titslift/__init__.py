"""Exact-arithmetic lifts of braid generators to determinant-one matrices,
the automorphisms they induce on the trace-zero matrix algebra, and
mechanical verification of the relations both families satisfy.

Everything is computed over the rationals with no floating point, so every
verified identity is a proof-grade equality, not an approximation.

Importing the package loads no submodule, and each name is imported from
the module that defines it.  A submodule is also an attribute of the
package, imported on first access (PEP 562), so a CLI call compiles only
the modules its subcommand runs.
"""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Input the CLI refuses, printed by ``cli.main`` as one error line."""


_SUBMODULES = frozenset({
    "autos", "braid", "cli", "liealg", "linalg", "records", "relations",
    "roots", "rows", "sweep", "tits"})


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # here, so no CLI call loads it
    return import_module(f"{__name__}.{name}")
