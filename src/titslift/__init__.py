"""Exact-arithmetic lifts of braid generators to determinant-one matrices,
the automorphisms they induce on the trace-zero matrix algebra, and
mechanical verification of the relations both families satisfy.

Everything is computed over the rationals with no floating point, so every
verified identity is a proof-grade equality, not an approximation.

Importing the package loads no submodule.  Each public name, and each
submodule, is imported on first access (PEP 562), so a CLI call compiles
only the modules its subcommand runs.
"""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Input the CLI refuses, printed by ``cli.main`` as one error line."""


_EXPORTS = {
    "autos": (
        "AlgebraAutomorphism", "conjugation_automorphism", "tau_generator",
        "verify_group_relations", "verify_theorem1"),
    "braid": (
        "BraidWord", "RelationInstance", "is_pure", "natural_projection",
        "parse_word", "relation_instances", "word_to_text"),
    "liealg": (
        "Cartan", "LieElement", "OffDiagonal", "ad_matrix", "basis_indices",
        "basis_matrix", "bracket", "decompose_by_cartan", "dimension",
        "generator"),
    "linalg": (
        "Matrix", "NotNilpotentError", "SingularMatrixError",
        "exp_nilpotent", "matrix_from_json", "matrix_to_json"),
    "records": ("TitsSection", "canonical", "scalar_to_str"),
    "roots": (
        "RootVector", "all_roots", "pairing", "reflect", "root",
        "simple_root", "transposition_word", "weyl_action"),
    "rows": ("NotInNormalizer",),
    "sweep": ("relation_words",),
    "tits": (
        "GroupElement", "MonomialDecomposition", "NoExactWitness",
        "Permutation", "conjugation_witness", "coset_class", "evaluate_word",
        "exp_construction", "normalizer_decompose", "rational_nth_root",
        "sigma_generator", "torus_generation_witness"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "normalizer", "relations"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module  # here, so no CLI call loads it
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
