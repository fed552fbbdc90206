"""Exact structure theory of finite-dimensional right Leibniz algebras.

Algebras are given by rational structure constants; all computations run in
exact arithmetic, so every reported dimension, scalar, and decomposition is
an exact statement about the input, not an approximation.

``core`` and ``exactlin`` load with the package.  ``radical``, ``eigen``,
``derivations``, ``sl2`` and ``catalog`` are in ``sys.modules`` and bound
here from the start, but their code runs on first attribute access
(``importlib.util.LazyLoader``), and the names they export resolve through
the module ``__getattr__``; a command that does not use them never
compiles or runs them.  Of the CLI commands, only ``radical`` runs
``radical``, and none runs ``eigen``, which only the summand split
reaches.
"""

import importlib.util
import sys

from .core import (
    Algebra,
    InvalidAlgebraError,
    LeviDatum,
    LeviError,
    ModuleError,
    Quotient,
    SchemaError,
    Sl2Triple,
    StructureError,
    algebra_from_json_dict,
    algebra_to_json_dict,
    check_sl2_triple,
    dump_algebra_json,
    ensure_leibniz,
    leibniz_check,
    load_algebra_json,
    quotient_algebra,
    squares_ideal,
    validate_levi,
)
from .exactlin import (
    Matrix,
    Subspace,
    format_rational,
    kernel_of_constraints,
    nullspace,
    parse_rational,
    solve,
)


def _lazy(name: str):
    """The submodule ``name``, in ``sys.modules`` and bound here like an
    imported one, whose code runs on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


radical = _lazy("radical")
eigen = _lazy("eigen")
derivations = _lazy("derivations")
sl2 = _lazy("sl2")
catalog = _lazy("catalog")

# names exported from the lazy layers, resolved by __getattr__ (PEP 562)
_LAZY_HOMES = {
    name: module
    for module, names in (
        (radical, (
            "SimplicityCertificate",
            "SummandSplit",
            "centroid",
            "derived_series",
            "derived_subalgebra",
            "is_semisimple",
            "is_simple_certified",
            "killing_form",
            "simple_summands",
            "solvable_radical",
        )),
        (eigen, ("EigenDecomposition", "charpoly", "rational_eigen")),
        (derivations, (
            "DerivationBasis",
            "DerivationSplit",
            "EndoBlockReport",
            "GradedParts",
            "LoweringBlockNonZero",
            "NoInnerMatch",
            "OuterReport",
            "RaisingReport",
            "SplitSurvey",
            "check_module_endomorphism",
            "derivation_algebra",
            "graded_parts",
            "ideal_endo_blocks",
            "inner_derivation_span",
            "is_derivation",
            "outer_candidates",
            "outer_report",
            "raising_map_report",
            "scalar_of",
            "split_all",
            "split_derivation",
        )),
        (sl2, (
            "HighestWeightVector",
            "ModuleDecomposition",
            "PairStructureReport",
            "WeightSpaces",
            "highest_weight_vectors",
            "irreducible_decomposition_sl2",
            "pair_structure_report",
            "weight_decomposition",
        )),
        (catalog, ("direct_sum_many",)),
    )
    for name in names
}


def __getattr__(name: str):
    home = _LAZY_HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_HOMES})


__all__ = [
    "Algebra",
    "DerivationBasis",
    "DerivationSplit",
    "EigenDecomposition",
    "EndoBlockReport",
    "GradedParts",
    "HighestWeightVector",
    "InvalidAlgebraError",
    "LeviDatum",
    "LeviError",
    "LoweringBlockNonZero",
    "Matrix",
    "ModuleDecomposition",
    "ModuleError",
    "NoInnerMatch",
    "OuterReport",
    "PairStructureReport",
    "Quotient",
    "RaisingReport",
    "SchemaError",
    "SimplicityCertificate",
    "Sl2Triple",
    "SplitSurvey",
    "StructureError",
    "Subspace",
    "SummandSplit",
    "WeightSpaces",
    "algebra_from_json_dict",
    "algebra_to_json_dict",
    "centroid",
    "charpoly",
    "check_module_endomorphism",
    "check_sl2_triple",
    "derivation_algebra",
    "derived_series",
    "derived_subalgebra",
    "direct_sum_many",
    "dump_algebra_json",
    "ensure_leibniz",
    "format_rational",
    "graded_parts",
    "highest_weight_vectors",
    "ideal_endo_blocks",
    "inner_derivation_span",
    "irreducible_decomposition_sl2",
    "is_derivation",
    "is_semisimple",
    "is_simple_certified",
    "kernel_of_constraints",
    "killing_form",
    "leibniz_check",
    "load_algebra_json",
    "nullspace",
    "outer_candidates",
    "outer_report",
    "pair_structure_report",
    "parse_rational",
    "quotient_algebra",
    "raising_map_report",
    "rational_eigen",
    "scalar_of",
    "simple_summands",
    "solvable_radical",
    "solve",
    "split_all",
    "split_derivation",
    "squares_ideal",
    "validate_levi",
    "weight_decomposition",
]
