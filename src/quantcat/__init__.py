"""quantcat: exact computations with quantale-enriched categories.

Quantale arithmetic (finite tables and the extended-rational carriers),
normed sets and their final structures, V-categories with distributor
calculus and Isbell conjugation, normed categories with adjunction
certificates and the presentable-unit completeness decision, and normed
colimits of finitely presented sequences.  The package exports what the
command line (``python -m quantcat``) runs; the general calculus of normed
maps, V-functors, normed functors and left adjoints, the strict part of a
normed category as a category of its own, the Isbell conjugate of a normed
distributor with its action, the verifier of a candidate colimit cocone,
and the two halves of the unit criterion (read as the attribute
``FiniteQuantale.unit_criterion``), are the tests' oracles, in
``tests/helpers.py``.

Importing the package runs none of its modules: each exported name, and
each module, is imported on its first access (PEP 562).
"""

_EXPORTS = {
    "common": (
        "BudgetExceeded", "CarrierMismatch", "Check", "ConstructionError", "DEFAULT_BUDGET",
        "PreconditionError", "Report",
    ),
    "quantale": (
        "INF", "BUILTIN_QUANTALES", "FiniteQuantale", "LawvereQuantale", "as_extended_rational",
        "bool2", "bool4", "builtin_quantale", "chain3", "chain4", "lawvere_plus",
        "lawvere_times", "totally_below", "trivial", "unit_approximated_from_totally_below",
        "validate_quantale",
    ),
    "normed_set": ("NormedSet", "final_structure"),
    "vcat": (
        "LawvereVerdict", "VCategory", "VDistributor", "VWeightPair", "compose_vdist",
        "is_representable", "isbell_conjugate_weight", "lawvere_complete_vcat", "unit_vcat",
        "validate_vcat", "validate_vdist",
    ),
    "ncat": (
        "AdjunctionCertificate", "NcatLawvereVerdict", "NormedCategory", "NormedDistributor",
        "check_adjunction_cert", "conjugate_families", "is_lawvere_complete_ncat",
        "split_idempotents_check", "strict_morphisms", "validate_ndist",
    ),
    "seqlim": (
        "Cocone", "LogNorm", "MetricSequence", "NormProfile", "Sequence", "cauchy_value",
        "colimit_dset", "colimit_nset", "colimit_vlip", "forward_limit_metric",
        "lipschitz_norm", "norm_profile", "validate_sequence",
    ),
}

#: name -> the module defining it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
