"""quantcat: exact computations with quantale-enriched categories.

Quantale arithmetic (finite tables and the extended-rational carriers),
normed sets and their final structures, V-categories with distributor
calculus and Isbell conjugation, normed categories with adjunction
certificates and the presentable-unit completeness decision, and normed
colimits of finitely presented sequences.  The package exports what the
command line (``python -m quantcat``) runs; the general calculus of normed
maps, V-functors, normed functors and left adjoints, and the verifier of a
candidate colimit cocone, are the tests' oracles, in ``tests/helpers.py``.
"""

from .common import (
    BudgetExceeded,
    CarrierMismatch,
    Check,
    ConstructionError,
    DEFAULT_BUDGET,
    PreconditionError,
    Report,
)
from .quantale import (
    INF,
    BUILTIN_QUANTALES,
    FiniteQuantale,
    LawvereQuantale,
    as_extended_rational,
    bool2,
    bool4,
    builtin_quantale,
    chain3,
    chain4,
    lawvere_plus,
    lawvere_times,
    totally_below,
    trivial,
    unit_approximated_from_totally_below,
    validate_quantale,
)
from .normed_set import NormedSet, final_structure
from .vcat import (
    LawvereVerdict,
    VCategory,
    VDistributor,
    VWeightPair,
    compose_vdist,
    is_representable,
    isbell_conjugate_weight,
    lawvere_complete_vcat,
    totally_compact_unit,
    unit_tensor_splits,
    unit_vcat,
    validate_vcat,
    validate_vdist,
)
from .ncat import (
    AdjunctionCertificate,
    NcatLawvereVerdict,
    NormedCategory,
    NormedDistributor,
    PlainCategory,
    check_adjunction_cert,
    is_lawvere_complete_ncat,
    isbell_conjugate_ndist,
    nat_transformations,
    representable_cov,
    split_idempotents_check,
    strict_subcategory,
    validate_ndist,
)
from .seqlim import (
    Cocone,
    LogNorm,
    MetricSequence,
    NormProfile,
    Sequence,
    cauchy_value,
    colimit_dset,
    colimit_nset,
    colimit_vlip,
    forward_limit_metric,
    lipschitz_norm,
    norm_profile,
    validate_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
