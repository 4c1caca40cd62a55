"""Numerical workbench for continuous g-frames realized over finite weighted
measure spaces: frame operators and bounds, duals, disjointness relations,
Riesz-type detection, and the classical construction theorems, all verifiable
at desk scale."""

from .analysis import (
    FrameReport,
    canonical_dual,
    cross_operator,
    dual_check,
    frame_bounds,
    frame_operator,
    is_dual_pair,
    parseval_check,
    parseval_normalize,
)
from .constructions import (
    ContinuousFrameSpec,
    DirectSumDuals,
    DisjointSumResult,
    LiftedFamilies,
    OperatorPair,
    PseudoDualResult,
    StrongSumResult,
    direct_sum_duals,
    disjoint_sum_family,
    lift_continuous_frame,
    pseudo_dual,
    pseudo_inverse,
    random_gframe,
    random_strongly_disjoint_parseval_pair,
    strongly_disjoint_sum,
)
from .disjointness import (
    DisjointnessReport,
    classify,
    delta_family,
    gamma_family,
    kernel_triviality,
    normalized_pair,
    pair_equivalences,
    strong_disjointness_converse_check,
)
from .documents import (
    FORMAT_VERSION,
    FrameDocument,
    load_document,
    parse_document,
    save_document,
    serialize_document,
)
from .errors import (
    DocumentError,
    FamilyValidationError,
    GenerationError,
    GFrameError,
    NumericalRangeError,
    PreconditionError,
    ShapeError,
    SingularOperatorError,
)
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    KHatVector,
    MeasureSpace,
    TolerancePolicy,
    analysis_matrix,
    apply_analysis,
    apply_synthesis,
    embed,
    family_from_analysis_matrix,
    inner,
    khat_inner,
    khat_norm,
    right_compose,
    unembed,
)
from .riesz import (
    MixedConstruction,
    PerturbationResult,
    RieszReport,
    cross_surjectivity,
    mixed_construction,
    perturbation_riesz_transfer,
    riesz_check,
    riesz_criteria,
    synthesis_kernel_test,
    synthesis_matrix,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The verify suite is imported on first use, so that importing the
    # package (and every CLI command but verify) does not load it.
    if name in ("run_suite", "SuiteReport"):
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
