"""Numerical workbench for continuous g-frames realized over finite weighted
measure spaces: frame operators and bounds, duals, disjointness relations,
Riesz-type detection, and the classical construction theorems, all verifiable
at desk scale.

Every public name loads on first use (PEP 562): ``import gframes`` imports no
submodule and no numpy, and ``gframes.frame_bounds`` imports ``analysis``."""

import importlib

__version__ = "0.1.0"

# submodule: the public names defined there
_EXPORTS = {
    "analysis": (
        "FrameReport", "canonical_dual", "cross_operator", "dual_check", "frame_bounds",
        "frame_check", "frame_operator", "gamma_family", "is_dual_pair", "parseval_check",
        "parseval_normalize",
    ),
    "constructions": (
        "DirectSumDuals", "DisjointSumResult", "LiftedFamilies", "PseudoDualResult",
        "StrongSumResult", "direct_sum_duals", "disjoint_sum_family", "lift_continuous_frame",
        "pseudo_dual", "pseudo_inverse", "random_gframe", "random_strongly_disjoint_parseval_pair",
        "strongly_disjoint_sum",
    ),
    "disjointness": (
        "DisjointnessReport", "classify", "delta_family", "normalized_pair", "pair_equivalences",
        "strong_disjointness_converse_check",
    ),
    "documents": (
        "FORMAT_VERSION", "FrameDocument", "load_document", "parse_document", "save_document",
        "serialize_document",
    ),
    "errors": (
        "DocumentError", "FamilyValidationError", "GenerationError", "GFrameError",
        "NumericalRangeError", "PreconditionError", "ShapeError", "SingularOperatorError",
    ),
    "model": (
        "GFrameFamily", "KHatVector", "MeasureSpace", "OperatorPair", "analysis_matrix",
        "apply_analysis", "apply_synthesis", "embed", "family_from_analysis_matrix", "inner",
        "khat_inner", "khat_norm", "right_compose", "unembed",
    ),
    "riesz": (
        "MixedConstruction", "PerturbationResult", "RieszReport", "cross_surjectivity",
        "mixed_construction", "perturbation_riesz_transfer", "riesz_check", "riesz_criteria",
        "synthesis_kernel_test", "synthesis_matrix",
    ),
    "verification": ("SuiteReport", "run_suite"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
