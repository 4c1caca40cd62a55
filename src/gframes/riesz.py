"""Riesz-type detection and the surjectivity / perturbation results built on it.

A frame is Riesz-type exactly when its analysis operator fills the whole
weighted direct-sum target, i.e. the embedded analysis matrix has full row
rank.  Two routes decide it (analysis rank; the synthesis matrix A^H bounded
below, the same comparison as a trivial synthesis kernel), so the equivalence
can be verified numerically.  A^H has the singular values of A, so the second
reads the family's memoized sigma(A) and decomposes nothing of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from ._linalg import full_row_rank, matrices_close, operator_norm, rank_cutoff, singular_values
from .analysis import compose_sum, cross_operator, frame_bounds, frame_operator, optimal_bounds
from .analysis import require_frame, synthesis_gain
from .errors import PreconditionError
from .model import (
    GFrameFamily,
    KHatVector,
    OperatorPair,
    analysis_matrix,
    apply_synthesis,
    khat_norm,
    require_same_domain,
    require_same_khat,
)


@dataclass(frozen=True)
class RieszReport:
    """Riesz-type verdict with the ranks and synthesis bounds behind it."""

    is_riesz_type: bool
    analysis_rank: int
    khat_dim: int
    synthesis_lower_bound: float
    synthesis_upper_bound: float


def synthesis_matrix(fam: GFrameFamily) -> np.ndarray:
    """Matrix of the synthesis operator in embedded coordinates (d x N): the
    conjugate transpose of the analysis matrix, columns sqrt(w_i) * block_i^H."""
    return analysis_matrix(fam).conj().T


def riesz_check(fam: GFrameFamily) -> RieszReport:
    """Riesz-type verdict for a frame, from the rank of its analysis matrix.

    A frame's N x d analysis matrix has rank d <= N, so it fills the target
    exactly when it is square; nothing is decomposed beyond the frame
    verdict.  ``synthesis_lower_bound`` is the square of the smallest gain of
    the synthesis operator over the whole target space: the lower frame bound
    for a square frame, zero otherwise (the kernel is nontrivial);
    ``synthesis_upper_bound`` is the square of its largest singular value:
    the upper frame bound.
    """
    lower, upper = require_frame(fam, "family")
    square = fam.codomain_dim == fam.domain_dim
    return RieszReport(
        is_riesz_type=square,
        analysis_rank=fam.domain_dim,
        khat_dim=fam.codomain_dim,
        synthesis_lower_bound=lower if square else 0.0,
        synthesis_upper_bound=upper,
    )


def synthesis_kernel_test(fam: GFrameFamily, phi: KHatVector) -> bool:
    """True when the synthesis image of ``phi`` vanishes at the rank cutoff:
    ||A^H phi|| at or below the singular-value cutoff of A times ||phi||, the
    cutoff that every rank and Riesz verdict reads.

    A True verdict for a nonzero ``phi`` certifies that the family is not
    Riesz-type.
    """
    image = apply_synthesis(fam, phi)
    sigma_max = np.sqrt(max(optimal_bounds(fam)[1], 0.0))
    cutoff = rank_cutoff((fam.codomain_dim, fam.domain_dim), sigma_max)
    return float(np.linalg.norm(image)) <= cutoff * khat_norm(phi, fam.space)


def riesz_criteria(fam: GFrameFamily) -> tuple[bool, bool]:
    """The two Riesz-type routes, (by rank, by synthesis), which must agree on every frame.

    The rank route is the verdict of ``riesz_check``, taken first (it raises
    unless ``fam`` is a frame).  The synthesis route reads ``synthesis_gain``:
    the synthesis matrix is bounded below exactly when its kernel is trivial,
    so the two-sided bound and the kernel certificate are this one comparison.
    """
    return riesz_check(fam).is_riesz_type, synthesis_gain(fam)[1]


@dataclass(frozen=True)
class MixedConstruction:
    """Result of combining a dual-like pair through two operators summing to a frame.

    ``adjoint_combination_surjective`` and ``synthesis_combination_lower_bound``
    re-derive the Riesz-type verdict through the combined analysis and
    synthesis operators, from the combined family's memoized singular values
    (``synthesis_gain``); ``criteria_agree`` records that they concur with
    ``riesz_report``.  ``sandwich_ok`` flags whether the constructed family's
    bounds sit inside the guaranteed window [2, upper_certificate].
    """

    family: GFrameFamily
    riesz_report: RieszReport
    adjoint_combination_surjective: bool
    synthesis_combination_lower_bound: float
    criteria_agree: bool
    lower_bound: float
    upper_bound: float
    upper_certificate: float
    sandwich_ok: bool


def mixed_construction(
    lam: GFrameFamily, theta: GFrameFamily, l1: np.ndarray, l2: np.ndarray
) -> MixedConstruction:
    """Build the family with blocks lam_i @ L1 + theta_i @ L2 and certify it.

    Requires the mixed cross operator of the pair to be the identity and
    L1^H L2 = I.  The result is always a frame with lower bound >= 2 and
    upper bound <= B_lam ||L1||^2 + 2 + B_theta ||L2||^2.  The hypothesis is
    checked on theta^H lam (``cross_operator(theta, lam)``), the conjugate
    transpose of lam^H theta, which is the identity exactly when that is: it
    is the cross block that the combined family's Gram reads, so the pair's
    cross operator is streamed once.
    """
    require_same_domain(lam, theta)
    d = lam.domain_dim
    l1, l2 = OperatorPair(l1, l2).square_operators(d, d)
    eye = np.eye(d)
    if not matrices_close(cross_operator(theta, lam), eye):
        raise PreconditionError("cross operator of the pair is not the identity")
    if not matrices_close(l1.conj().T @ l2, eye):
        raise PreconditionError("L1^H L2 is not the identity")

    b_lam, b_theta = optimal_bounds(lam)[1], optimal_bounds(theta)[1]
    combined = compose_sum(lam, theta, l1, l2)
    report = frame_bounds(combined)
    upper_cert = b_lam * operator_norm(l1) ** 2 + 2.0 + b_theta * operator_norm(l2) ** 2

    riesz_report = riesz_check(combined)
    # routes (ii) and (iii): the rank and the synthesis gain of one sigma(A)
    gain, surjective = synthesis_gain(combined)

    return MixedConstruction(
        family=combined,
        riesz_report=riesz_report,
        adjoint_combination_surjective=surjective,
        synthesis_combination_lower_bound=gain**2,
        criteria_agree=(riesz_report.is_riesz_type == surjective),
        lower_bound=report.lower_bound,
        upper_bound=report.upper_bound,
        upper_certificate=float(upper_cert),
        sandwich_ok=report.within(2.0, upper_cert),
    )


def cross_surjectivity(lam: GFrameFamily, theta: GFrameFamily) -> tuple[bool, bool]:
    """(theta is a frame, mixed cross operator is surjective).

    ``lam`` must be a frame; ``theta`` only needs to be a well-formed family
    over the same target.  Surjectivity of the cross operator forces ``theta``
    to be a frame; conversely a Riesz-type ``lam`` and a frame ``theta`` force
    surjectivity.
    """
    require_same_khat(lam, theta)
    require_frame(lam, "first family")
    cross = cross_operator(theta, lam)
    surjective = full_row_rank(singular_values(cross), cross.shape)
    return optimal_bounds(theta)[2], surjective


@dataclass(frozen=True)
class PerturbationResult:
    lambda_gap: float
    criterion_met: bool
    equivalence_verified: bool


def perturbation_riesz_transfer(lam: GFrameFamily, theta: GFrameFamily) -> PerturbationResult:
    """Perturbation criterion: when the mixed cross operator stays within the
    lower frame bound of ``lam``, the two families share their Riesz-type verdict.

    ``lambda_gap`` is the operator norm of (cross operator - frame operator);
    the comparison requires both families to share the same domain dimension.
    ``equivalence_verified`` is only meaningful when ``criterion_met``.
    """
    require_same_domain(lam, theta)
    lower, _ = require_frame(lam, "first family")
    gap = operator_norm(cross_operator(theta, lam) - frame_operator(lam))
    criterion_met = gap < lower * (1.0 - _linalg.REL_EPS)
    if criterion_met:
        equivalence = riesz_check(lam).is_riesz_type == riesz_check(theta).is_riesz_type
    else:
        equivalence = False
    return PerturbationResult(
        lambda_gap=float(gap),
        criterion_met=criterion_met,
        equivalence_verified=equivalence,
    )
