"""Classification of g-frame pairs by the five range-based disjointness relations.

Two families over the same weighted direct-sum target are compared through
their embedded analysis ranges: orthogonality of the ranges (strong
disjointness) is certified by the cross operator, intersection dimensions by
the SVD rank identity dim(U cap V) = rank A + rank B - rank [A|B].  In finite
dimension the sum of two subspaces is always closed, so the "disjoint" and
"weakly disjoint" verdicts coincide; they are still computed through two
different routes (rank identity vs kernel test) as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import operator_norm, svd_rank
from .analysis import analysis_rank, frame_bounds, parseval_normalize
from .errors import PreconditionError, ShapeError
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    TolerancePolicy,
    analysis_matrix,
    require_same_khat,
    require_valid,
    right_compose,
)


@dataclass(frozen=True)
class DisjointnessReport:
    """The five relations (plain ``bool``) with the ranks and norm behind them."""

    strongly_disjoint: bool
    disjoint: bool
    weakly_disjoint: bool
    complementary_pair: bool
    strongly_complementary_pair: bool
    cross_operator_norm: float
    range_intersection_dim: int
    range_sum_dim: int
    khat_dim: int


def classify(
    lam: GFrameFamily, theta: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> DisjointnessReport:
    """Decide which disjointness relations hold for a pair of frames.

    Both families must be frames over the same measure space and block
    dimensions; their domains may differ.
    """
    require_same_khat(lam, theta)
    rep_lam = frame_bounds(lam, tol)
    rep_theta = frame_bounds(theta, tol)
    if not rep_lam.is_frame:
        raise PreconditionError("first family is not a frame")
    if not rep_theta.is_frame:
        raise PreconditionError("second family is not a frame")

    a = analysis_matrix(lam)
    b = analysis_matrix(theta)
    khat_dim = a.shape[0]

    # the cross operator of (theta, lam), from the matrices already formed
    cross_norm = operator_norm(b.conj().T @ a)
    bessel = np.sqrt(rep_lam.upper_bound * rep_theta.upper_bound)
    strongly = bool(cross_norm <= tol.rel_eps * bessel)

    rank_a = analysis_rank(lam, tol)
    rank_b = analysis_rank(theta, tol)
    rank_ab = svd_rank(np.hstack([a, b]), tol)
    intersection = rank_a + rank_b - rank_ab

    disjoint = intersection == 0
    # Independent route: trivial kernel of the stacked pair map.
    weakly = rank_ab == lam.domain_dim + theta.domain_dim
    complementary = intersection == 0 and rank_ab == khat_dim
    strongly_complementary = strongly and (rank_a + rank_b == khat_dim)

    return DisjointnessReport(
        strongly_disjoint=strongly,
        disjoint=disjoint,
        weakly_disjoint=weakly,
        complementary_pair=complementary,
        strongly_complementary_pair=strongly_complementary,
        cross_operator_norm=cross_norm,
        range_intersection_dim=int(intersection),
        range_sum_dim=int(rank_ab),
        khat_dim=int(khat_dim),
    )


def gamma_family(lam: GFrameFamily, theta: GFrameFamily) -> GFrameFamily:
    """Pair family on the direct-sum domain: blocks are [lam_i | theta_i].

    Domain coordinates are ordered first-family-first, matching the
    left-to-right reading of (h, k) -> lam_i h + theta_i k.
    """
    require_same_khat(lam, theta)
    require_valid(lam)
    require_valid(theta)
    return GFrameFamily.from_rows(lam.space, np.hstack([lam.rows, theta.rows]), lam.block_dims)


def delta_family(
    lam: GFrameFamily, theta: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> GFrameFamily:
    """Pair family built from the Parseval normalizations of both inputs.

    For strongly disjoint inputs the result is Parseval; otherwise the
    surviving cross term shows up in its frame operator.
    """
    return gamma_family(parseval_normalize(lam, tol), parseval_normalize(theta, tol))


def _require_invertible(name: str, operator: np.ndarray, dim: int, tol: TolerancePolicy) -> None:
    operator = np.asarray(operator, dtype=complex)
    if operator.shape != (dim, dim):
        raise ShapeError(f"{name} must be {dim} x {dim}, got {operator.shape}")
    if svd_rank(operator, tol) != dim:
        raise PreconditionError(f"{name} is not invertible at tolerance")


def strong_disjointness_converse_check(
    lam: GFrameFamily,
    theta: GFrameFamily,
    l1: np.ndarray,
    l2: np.ndarray,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> bool:
    """True when lam.l1, theta.l2 and their pair family are all Parseval.

    A True verdict certifies strong disjointness of the pair (with invertible
    ``l1``, ``l2``); the canonical witnesses are the inverse square roots of
    the two frame operators.
    """
    require_same_khat(lam, theta)
    l1 = np.asarray(l1, dtype=complex)
    l2 = np.asarray(l2, dtype=complex)
    _require_invertible("L1", l1, lam.domain_dim, tol)
    _require_invertible("L2", l2, theta.domain_dim, tol)
    fam1 = right_compose(lam, l1)
    fam2 = right_compose(theta, l2)
    return (
        frame_bounds(fam1, tol).is_parseval
        and frame_bounds(fam2, tol).is_parseval
        and frame_bounds(gamma_family(fam1, fam2), tol).is_parseval
    )


def kernel_triviality(gamma: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when only the zero vector is annihilated by every block."""
    return analysis_rank(gamma, tol) == gamma.domain_dim
