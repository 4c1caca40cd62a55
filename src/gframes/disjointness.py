"""Classification of g-frame pairs by the five range-based disjointness relations.

Two families over the same weighted direct-sum target are compared through
their embedded analysis ranges: strong disjointness by the cross operator,
intersection dimensions by dim(U cap V) = rank A + rank B - rank [A|B], where a
full rank is certified by Gram eigenvalues (for [A|B]: [[S_A, A^H B], [B^H A,
S_B]]) and only an uncertified pair takes the SVD of [A|B].  The sum of two
subspaces is closed in finite dimension, so "disjoint" and "weakly disjoint"
coincide; two routes (rank identity vs kernel test) compute them as a check.
``pair_equivalences`` states the theorems that tie the relations to the pair
family, once, for the ``disjoint`` command and the ``verify`` suite alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import gram_certifies_full_column_rank, operator_norm, svd_rank
from .analysis import FrameReport, analysis_rank, frame_bounds, parseval_normalize
from .errors import PreconditionError, ShapeError
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    TolerancePolicy,
    analysis_matrix,
    require_same_khat,
    right_compose,
)
from .riesz import riesz_check


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
    cross = b.conj().T @ a
    cross_norm = operator_norm(cross)
    bessel = np.sqrt(rep_lam.upper_bound * rep_theta.upper_bound)
    strongly = bool(cross_norm <= tol.rel_eps * bessel)

    rank_a = analysis_rank(lam, tol)
    rank_b = analysis_rank(theta, tol)
    pair_dim = lam.domain_dim + theta.domain_dim
    gram = np.block([[rep_lam.frame_operator, cross.conj().T], [cross, rep_theta.frame_operator]])
    evals = np.linalg.eigvalsh(gram)
    certified = gram_certifies_full_column_rank(evals[0], evals[-1], (khat_dim, pair_dim), tol)
    rank_ab = pair_dim if certified else svd_rank(np.hstack([a, b]), tol)
    intersection = rank_a + rank_b - rank_ab

    disjoint = intersection == 0
    # Independent route: trivial kernel of the stacked pair map.
    weakly = rank_ab == pair_dim
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


def pair_equivalences(
    lam: GFrameFamily, theta: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[DisjointnessReport, FrameReport, tuple[tuple[str, bool, dict], ...]]:
    """The pair theorems checked on one pair of frames.

    Returns the pair's relations, the frame report of its pair family Gamma
    and five ``(name, passed, numbers)`` checks, each with the quantities it
    compares: disjoint iff Gamma is a frame; complementary iff Gamma is
    Riesz-type; strongly complementary iff strongly disjoint and Gamma
    Riesz-type; weakly disjoint iff Gamma has a trivial kernel; and strongly
    disjoint => disjoint => weakly disjoint.
    """
    report = classify(lam, theta, tol)
    gamma = gamma_family(lam, theta)
    gamma_rep = frame_bounds(gamma, tol)
    gamma_riesz = gamma_rep.is_frame and riesz_check(gamma, tol).is_riesz_type
    kernel_trivial = kernel_triviality(gamma, tol)
    strong, disjoint, weak = report.strongly_disjoint, report.disjoint, report.weakly_disjoint
    checks = (
        (
            "pair-family-frame-iff-disjoint",
            disjoint == gamma_rep.is_frame,
            {"disjoint": disjoint, "pair_family_is_frame": gamma_rep.is_frame},
        ),
        (
            "complementary-iff-pair-riesz",
            report.complementary_pair == gamma_riesz,
            {"complementary_pair": report.complementary_pair, "pair_family_riesz": gamma_riesz},
        ),
        (
            "strongly-complementary-decomposition",
            report.strongly_complementary_pair == (strong and gamma_riesz),
            {
                "strongly_complementary_pair": report.strongly_complementary_pair,
                "strongly_disjoint": strong,
                "pair_family_riesz": gamma_riesz,
            },
        ),
        (
            "weak-iff-trivial-kernel",
            weak == kernel_trivial,
            {"weakly_disjoint": weak, "kernel_trivial": kernel_trivial},
        ),
        (
            "hierarchy",
            (not strong or disjoint) and (not disjoint or weak),
            {"strongly_disjoint": strong, "disjoint": disjoint, "weakly_disjoint": weak},
        ),
    )
    return report, gamma_rep, checks
