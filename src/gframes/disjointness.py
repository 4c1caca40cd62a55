"""Classification of g-frame pairs by the five range-based disjointness relations.

Two families over the same weighted direct-sum target are compared through
their embedded analysis ranges: strong disjointness by the cross operator,
intersection dimensions by dim(U cap V) = rank A + rank B - rank [A|B].  The
pair family Gamma has analysis matrix [A|B], so rank [A|B] is its
``analysis_rank``: the frame verdict of ``frame_bounds(Gamma)`` decides a full
rank, and only a pair that is no frame counts sigma([A|B]).  [A|B] is never
stacked.  The sum of two subspaces is closed in finite dimension, so
"disjoint" and "weakly disjoint" coincide: both read the one rank [A|B].
So the theorems that tie the relations to Gamma (a frame, a trivial kernel,
Riesz-type) hold here by construction; the ``verify`` suite checks them
against the dense SVD of the stacked [A|B].  ``pair_equivalences`` states
the one pair check whose sides come from two computations, for the CLI's
``disjoint`` and ``construct gamma``; ``normalized_pair`` states the Parseval
check of the normalized pair, for the CLI and the ``verify`` suite alike.
The pair family itself is built by ``analysis.gamma_family``, as the analysis
module owns the pair record that is its memo; it is imported here, so
``disjointness.gamma_family`` names it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import full_row_rank, operator_norm, singular_values
from .analysis import Check, analysis_rank, cross_operator, frame_bounds, gamma_family
from .analysis import pair_memo, parseval_normalize, require_frame
from .errors import PreconditionError
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    OperatorPair,
    TolerancePolicy,
    memoized,
    require_same_khat,
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
    dimensions; their domains may differ.  Computed once per pair and ``rel_eps``.
    """
    require_same_khat(lam, theta)
    require_frame(lam, tol, "first family")
    require_frame(theta, tol, "second family")
    key = ("classify", tol.rel_eps)
    return memoized(pair_memo(lam, theta), key, _classify, lam, theta, tol)


def require_relation(
    lam: GFrameFamily, theta: GFrameFamily, relation: str, tol: TolerancePolicy, which="families"
) -> DisjointnessReport:
    """The pair's report; PreconditionError "``which`` are not ``relation``" unless
    the relation (a report field, spaces for underscores) holds."""
    report = classify(lam, theta, tol)
    if not getattr(report, relation.replace(" ", "_")):
        raise PreconditionError(f"{which} are not {relation}")
    return report


def _classify(lam, theta, tol: TolerancePolicy) -> DisjointnessReport:
    """The report, with ``weakly_disjoint`` set to ``disjoint``: in finite
    dimension the range sum is closed, so a trivial kernel of the pair map and a
    trivial range intersection are the same rank statement, rank [A|B] = d1 + d2."""
    khat_dim = lam.codomain_dim
    cross_norm = operator_norm(cross_operator(theta, lam))
    bessel = np.sqrt(frame_bounds(lam, tol).upper_bound * frame_bounds(theta, tol).upper_bound)
    strongly = bool(cross_norm <= tol.rel_eps * bessel)

    # both are frames, so rank A + rank B is the pair's domain dim
    pair_dim = lam.domain_dim + theta.domain_dim
    # [A|B] is the pair family's analysis matrix: its frame verdict decides a full rank
    rank_ab = analysis_rank(gamma_family(lam, theta), tol)
    intersection = pair_dim - rank_ab

    disjoint = intersection == 0
    complementary = disjoint and rank_ab == khat_dim
    strongly_complementary = strongly and complementary

    return DisjointnessReport(
        strongly_disjoint=strongly,
        disjoint=disjoint,
        weakly_disjoint=disjoint,
        complementary_pair=complementary,
        strongly_complementary_pair=strongly_complementary,
        cross_operator_norm=cross_norm,
        range_intersection_dim=int(intersection),
        range_sum_dim=int(rank_ab),
        khat_dim=int(khat_dim),
    )


def delta_family(
    lam: GFrameFamily, theta: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> GFrameFamily:
    """Pair family built from the Parseval normalizations of both inputs.

    For strongly disjoint inputs the result is Parseval; otherwise the
    surviving cross term shows up in its frame operator.
    """
    return gamma_family(parseval_normalize(lam, tol), parseval_normalize(theta, tol))


def normalized_pair(
    lam: GFrameFamily, theta: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[GFrameFamily, Check]:
    """``delta_family(lam, theta)`` and the check that it is Parseval when the
    pair is strongly disjoint, with both facts as its numbers."""
    delta = delta_family(lam, theta, tol)
    parseval = frame_bounds(delta, tol).is_parseval
    strongly = classify(lam, theta, tol).strongly_disjoint
    return delta, (
        "parseval-when-strongly-disjoint",
        (not strongly) or parseval,
        {"strongly_disjoint": strongly, "is_parseval": parseval},
    )


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
    l1, l2 = OperatorPair(l1, l2).square_operators(lam.domain_dim, theta.domain_dim)
    for name, operator in (("L1", l1), ("L2", l2)):
        if not full_row_rank(singular_values(operator), operator.shape):
            raise PreconditionError(f"{name} is not invertible at tolerance")
    fam1 = right_compose(lam, l1)
    fam2 = right_compose(theta, l2)
    return (
        frame_bounds(fam1, tol).is_parseval
        and frame_bounds(fam2, tol).is_parseval
        and frame_bounds(gamma_family(fam1, fam2), tol).is_parseval
    )


def pair_equivalences(
    lam: GFrameFamily, theta: GFrameFamily, tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[DisjointnessReport, GFrameFamily, tuple[Check, ...]]:
    """The pair's relations, its pair family Gamma and the one pair theorem
    whose two sides come from two computations: strongly disjoint, from the
    cross operator's norm, implies disjoint, from rank [A|B] (``hierarchy``;
    its numbers also show weakly disjoint, which is disjoint in finite
    dimension).  The pair theorems that tie the relations to Gamma (disjoint
    iff Gamma is a frame, weakly disjoint iff its kernel is trivial,
    complementary iff it is Riesz-type) are not checked here: :func:`classify`
    reads rank [A|B] from Gamma's own frame verdict, so they cannot fail.
    """
    report = classify(lam, theta, tol)
    strong, disjoint, weak = report.strongly_disjoint, report.disjoint, report.weakly_disjoint
    hierarchy = (
        "hierarchy",
        not strong or disjoint,
        {"strongly_disjoint": strong, "disjoint": disjoint, "weakly_disjoint": weak},
    )
    return report, gamma_family(lam, theta), (hierarchy,)
