"""Frame-building constructions: sums of disjoint pairs, pseudo-inverse duals,
direct-sum dual pairs, lifting of ordinary continuous frames, and the seeded
random generators that feed the property suites."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from ._linalg import full_row_rank, invert_kept, rank_from_singular_values, singular_values
from .analysis import Check, FrameReport, canonical_dual, dual_check, frame_bounds, frame_check
from .analysis import compose_sum, is_dual_pair, optimal_bounds
from .disjointness import gamma_family, require_relation
from .errors import GenerationError, PreconditionError, ShapeError, SingularOperatorError
from .model import (
    GFrameFamily,
    MeasureSpace,
    OperatorPair,
    family_from_analysis_matrix,
    operator_matrix,
    read_dim,
    read_dims,
    require_same_domain,
    right_compose,
)


def pseudo_inverse(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse from one SVD, inverting exactly the singular
    values the rank rule keeps: for a surjective input a right inverse, matrix
    @ result = identity.  ``matrix`` is read by ``operator_matrix``;
    NumericalRangeError also when the result leaves the float range."""
    matrix = operator_matrix(matrix, "matrix")
    svd = np.linalg.svd(np.conj(matrix), full_matrices=False)
    return invert_kept(svd, rank_from_singular_values(svd[1], matrix.shape), "matrix")


@dataclass(frozen=True)
class DisjointSumResult:
    """Sum of a disjoint pair through operator adjoints, with its checks: it is
    a frame, and its bounds sit inside the certificate from the pair family."""

    family: GFrameFamily
    report: FrameReport
    checks: tuple[Check, ...]


def disjoint_sum_family(
    lam: GFrameFamily, theta: GFrameFamily, pair: OperatorPair
) -> DisjointSumResult:
    """Family with blocks lam_i @ L1^H + theta_i @ L2^H for a disjoint pair.

    At least one of L1, L2 must be surjective; the result is then a frame and
    its spectral bounds sit inside [A_pair / ||Lk_pinv||^2,
    2 B_pair max(||L1||^2, ||L2||^2)] where A_pair, B_pair are the bounds of
    the pair family and Lk is the surjective operator.
    """
    require_same_domain(lam, theta)
    require_relation(lam, theta, "disjoint")
    l1_adj, l2_adj = pair.adjoint_operators(lam.domain_dim)
    svals1, svals2 = singular_values(pair.l1), singular_values(pair.l2)
    surj1 = full_row_rank(svals1, pair.l1.shape)
    surj2 = full_row_rank(svals2, pair.l2.shape)
    if not (surj1 or surj2):
        raise PreconditionError("neither L1 nor L2 is surjective")

    family = compose_sum(lam, theta, l1_adj, l2_adj)
    result_report = frame_bounds(family)
    pair_lower, pair_upper, _ = optimal_bounds(gamma_family(lam, theta))
    # For a surjective L, ||L_pinv|| = 1 / sigma_min(L).  The squares are
    # numpy floats, which go to 0 or inf past the float range instead of raising.
    witness = svals1 if surj1 else svals2
    with np.errstate(over="ignore", under="ignore"):
        certified_lower = float(pair_lower * witness[-1] ** 2)
        certified_upper = float(2.0 * pair_upper * max(svals1[0], svals2[0]) ** 2)
    checks = (
        frame_check(family),
        (
            "certificate-sandwich",
            result_report.is_frame and result_report.within(certified_lower, certified_upper),
            {
                "certified_lower": certified_lower,
                "certified_upper": certified_upper,
                "lower_bound": result_report.lower_bound,
                "upper_bound": result_report.upper_bound,
            },
        ),
    )
    return DisjointSumResult(family=family, report=result_report, checks=checks)


@dataclass(frozen=True)
class StrongSumResult:
    """Sum of a strongly disjoint pair through operators whose squares add to
    a positive multiple of the identity; ``scale`` is that multiple.  Its checks:
    the lower bound is at least ``scale`` times the smaller input lower bound,
    and for Parseval inputs the sum is tight with bound ``scale``."""

    family: GFrameFamily
    report: FrameReport
    scale: float
    checks: tuple[Check, ...]


def strongly_disjoint_sum(
    lam: GFrameFamily, theta: GFrameFamily, pair: OperatorPair
) -> StrongSumResult:
    """Family with blocks lam_i @ L1 + theta_i @ L2 for a strongly disjoint pair.

    Requires L1^H L1 + L2^H L2 to be a positive multiple of the identity; for
    Parseval inputs the result is tight with exactly that multiple as bound.
    """
    require_same_domain(lam, theta)
    require_relation(lam, theta, "strongly disjoint")
    l1, l2 = pair.square_operators(lam.domain_dim, lam.domain_dim)
    scale, held = pair.identity_multiple()
    if not held:
        raise PreconditionError("L1^H L1 + L2^H L2 is not a positive multiple of the identity")
    family = compose_sum(lam, theta, l1, l2)
    rep = frame_bounds(family)
    rep_l, rep_t = frame_bounds(lam), frame_bounds(theta)
    guaranteed = scale * min(rep_l.lower_bound, rep_t.lower_bound)
    checks = [
        (
            "lower-bound-guarantee",
            rep.within(guaranteed, math.inf),
            {"lower_bound": rep.lower_bound, "guaranteed": guaranteed},
        )
    ]
    if rep_l.is_parseval and rep_t.is_parseval:
        checks.append(
            (
                "tight-with-hypothesis-scale",
                rep.is_tight and abs(rep.upper_bound - scale) <= _linalg.REL_EPS * scale,
                {"is_tight": rep.is_tight, "bound": rep.upper_bound, "scale": scale},
            )
        )
    return StrongSumResult(family=family, report=rep, scale=scale, checks=tuple(checks))


@dataclass(frozen=True)
class DirectSumDuals:
    """The glued dual pair, with the check of the glued pairing."""

    gamma: GFrameFamily
    delta: GFrameFamily
    checks: tuple[Check, ...]


def direct_sum_duals(
    lam: GFrameFamily, theta: GFrameFamily, psi: GFrameFamily, phi: GFrameFamily
) -> DirectSumDuals:
    """Glue two dual pairs on different domains into a dual pair on the direct sum.

    ``lam`` must be a dual of ``theta`` (both on the first domain) and ``psi``
    a dual of ``phi`` (both on the second); additionally ``lam``/``phi`` and
    ``theta``/``psi`` must be strongly disjoint.  The glued families have
    blocks [lam_i | psi_i] and [theta_i | phi_i].  A failed hypothesis raises
    PreconditionError, so ``checks`` holds only the conclusion: the glued
    pairing, with its distance from the identity.
    """
    if not is_dual_pair(theta, lam):
        raise PreconditionError("lam is not a dual of theta")
    if not is_dual_pair(psi, phi):
        raise PreconditionError("psi is not a dual of phi")
    require_relation(lam, phi, "strongly disjoint", "lam and phi")
    require_relation(theta, psi, "strongly disjoint", "theta and psi")
    gamma = gamma_family(lam, psi)
    delta = gamma_family(theta, phi)
    glued = dual_check("glued-dual-pair", gamma, delta)
    return DirectSumDuals(gamma=gamma, delta=delta, checks=(glued,))


@dataclass(frozen=True)
class PseudoDualResult:
    """The dual candidate, the two families it should be a dual of, and the
    checks that it is."""

    dual_candidate: GFrameFamily
    sum_family: GFrameFamily
    single_family: GFrameFamily
    checks: tuple[Check, ...]


def pseudo_dual(lam: GFrameFamily, theta: GFrameFamily, pair: OperatorPair) -> PseudoDualResult:
    """Dual built from the canonical dual and the pseudo-inverse of L1.

    For a strongly disjoint pair and surjective L1, the family with blocks
    lam_i @ S^{-1} @ L1_pinv is simultaneously a dual of {lam_i @ L1^H} and of
    {lam_i @ L1^H + theta_i @ L2^H}.
    """
    require_same_domain(lam, theta)
    require_relation(lam, theta, "strongly disjoint")
    l1_adj, l2_adj = pair.adjoint_operators(lam.domain_dim)
    # one SVD of L1 judges it onto, and then inverts all of its singular values
    svd = np.linalg.svd(np.conj(pair.l1), full_matrices=False)
    if not full_row_rank(svd[1], pair.l1.shape):
        raise PreconditionError("L1 is not surjective")

    candidate = right_compose(canonical_dual(lam), invert_kept(svd, len(svd[1]), "L1"))
    sum_family = compose_sum(lam, theta, l1_adj, l2_adj)
    single_family = right_compose(lam, l1_adj)
    return PseudoDualResult(
        dual_candidate=candidate,
        sum_family=sum_family,
        single_family=single_family,
        checks=(
            dual_check("dual-of-sum", candidate, sum_family),
            dual_check("dual-of-single", candidate, single_family),
        ),
    )


@dataclass(frozen=True)
class LiftedFamilies:
    """The four rank-one liftings of two ordinary continuous frames into
    two-dimensional blocks: analysis pair (lam, theta) on the first domain
    and (psi, phi) on the second, occupying complementary block rows."""

    lam: GFrameFamily
    theta: GFrameFamily
    phi: GFrameFamily
    psi: GFrameFamily


def lift_continuous_frame(f: GFrameFamily, g: GFrameFamily) -> LiftedFamilies:
    """Lift two ordinary continuous frames to operator families with
    2-dimensional blocks.

    An ordinary frame {f_w} is the g-frame h -> <h, f_w>, whose block at atom w
    is the one row f_w^H; ``f`` and ``g`` are such unit-block families over one
    measure space (ShapeError otherwise).  Per atom, lam and theta write the
    rows of ``f`` and of its canonical dual into the first block row, psi and
    phi those of ``g`` and of its canonical dual into the second, which makes
    the cross pairs strongly disjoint and (lam, theta), (psi, phi) dual pairs.
    """
    if f.space != g.space:
        raise ShapeError("both continuous frames must share the measure space")
    for which, fam in (("first", f), ("second", g)):
        if any(d != 1 for d in fam.block_dims):
            raise ShapeError(f"{which} continuous frame has blocks of dims {fam.block_dims}, not 1")

    def _dual(fam: GFrameFamily, which: str) -> GFrameFamily:
        try:
            return canonical_dual(fam)
        except SingularOperatorError:
            raise PreconditionError(
                f"{which} continuous frame is degenerate (singular frame operator)"
            ) from None

    def _lift(fam: GFrameFamily, row: int) -> GFrameFamily:
        """Blocks with the family's row in block row ``row`` and zeros in the other."""
        rows = np.zeros((2 * fam.atom_count, fam.domain_dim), dtype=complex)
        rows[row::2] = fam.rows
        return GFrameFamily.from_rows(fam.space, rows, (2,) * fam.atom_count)

    return LiftedFamilies(
        lam=_lift(f, 0),
        theta=_lift(_dual(f, "first"), 0),
        phi=_lift(_dual(g, "second"), 1),
        psi=_lift(g, 1),
    )


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _orthonormal_columns(raw: np.ndarray) -> np.ndarray:
    """Q factor of ``raw`` with the phases of R's diagonal moved into it, so that
    the result is a function of ``raw`` alone and replays are bit-stable."""
    q, r = np.linalg.qr(raw)
    diag = np.where(np.abs(np.diagonal(r)) == 0, 1.0, np.diagonal(r))
    return q * (diag / np.abs(diag))[np.newaxis, :]


_MAX_ARRAY_BYTES = np.iinfo(np.intp).max  # numpy refuses a larger array before allocating


def _require_array_size(rows: int, cols: int) -> None:
    """GenerationError for a rows x cols complex array that numpy refuses to make."""
    if rows * cols * 16 > _MAX_ARRAY_BYTES:
        raise GenerationError(f"requested {rows} x {cols} complex matrix is too large")


def _seeded_space(seed: int, atoms: int):
    """The generator for ``seed`` and a measure space drawn from it, weights
    uniform in [0.5, 2.0]; GenerationError for a seed that is not a
    non-negative integer by :func:`read_dim`."""
    seed = read_dim(seed, "seed", GenerationError)
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return rng, MeasureSpace(rng.uniform(0.5, 2.0, atoms))


def random_gframe(seed: int, block_dims, domain_dim: int) -> GFrameFamily:
    """Seed-deterministic family with complex-Gaussian blocks, drawn once.

    It is almost surely a frame when the total codomain dimension reaches the
    domain dimension; otherwise no frame exists (raises GenerationError).
    """
    dims = read_dims(block_dims, "block_dims", GenerationError)
    domain_dim = read_dim(domain_dim, "domain_dim", GenerationError)
    if not dims or any(d < 1 for d in dims) or domain_dim < 1:
        raise GenerationError(f"invalid shape request: block_dims={dims}, domain_dim={domain_dim}")
    rng, space = _seeded_space(seed, len(dims))
    total = sum(dims)
    if total < domain_dim:
        raise GenerationError(
            f"total codomain dimension {total} < domain dimension {domain_dim}: no frame exists"
        )
    _require_array_size(total, domain_dim)
    blocks = tuple(_complex_gaussian(rng, (d, domain_dim)) for d in dims)
    return GFrameFamily(space=space, domain_dim=domain_dim, blocks=blocks)


def random_strongly_disjoint_parseval_pair(
    seed: int,
    block_dims,
    dim_first: int,
    dim_second: int,
) -> tuple[GFrameFamily, GFrameFamily]:
    """Two Parseval families with orthogonal analysis ranges, from an
    orthonormal-column splitting in embedded coordinates.

    The pair is strongly complementary exactly when the two domain dimensions
    fill the whole target space.  The QR orthonormalization fixes the signs of
    the triangular factor's diagonal so replays are bit-stable.
    """
    dims = read_dims(block_dims, "block_dims", GenerationError)
    dim_first = read_dim(dim_first, "dim_first", GenerationError)
    dim_second = read_dim(dim_second, "dim_second", GenerationError)
    if any(d < 1 for d in dims):
        raise GenerationError(f"invalid shape request: block_dims={dims}")
    total = sum(dims)
    if dim_first < 1 or dim_second < 1 or dim_first + dim_second > total:
        raise GenerationError(
            f"need 1 <= dim_first, dim_second with sum <= {total}, got {dim_first} + {dim_second}"
        )
    _require_array_size(total, dim_first + dim_second)
    rng, space = _seeded_space(seed, len(dims))
    raw = _complex_gaussian(rng, (total, dim_first + dim_second))
    q = _orthonormal_columns(raw)
    first = family_from_analysis_matrix(q[:, :dim_first], space, dims)
    second = family_from_analysis_matrix(q[:, dim_first:], space, dims)
    return first, second
