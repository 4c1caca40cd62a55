"""Frame-building constructions: sums of disjoint pairs, pseudo-inverse duals,
direct-sum dual pairs, lifting of ordinary continuous frames, and the seeded
random generators that feed the property suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    MACHINE_EPS,
    hermitian_power,
    hermitize,
    matrices_close,
    operator_norm,
    require_finite,
    svd_rank,
)
from .analysis import FrameReport, canonical_dual, frame_bounds, is_dual_pair
from .disjointness import classify, gamma_family
from .errors import GenerationError, PreconditionError, ShapeError, SingularOperatorError
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    MeasureSpace,
    TolerancePolicy,
    family_from_analysis_matrix,
    require_same_domain,
    right_compose,
)


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Two operators acting on the shared domain of a family pair."""

    l1: np.ndarray
    l2: np.ndarray

    def __post_init__(self):
        for name in ("l1", "l2"):
            arr = np.array(getattr(self, name), dtype=complex)
            if arr.ndim != 2:
                raise ShapeError(f"{name} must be a 2-D matrix")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class ContinuousFrameSpec:
    """An ordinary (vector-valued) continuous frame over the same atom set:
    one vector per atom in a ``dim``-dimensional space.  ``matrix`` stacks
    them as rows; ``vectors`` are read-only views of those rows."""

    space: MeasureSpace
    dim: int
    vectors: tuple[np.ndarray, ...]
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vecs = tuple(np.array(v, dtype=complex).reshape(-1) for v in self.vectors)
        if len(vecs) != self.space.atom_count:
            raise ShapeError(
                f"{len(vecs)} vectors supplied for {self.space.atom_count} atoms"
            )
        for i, v in enumerate(vecs):
            if v.size != self.dim:
                raise ShapeError(f"vector {i} has length {v.size}, expected {self.dim}")
        matrix = np.array(vecs, dtype=complex).reshape(len(vecs), self.dim)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "vectors", tuple(matrix))

    def frame_operator(self) -> np.ndarray:
        """Sum of w_i * v_i v_i^H; raises NumericalRangeError when it overflows."""
        op = hermitize((self.matrix.T * self.space.weights) @ self.matrix.conj())
        return require_finite(op, "frame operator")


def pseudo_inverse(matrix: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the package-wide rank cutoff.

    For a surjective input this is a right inverse: matrix @ result = identity.
    """
    matrix = np.asarray(matrix, dtype=complex)
    rcond = tol.rank_eps_factor * max(matrix.shape) * MACHINE_EPS
    return np.linalg.pinv(matrix, rcond=rcond)


def _require_adjoint_pair_shapes(pair: OperatorPair, domain_dim: int) -> None:
    """Both operators must map the shared domain somewhere common."""
    l1, l2 = pair.l1, pair.l2
    if l1.shape[1] != domain_dim or l2.shape[1] != domain_dim:
        raise ShapeError(
            f"operators must have {domain_dim} columns, got {l1.shape} and {l2.shape}"
        )
    if l1.shape[0] != l2.shape[0]:
        raise ShapeError(
            f"operators must have the same row count, got {l1.shape[0]} and {l2.shape[0]}"
        )


def _adjoint_sum(lam: GFrameFamily, theta: GFrameFamily, pair: OperatorPair) -> GFrameFamily:
    """Family with blocks lam_i @ L1^H + theta_i @ L2^H."""
    rows = lam.rows @ pair.l1.conj().T + theta.rows @ pair.l2.conj().T
    return GFrameFamily.from_rows(lam.space, rows, lam.block_dims)


@dataclass(frozen=True)
class DisjointSumResult:
    """Sum of a disjoint pair through operator adjoints, with the bound
    certificate inherited from the pair family."""

    family: GFrameFamily
    report: FrameReport
    certified_lower: float
    certified_upper: float
    certificate_ok: bool


def disjoint_sum_family(
    lam: GFrameFamily,
    theta: GFrameFamily,
    pair: OperatorPair,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> DisjointSumResult:
    """Family with blocks lam_i @ L1^H + theta_i @ L2^H for a disjoint pair.

    At least one of L1, L2 must be surjective; the result is then a frame and
    its spectral bounds sit inside [A_pair / ||Lk_pinv||^2,
    2 B_pair max(||L1||^2, ||L2||^2)] where A_pair, B_pair are the bounds of
    the pair family and Lk is the surjective operator.
    """
    require_same_domain(lam, theta)
    report = classify(lam, theta, tol)
    if not report.disjoint:
        raise PreconditionError("families are not disjoint")
    _require_adjoint_pair_shapes(pair, lam.domain_dim)
    surj1 = svd_rank(pair.l1, tol) == pair.l1.shape[0]
    surj2 = svd_rank(pair.l2, tol) == pair.l2.shape[0]
    if not (surj1 or surj2):
        raise PreconditionError("neither L1 nor L2 is surjective")

    family = _adjoint_sum(lam, theta, pair)

    pair_report = frame_bounds(gamma_family(lam, theta), tol)
    witness = pair.l1 if surj1 else pair.l2
    pinv_norm = operator_norm(pseudo_inverse(witness, tol))
    certified_lower = pair_report.lower_bound / pinv_norm**2
    certified_upper = (
        2.0
        * pair_report.upper_bound
        * max(operator_norm(pair.l1) ** 2, operator_norm(pair.l2) ** 2)
    )
    result_report = frame_bounds(family, tol)
    certificate_ok = (
        result_report.is_frame
        and result_report.lower_bound >= certified_lower * (1.0 - tol.rel_eps)
        and result_report.upper_bound <= certified_upper * (1.0 + tol.rel_eps)
    )
    return DisjointSumResult(
        family=family,
        report=result_report,
        certified_lower=float(certified_lower),
        certified_upper=float(certified_upper),
        certificate_ok=certificate_ok,
    )


@dataclass(frozen=True)
class StrongSumResult:
    """Sum of a strongly disjoint pair through operators whose squares add to
    a positive multiple of the identity; ``scale`` is that multiple."""

    family: GFrameFamily
    report: FrameReport
    scale: float


def strongly_disjoint_sum(
    lam: GFrameFamily,
    theta: GFrameFamily,
    pair: OperatorPair,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> StrongSumResult:
    """Family with blocks lam_i @ L1 + theta_i @ L2 for a strongly disjoint pair.

    Requires L1^H L1 + L2^H L2 to be a positive multiple of the identity; for
    Parseval inputs the result is tight with exactly that multiple as bound.
    """
    require_same_domain(lam, theta)
    report = classify(lam, theta, tol)
    if not report.strongly_disjoint:
        raise PreconditionError("families are not strongly disjoint")
    d = lam.domain_dim
    l1, l2 = pair.l1, pair.l2
    if l1.shape != (d, d) or l2.shape != (d, d):
        raise ShapeError(f"L1 and L2 must be {d} x {d}")
    gram = l1.conj().T @ l1 + l2.conj().T @ l2
    scale = float(np.trace(gram).real) / d
    if not (scale > 0 and matrices_close(gram, scale * np.eye(d), tol.rel_eps)):
        raise PreconditionError(
            "L1^H L1 + L2^H L2 is not a positive multiple of the identity"
        )
    family = GFrameFamily.from_rows(lam.space, lam.rows @ l1 + theta.rows @ l2, lam.block_dims)
    return StrongSumResult(family=family, report=frame_bounds(family, tol), scale=scale)


@dataclass(frozen=True)
class DirectSumDuals:
    gamma: GFrameFamily
    delta: GFrameFamily
    dual_verified: bool


def direct_sum_duals(
    lam: GFrameFamily,
    theta: GFrameFamily,
    psi: GFrameFamily,
    phi: GFrameFamily,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> DirectSumDuals:
    """Glue two dual pairs on different domains into a dual pair on the direct sum.

    ``lam`` must be a dual of ``theta`` (both on the first domain) and ``psi``
    a dual of ``phi`` (both on the second); additionally ``lam``/``phi`` and
    ``theta``/``psi`` must be strongly disjoint.  The glued families have
    blocks [lam_i | psi_i] and [theta_i | phi_i].
    """
    if not is_dual_pair(lam, theta, tol):
        raise PreconditionError("lam is not a dual of theta")
    if not is_dual_pair(psi, phi, tol):
        raise PreconditionError("psi is not a dual of phi")
    if not classify(lam, phi, tol).strongly_disjoint:
        raise PreconditionError("lam and phi are not strongly disjoint")
    if not classify(theta, psi, tol).strongly_disjoint:
        raise PreconditionError("theta and psi are not strongly disjoint")
    gamma = gamma_family(lam, psi)
    delta = gamma_family(theta, phi)
    return DirectSumDuals(
        gamma=gamma, delta=delta, dual_verified=is_dual_pair(gamma, delta, tol)
    )


@dataclass(frozen=True)
class PseudoDualResult:
    dual_candidate: GFrameFamily
    sum_family: GFrameFamily
    single_family: GFrameFamily
    dual_of_sum: bool
    dual_of_single: bool


def pseudo_dual(
    lam: GFrameFamily,
    theta: GFrameFamily,
    pair: OperatorPair,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> PseudoDualResult:
    """Dual built from the canonical dual and the pseudo-inverse of L1.

    For a strongly disjoint pair and surjective L1, the family with blocks
    lam_i @ S^{-1} @ L1_pinv is simultaneously a dual of {lam_i @ L1^H} and of
    {lam_i @ L1^H + theta_i @ L2^H}.
    """
    require_same_domain(lam, theta)
    report = classify(lam, theta, tol)
    if not report.strongly_disjoint:
        raise PreconditionError("families are not strongly disjoint")
    _require_adjoint_pair_shapes(pair, lam.domain_dim)
    if svd_rank(pair.l1, tol) != pair.l1.shape[0]:
        raise PreconditionError("L1 is not surjective")

    candidate = right_compose(canonical_dual(lam, tol), pseudo_inverse(pair.l1, tol))
    sum_family = _adjoint_sum(lam, theta, pair)
    single_family = right_compose(lam, pair.l1.conj().T)
    return PseudoDualResult(
        dual_candidate=candidate,
        sum_family=sum_family,
        single_family=single_family,
        dual_of_sum=is_dual_pair(candidate, sum_family, tol),
        dual_of_single=is_dual_pair(candidate, single_family, tol),
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


def lift_continuous_frame(
    f_spec: ContinuousFrameSpec,
    g_spec: ContinuousFrameSpec,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> LiftedFamilies:
    """Lift two vector-valued continuous frames to operator families with
    2-dimensional blocks.

    Per atom, the first lifted pair writes the frame coefficient (and its
    canonical-dual coefficient) into the first block coordinate; the second
    pair uses the second coordinate, which makes the cross pairs strongly
    disjoint and (lam, theta), (psi, phi) dual pairs.
    """
    if f_spec.space != g_spec.space:
        raise ShapeError("both continuous frame specs must share the measure space")

    def _inverse(spec: ContinuousFrameSpec, which: str) -> np.ndarray:
        try:
            return hermitian_power(spec.frame_operator(), -1.0, tol)
        except SingularOperatorError:
            raise PreconditionError(
                f"{which} continuous frame spec is degenerate (singular frame operator)"
            ) from None

    def _lift(vectors: np.ndarray, row: int) -> GFrameFamily:
        """Blocks with the conjugated vector in block row ``row`` and zeros in the other."""
        rows = np.zeros((2 * vectors.shape[0], vectors.shape[1]), dtype=complex)
        rows[row::2] = vectors.conj()
        return GFrameFamily.from_rows(f_spec.space, rows, (2,) * vectors.shape[0])

    f, g = f_spec.matrix, g_spec.matrix
    return LiftedFamilies(
        lam=_lift(f, 0),
        theta=_lift(f @ _inverse(f_spec, "first").T, 0),
        phi=_lift(g @ _inverse(g_spec, "second").T, 1),
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


def _seeded_space(seed: int, atoms: int, weight_range):
    """The generator for ``seed`` and a measure space drawn from it, weights
    uniform in ``weight_range``; GenerationError for a negative seed or a
    range that is not finite with 0 < low <= high."""
    low, high = weight_range
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(low) and math.isfinite(high) and 0 < low <= high):
        raise GenerationError(
            f"weight range must be finite with 0 < low <= high, got ({low}, {high})"
        )
    rng = np.random.default_rng(seed)
    return rng, MeasureSpace(rng.uniform(low, high, atoms))


def random_gframe(
    seed: int,
    block_dims,
    domain_dim: int,
    weight_range=(0.5, 2.0),
    ensure_frame: bool = True,
    max_retries: int = 8,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> GFrameFamily:
    """Seed-deterministic family with complex-Gaussian blocks.

    With ``ensure_frame`` (the default) the draw is repeated until the result
    is a frame, which is almost sure when the total codomain dimension reaches
    the domain dimension, and impossible otherwise (raises GenerationError).
    """
    dims = tuple(int(d) for d in block_dims)
    if not dims or any(d < 1 for d in dims) or domain_dim < 1:
        raise GenerationError(f"invalid shape request: block_dims={dims}, domain_dim={domain_dim}")
    rng, space = _seeded_space(seed, len(dims), weight_range)
    total = sum(dims)
    if ensure_frame and total < domain_dim:
        raise GenerationError(
            f"total codomain dimension {total} < domain dimension {domain_dim}: no frame exists"
        )
    for _ in range(max_retries):
        blocks = tuple(_complex_gaussian(rng, (d, domain_dim)) for d in dims)
        family = GFrameFamily(space=space, domain_dim=domain_dim, blocks=blocks)
        if not ensure_frame or frame_bounds(family, tol).is_frame:
            return family
    raise GenerationError(f"could not draw a frame in {max_retries} attempts")


def random_strongly_disjoint_parseval_pair(
    seed: int,
    block_dims,
    dim_first: int,
    dim_second: int,
    weight_range=(0.5, 2.0),
) -> tuple[GFrameFamily, GFrameFamily]:
    """Two Parseval families with orthogonal analysis ranges, from an
    orthonormal-column splitting in embedded coordinates.

    The pair is strongly complementary exactly when the two domain dimensions
    fill the whole target space.  The QR orthonormalization fixes the signs of
    the triangular factor's diagonal so replays are bit-stable.
    """
    dims = tuple(int(d) for d in block_dims)
    if any(d < 1 for d in dims):
        raise GenerationError(f"invalid shape request: block_dims={dims}")
    total = sum(dims)
    if dim_first < 1 or dim_second < 1 or dim_first + dim_second > total:
        raise GenerationError(
            f"need 1 <= dim_first, dim_second with sum <= {total}, got {dim_first} + {dim_second}"
        )
    rng, space = _seeded_space(seed, len(dims), weight_range)
    raw = _complex_gaussian(rng, (total, dim_first + dim_second))
    q = _orthonormal_columns(raw)
    first = family_from_analysis_matrix(q[:, :dim_first], space, dims)
    second = family_from_analysis_matrix(q[:, dim_first:], space, dims)
    return first, second
