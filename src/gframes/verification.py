"""Randomized property suite: every construction theorem and operator identity
in the package, exercised on seed-deterministic generated instances.

``run_suite`` is what the ``verify`` CLI command executes.  Each check
draws one case and yields its failures; ``_per_case`` runs it ``cases``
times on the generator of its child seed of the master seed and labels each
failure with its case, so the verdict is a pure function of
(seed, cases, tolerance).  A check that raises a package error fails its
case with ``case k: raised <class>: <message>``, and the next case runs.
Instances are conditioned by construction (``_conditioned``), never drawn
again, so every case tests something at any size.

The checks share no state, so ``run_suite`` runs them in forked workers, one
per usable CPU, and collects their results in ``CHECKS`` order: the report is
the one a single CPU gives.  At fewer than ``_POOL_MIN_CASES`` cases they run
in turn, as starting the pool would cost more than it saves.  Only this
driver fans out; the library itself stays single-process.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    hermitian_power,
    matrices_close,
    operator_norm,
    rank_from_singular_values,
    singular_values,
)
from .analysis import (
    canonical_dual,
    compose_sum,
    cross_operator,
    dual_check,
    frame_bounds,
    frame_operator,
    parseval_check,
    parseval_normalize,
)
from .constructions import (
    direct_sum_duals,
    disjoint_sum_family,
    lift_continuous_frame,
    pseudo_dual,
    pseudo_inverse,
    random_strongly_disjoint_parseval_pair,
    strongly_disjoint_sum,
)
from .constructions import _complex_gaussian as _cgauss
from .constructions import _orthonormal_columns
from .disjointness import (
    classify,
    gamma_family,
    normalized_pair,
    strong_disjointness_converse_check,
)
from .documents import FrameDocument, parse_document, serialize_document
from .errors import GFrameError
from .model import (
    DEFAULT_TOL,
    GFrameFamily,
    KHatVector,
    MeasureSpace,
    OperatorPair,
    TolerancePolicy,
    analysis_matrix,
    apply_analysis,
    embed,
    family_from_analysis_matrix,
    inner,
    khat_inner,
    right_compose,
    unembed,
)
from .riesz import (
    cross_surjectivity,
    mixed_construction,
    perturbation_riesz_transfer,
    riesz_check,
    riesz_criteria,
    synthesis_kernel_test,
    synthesis_matrix,
)

# Every frame drawn from a Gaussian has a frame operator of condition number at
# most this, by construction, so the 1e-9 identities are tested well away from
# floating-point noise; a drawn right factor multiplies it by at most 1e4.
_MAX_CONDITION = 1e5


def _tiny(value: float, tol: TolerancePolicy, scale: float = 1.0) -> bool:
    return abs(value) <= tol.rel_eps * max(1.0, scale)


def _random_dims(rng: np.random.Generator, max_atoms: int = 6):
    atoms = int(rng.integers(2, max_atoms + 1))
    return tuple(int(d) for d in rng.integers(1, 3, atoms))


def _conditioned(rng, raw: np.ndarray, floor: float) -> np.ndarray:
    """``raw`` with its singular values redrawn uniform in [floor * s, s], s the
    largest of ``raw``: the same singular vectors, hence the same range, and
    sigma_min >= floor * sigma_max by construction (Golub & Van Loan, 2.4)."""
    u, svals, vh = np.linalg.svd(raw, full_matrices=False)
    return (u * rng.uniform(floor * svals[0], svals[0], len(svals))) @ vh


def _random_operator(rng, rows: int, cols: int) -> np.ndarray:
    """``rows`` x ``cols`` operator with sigma_min >= 1e-2 sigma_max: invertible
    when square, onto when wide."""
    return _conditioned(rng, _cgauss(rng, (rows, cols)), 1e-2)


def _frame_over(rng, space, dims, raw: np.ndarray) -> GFrameFamily:
    """The frame whose embedded analysis matrix is the tall ``raw`` conditioned:
    its frame operator's eigenvalues are the squared singular values, so its
    bounds differ by at most the factor _MAX_CONDITION."""
    return family_from_analysis_matrix(_conditioned(rng, raw, _MAX_CONDITION**-0.5), space, dims)


def _random_frame(rng, dims=None, domain_dim=None):
    d = dims if dims is not None else _random_dims(rng)
    total = sum(d)
    dom = domain_dim if domain_dim is not None else int(rng.integers(1, total + 1))
    space = MeasureSpace(rng.uniform(0.5, 2.0, len(d)))
    return _frame_over(rng, space, d, _cgauss(rng, (total, dom)))


def _random_unitary(rng, dim: int) -> np.ndarray:
    return _orthonormal_columns(_cgauss(rng, (dim, dim)))


def _random_strongly_disjoint(rng, parseval: bool = False, equal_domains: bool = False):
    """Strongly disjoint frame pair; optionally de-Parsevalized by invertible
    right factors (which leave the analysis ranges untouched)."""
    dims = _random_dims(rng)
    total = sum(dims)
    if equal_domains:
        d1 = d2 = int(rng.integers(1, total // 2 + 1))
    else:
        d1 = int(rng.integers(1, total))
        d2 = int(rng.integers(1, total - d1 + 1))
    seed = int(rng.integers(0, 2**63 - 1))
    first, second = random_strongly_disjoint_parseval_pair(seed, dims, d1, d2)
    if parseval:
        return first, second
    return (
        right_compose(first, _random_operator(rng, d1, d1)),
        right_compose(second, _random_operator(rng, d2, d2)),
    )


def _random_pair(rng):
    """Frame pair over a shared target, mixing all disjointness behaviors; the
    second range is chosen before it is conditioned, so no draw is classified."""
    mode = int(rng.integers(0, 4))
    if mode == 0:
        return _random_strongly_disjoint(rng)
    lam = _random_frame(rng)
    if mode == 1:  # identical analysis ranges
        return lam, right_compose(lam, _random_operator(rng, lam.domain_dim, lam.domain_dim))
    total = lam.codomain_dim
    d2 = int(rng.integers(1, total + 1))
    if mode == 2:  # one shared range direction, rest generic
        shared = analysis_matrix(lam) @ _cgauss(rng, (lam.domain_dim,))
        raw = np.hstack([shared.reshape(-1, 1), _cgauss(rng, (total, d2 - 1))])
    else:  # generic independent pair over one space
        raw = _cgauss(rng, (total, d2))
    return lam, _frame_over(rng, lam.space, lam.block_dims, raw)


def _random_fit_or_overcomplete_frame(rng):
    """Half the time a frame whose domain fills the target (Riesz-type), else
    one with a random domain dimension (mostly overcomplete)."""
    dims = _random_dims(rng)
    total = sum(dims)
    domain = total if rng.integers(0, 2) else int(rng.integers(1, total + 1))
    return _random_frame(rng, dims, domain)


def _random_disjoint_equal_domain(rng):
    """Disjoint pair sharing one domain; mixes strongly disjoint and merely
    disjoint instances, the latter two generic ranges of dim d with 2d <= N."""
    if rng.integers(0, 2):
        return _random_strongly_disjoint(rng, equal_domains=True)
    dims = _random_dims(rng)
    total = sum(dims)
    d = int(rng.integers(1, total // 2 + 1))
    lam = _random_frame(rng, dims=dims, domain_dim=d)
    return lam, _frame_over(rng, lam.space, dims, _cgauss(rng, (total, d)))


def _random_khat(rng, block_dims) -> KHatVector:
    return KHatVector(tuple(_cgauss(rng, (int(d),)) for d in block_dims))


# Atom-by-atom references: the library computes these as products on the
# stacked row matrix, so the checks compare against the definitions.


def _blockwise_frame_operator(fam) -> np.ndarray:
    out = np.zeros((fam.domain_dim, fam.domain_dim), dtype=complex)
    for w, block in zip(fam.space.weights, fam.blocks):
        out += w * (block.conj().T @ block)
    return out


def _blockwise_synthesis(fam) -> np.ndarray:
    return np.hstack([np.sqrt(w) * b.conj().T for w, b in zip(fam.space.weights, fam.blocks)])


# Checks: each draws one case from ``rng`` and yields its failure descriptions.


def _check_embedding_isometry(rng, tol):
    dims = _random_dims(rng)
    space = MeasureSpace(rng.uniform(0.25, 4.0, len(dims)))
    f = _random_khat(rng, dims)
    g = _random_khat(rng, dims)
    weighted = khat_inner(f, g, space)
    embedded = inner(embed(f, space), embed(g, space))
    if not _tiny(abs(weighted - embedded), tol, abs(weighted)):
        yield f"isometry defect {abs(weighted - embedded):.3e}"
    if not _tiny(abs(weighted - np.conj(khat_inner(g, f, space))), tol, abs(weighted)):
        yield "conjugate symmetry broken"
    self_ip = khat_inner(f, f, space)
    if self_ip.real < 0 or abs(self_ip.imag) > tol.rel_eps * max(1.0, self_ip.real):
        yield f"<F,F> not real nonnegative: {self_ip}"


def _check_analysis_blockwise(rng, tol):
    fam = _random_frame(rng)
    h = _cgauss(rng, (fam.domain_dim,))
    via_matrix = unembed(analysis_matrix(fam) @ h, fam.space, fam.block_dims)
    applied = apply_analysis(fam, h)
    for i, block in enumerate(fam.blocks):
        direct = block @ h
        if not (
            matrices_close(via_matrix.blocks[i], direct, tol.rel_eps)
            and matrices_close(applied.blocks[i], direct, tol.rel_eps)
        ):
            yield f"block {i} mismatch"


def _check_defining_inequality(rng, tol):
    fam = _random_frame(rng)
    rep = frame_bounds(fam, tol)
    mat = analysis_matrix(fam)
    h = _cgauss(rng, (fam.domain_dim, 100))
    values = np.sum(np.abs(mat @ h) ** 2, axis=0)
    norms = np.sum(np.abs(h) ** 2, axis=0)
    slack = tol.rel_eps * rep.upper_bound * norms
    if np.any(values < rep.lower_bound * norms - slack) or np.any(
        values > rep.upper_bound * norms + slack
    ):
        yield "defining inequality violated"


def _check_reconstruction(rng, tol):
    fam = _random_frame(rng)
    s_inv = hermitian_power(frame_operator(fam), -1.0)
    f = _cgauss(rng, (fam.domain_dim,))
    g = _cgauss(rng, (fam.domain_dim,))
    s_inv_f = s_inv @ f
    total = 0.0 + 0.0j
    for w, block in zip(fam.space.weights, fam.blocks):
        total += w * inner(s_inv_f, block.conj().T @ (block @ g))
    expected = inner(f, g)
    if not _tiny(abs(total - expected), tol, abs(expected)):
        yield f"reconstruction defect {abs(total - expected):.3e}"


def _check_synthesis_norm(rng, tol):
    fam = _random_frame(rng)
    rep = frame_bounds(fam, tol)
    synth = synthesis_matrix(fam)
    if not matrices_close(synth, _blockwise_synthesis(fam), tol.rel_eps):
        yield "synthesis matrix != blockwise columns"
    sigma = operator_norm(synth)
    root = np.sqrt(rep.upper_bound)
    if sigma > root + tol.rel_eps:
        yield f"synthesis norm {sigma} exceeds sqrt(B) {root}"
    if not _tiny(abs(sigma - root), tol, root):
        yield f"spectral identity broken ({sigma} vs {root})"


def _check_gram_identity(rng, tol):
    fam = _random_frame(rng)
    if not matrices_close(frame_operator(fam), _blockwise_frame_operator(fam), tol.rel_eps):
        yield "frame operator != blockwise sum of block grams"


def _failed_equivalences(checks):
    """The failures among library ``(name, passed, numbers)`` checks."""
    for name, passed, numbers in checks:
        if not passed:
            yield f"{name} broken (" + " ".join(f"{k}={v}" for k, v in numbers.items()) + ")"


def _check_canonical_dual(rng, tol):
    fam = _random_frame(rng)
    dual = canonical_dual(fam, tol)
    yield from _failed_equivalences([dual_check("dual-pairing", dual, fam, tol)])
    double = canonical_dual(dual, tol)
    for i, (a, b) in enumerate(zip(double.blocks, fam.blocks)):
        if not matrices_close(a, b, tol.rel_eps):
            yield f"dual involution broken at block {i}"
    yield from _failed_equivalences([parseval_check(parseval_normalize(fam, tol), tol)])


def _check_pair_parseval(rng, tol):
    """Strong disjointness <-> the normalized pair family is Parseval."""
    lam, theta = _random_strongly_disjoint(rng)
    delta, check = normalized_pair(lam, theta, tol)
    yield from _failed_equivalences([check])
    numbers = check[2]
    if not (numbers["strongly_disjoint"] and numbers["is_parseval"]):
        yield f"pair drawn strongly disjoint: {numbers}"
    if not matrices_close(frame_operator(delta), np.eye(delta.domain_dim), tol.rel_eps):
        yield "frame operator of the normalized pair is not I"
    l1 = hermitian_power(frame_operator(lam), -0.5)
    l2 = hermitian_power(frame_operator(theta), -0.5)
    if not strong_disjointness_converse_check(lam, theta, l1, l2, tol):
        yield "canonical witnesses rejected"
    lam2, theta2 = _random_pair(rng)
    if not classify(lam2, theta2, tol).strongly_disjoint:
        w1 = hermitian_power(frame_operator(lam2), -0.5)
        w2 = hermitian_power(frame_operator(theta2), -0.5)
        if strong_disjointness_converse_check(lam2, theta2, w1, w2, tol):
            yield "converse check passed a non-strongly-disjoint pair"


def _dense_rank(matrix):
    """The numerical rank of ``matrix`` and its singular values, from its dense SVD
    (Golub & Van Loan, 5.4): the reference for the rank and Riesz verdicts, which
    the library reads from Gram certificates, streamed factors and shapes."""
    svals = singular_values(matrix)
    return rank_from_singular_values(svals, matrix.shape), svals


def _dense_riesz(fam):
    """Whether a frame is Riesz-type by the dense SVD of its analysis matrix A
    (rank A == N), and sigma(A)."""
    rank, svals = _dense_rank(analysis_matrix(fam))
    return rank == fam.codomain_dim, svals


def _pair_with_dense_ranks(rng, tol):
    """A drawn pair's report and pair family, with rank A + rank B and rank [A|B]
    from the dense SVDs of the stacked matrices: the reference for the pair verdicts."""
    lam, theta = _random_pair(rng)
    a, b = analysis_matrix(lam), analysis_matrix(theta)
    ranks = [_dense_rank(m)[0] for m in (a, b, np.hstack([a, b]))]
    return classify(lam, theta, tol), gamma_family(lam, theta), ranks[0] + ranks[1], ranks[2]


def _against_dense(**verdicts):
    """A fault for each ``name=(library verdict, dense reference)`` that differ."""
    for name, (verdict, reference) in verdicts.items():
        if verdict != reference:
            yield f"{name}={verdict} but the dense SVD gives {reference}"


def _riesz_against_dense(fam, tol, synthesis_lower_bound, **verdicts):
    """A fault for each Riesz-type verdict of the frame ``fam`` that differs from
    the dense SVD's, and one unless ``synthesis_lower_bound`` is sigma_min(A)^2
    when it is Riesz-type and 0 otherwise, to rel_eps of sigma_max(A)^2."""
    riesz, svals = _dense_riesz(fam)
    yield from _against_dense(**{name: (verdict, riesz) for name, verdict in verdicts.items()})
    reference = float(svals[-1]) ** 2 if riesz else 0.0
    if not _tiny(synthesis_lower_bound - reference, tol, float(svals[0]) ** 2):
        yield f"synthesis lower bound {synthesis_lower_bound} but the dense SVD gives {reference}"


def _check_pair_frame_iff_disjoint(rng, tol):
    """Disjoint iff the pair family is a frame iff its kernel is trivial, each
    verdict against dim(U cap V) = rank A + rank B - rank [A|B]."""
    report, gamma, rank_sum, rank_ab = _pair_with_dense_ranks(rng, tol)
    disjoint = rank_sum == rank_ab
    yield from _against_dense(
        range_intersection_dim=(report.range_intersection_dim, rank_sum - rank_ab),
        pair_family_is_frame=(frame_bounds(gamma, tol).is_frame, disjoint),
        weakly_disjoint=(report.weakly_disjoint, disjoint),
    )


def _check_pair_riesz_equivalences(rng, tol):
    """Complementary iff the pair family is Riesz-type, and strongly
    complementary iff strongly disjoint and complementary, against the dense
    ranks: complementary means rank A + rank B = rank [A|B] = N."""
    report, gamma, rank_sum, rank_ab = _pair_with_dense_ranks(rng, tol)
    complementary = rank_sum == rank_ab == gamma.codomain_dim
    riesz = frame_bounds(gamma, tol).is_frame and riesz_check(gamma, tol).is_riesz_type
    strongly_complementary = report.strongly_disjoint and complementary
    yield from _against_dense(
        pair_family_riesz=(riesz, complementary),
        complementary_pair=(report.complementary_pair, complementary),
        strongly_complementary_pair=(report.strongly_complementary_pair, strongly_complementary),
    )


def _orthonormal_range_basis(matrix):
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : rank_from_singular_values(s, matrix.shape)]


def _check_pair_bound_sandwich(rng, tol):
    """Bounds of the pair family against the sum-map estimate: the map's norm and
    the upper bound on every pair, the lower bound on disjoint pairs."""
    lam, theta = _random_pair(rng)
    report = classify(lam, theta, tol)
    basis = np.hstack(
        [
            _orthonormal_range_basis(analysis_matrix(lam)),
            _orthonormal_range_basis(analysis_matrix(theta)),
        ]
    )
    gain_sq, norm_sq = singular_values(basis)[[-1, 0]] ** 2
    if norm_sq > 2.0 * (1.0 + tol.rel_eps):
        yield f"sum map norm^2 {norm_sq} exceeds 2"
    rep_l = frame_bounds(lam, tol)
    rep_t = frame_bounds(theta, tol)
    rep_g = frame_bounds(gamma_family(lam, theta), tol)
    lower_guard = gain_sq * min(rep_l.lower_bound, rep_t.lower_bound)
    upper_guard = norm_sq * max(rep_l.upper_bound, rep_t.upper_bound)
    if report.disjoint and rep_g.lower_bound < lower_guard * (1.0 - tol.rel_eps) - tol.rel_eps:
        yield "pair lower bound below sum-map estimate"
    if rep_g.upper_bound > upper_guard * (1.0 + tol.rel_eps) + tol.rel_eps:
        yield "pair upper bound above sum-map estimate"


def _check_riesz_criteria(rng, tol):
    """Both Riesz routes and ``riesz_check``'s synthesis lower bound against the dense
    SVD of the analysis matrix."""
    fam = _random_fit_or_overcomplete_frame(rng)
    by_rank, by_synthesis = riesz_criteria(fam, tol)
    lower = riesz_check(fam, tol).synthesis_lower_bound
    yield from _riesz_against_dense(fam, tol, lower, by_rank=by_rank, by_synthesis=by_synthesis)


def _check_synthesis_kernel(rng, tol):
    """The kernel test on a random vector when the dense SVD finds A^H injective,
    else on A^H's last right singular vector, which spans part of its kernel."""
    fam = _random_fit_or_overcomplete_frame(rng)
    synth = synthesis_matrix(fam)
    if _dense_rank(synth)[0] == fam.codomain_dim:
        phi = _random_khat(rng, fam.block_dims)
        if synthesis_kernel_test(fam, phi, tol):
            yield "random vector in kernel of a Riesz-type family"
    else:
        _, _, vh = np.linalg.svd(synth)
        phi = unembed(vh[-1].conj(), fam.space, fam.block_dims)
        if not synthesis_kernel_test(fam, phi, tol):
            yield "SVD kernel vector rejected"


def _check_cross_surjectivity(rng, tol):
    fam = _random_frame(rng)
    dual = canonical_dual(fam, tol)
    theta_frame, surjective = cross_surjectivity(fam, dual, tol)
    if not (theta_frame and surjective):
        yield "canonical dual pair not surjective"
    # surjective cross operator must force the second family to be a frame
    lam2, theta2 = _random_pair(rng)
    frame2, surj2 = cross_surjectivity(lam2, theta2, tol)
    if surj2 and not frame2:
        yield "surjective cross operator with non-frame family"
    # compress through a rank-one projector: never surjective for dim >= 2
    if fam.domain_dim >= 2:
        vec = _cgauss(rng, (fam.domain_dim,))
        vec = vec / np.linalg.norm(vec)
        compressed = right_compose(fam, np.outer(vec, vec.conj()))
        _, surj3 = cross_surjectivity(fam, compressed, tol)
        if surj3:
            yield "rank-deficient compression declared surjective"
    # Riesz-type first family + any frame second family -> surjective
    dims = _random_dims(rng)
    total = sum(dims)
    riesz_fam = _random_frame(rng, dims=dims, domain_dim=total)
    raw = _cgauss(rng, (total, int(rng.integers(1, total + 1))))
    _, surj4 = cross_surjectivity(riesz_fam, _frame_over(rng, riesz_fam.space, dims, raw), tol)
    if not surj4:
        yield "Riesz-type + frame pair not surjective"


def _check_perturbation(rng, tol):
    lam = _random_fit_or_overcomplete_frame(rng)
    domain = lam.domain_dim
    rep = frame_bounds(lam, tol)
    noise = GFrameFamily.from_rows(lam.space, _cgauss(rng, lam.rows.shape), lam.block_dims)
    scale = 0.4 * rep.lower_bound / max(operator_norm(cross_operator(noise, lam)), 1e-12)
    theta = GFrameFamily.from_rows(lam.space, lam.rows + scale * noise.rows, lam.block_dims)
    result = perturbation_riesz_transfer(lam, theta, tol)
    if not result.criterion_met:
        yield "constructed perturbation misses the criterion"
        return
    same = _dense_riesz(lam)[0] == _dense_riesz(theta)[0]
    yield from _against_dense(equivalence_verified=(result.equivalence_verified, same))
    cross = cross_operator(theta, lam)
    f = _cgauss(rng, (domain,))
    lhs = float(np.linalg.norm(cross @ f))
    rhs = (rep.lower_bound - result.lambda_gap) * float(np.linalg.norm(f))
    if lhs < rhs * (1.0 - tol.rel_eps) - tol.rel_eps:
        yield "injectivity chain violated"
    # gross perturbation: criterion must not fire
    big = GFrameFamily.from_rows(
        lam.space, (1.0 + 2.0 * rep.upper_bound / rep.lower_bound) * lam.rows, lam.block_dims
    )
    if perturbation_riesz_transfer(lam, big, tol).criterion_met:
        yield "oversized perturbation passed the criterion"


def _check_mixed_construction(rng, tol):
    lam = _random_fit_or_overcomplete_frame(rng)
    theta = canonical_dual(lam, tol)
    l1 = _random_operator(rng, lam.domain_dim, lam.domain_dim)
    l2 = np.linalg.inv(l1).conj().T
    result = mixed_construction(lam, theta, l1, l2, tol)
    if not result.sandwich_ok:
        yield (
            f"bounds [{result.lower_bound}, {result.upper_bound}] escape "
            f"[2, {result.upper_certificate}]"
        )
    yield from _riesz_against_dense(
        result.family,
        tol,
        result.synthesis_combination_lower_bound,
        riesz_verdict=result.riesz_report.is_riesz_type,
        onto=result.adjoint_combination_surjective,
    )


def _check_disjoint_sum(rng, tol):
    lam, theta = _random_disjoint_equal_domain(rng)
    d = lam.domain_dim
    for pair in (
        OperatorPair(np.eye(d), np.eye(d)),
        OperatorPair(_random_operator(rng, d, d), _cgauss(rng, (d, d))),
    ):
        yield from _failed_equivalences(disjoint_sum_family(lam, theta, pair, tol).checks)


def _check_strong_sum(rng, tol):
    lam, theta = _random_strongly_disjoint(rng, equal_domains=True)
    d = lam.domain_dim
    c1, c2 = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
    pair = OperatorPair(c1 * _random_unitary(rng, d), c2 * _random_unitary(rng, d))
    expected_scale = c1**2 + c2**2
    result = strongly_disjoint_sum(lam, theta, pair, tol)
    if abs(result.scale - expected_scale) > tol.rel_eps * expected_scale:
        yield f"recovered scale {result.scale} != {expected_scale}"
    yield from _failed_equivalences(result.checks)
    rep_l, rep_t = frame_bounds(lam, tol), frame_bounds(theta, tol)
    roof = rep_l.upper_bound * c1**2 + rep_t.upper_bound * c2**2
    if result.report.upper_bound > roof * (1.0 + tol.rel_eps) + tol.rel_eps:
        yield "upper bound above the Bessel roof"


def _check_strong_sum_tightness(rng, tol):
    """On Parseval strongly disjoint pairs: tight with bound A <-> the operator
    squares sum to A * identity (both directions)."""
    lam, theta = _random_strongly_disjoint(rng, parseval=True, equal_domains=True)
    d = lam.domain_dim
    if rng.integers(0, 2):
        c1, c2 = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        l1, l2 = c1 * _random_unitary(rng, d), c2 * _random_unitary(rng, d)
    else:
        l1, l2 = _cgauss(rng, (d, d)), _cgauss(rng, (d, d))
    pair = OperatorPair(l1, l2)
    _, hypothesis = pair.identity_multiple(tol)
    rep = frame_bounds(compose_sum(lam, theta, l1, l2), tol)
    if rep.is_tight != hypothesis:
        yield f"tight={rep.is_tight} but identity hypothesis={hypothesis}"
    if hypothesis:
        result = strongly_disjoint_sum(lam, theta, pair, tol)
        yield from _failed_equivalences(result.checks)
        if "tight-with-hypothesis-scale" not in (name for name, _, _ in result.checks):
            yield "no tightness check on Parseval inputs"
    if rep.is_tight:
        # converse direction on random vectors: the operator squares must
        # distribute the tight bound exactly
        h = _cgauss(rng, (d,))
        lhs = float(np.linalg.norm(l1 @ h) ** 2 + np.linalg.norm(l2 @ h) ** 2)
        rhs = rep.upper_bound * float(np.linalg.norm(h) ** 2)
        if abs(lhs - rhs) > tol.rel_eps * max(1.0, rhs):
            yield "tight sum violates the square identity"
    # scalar corollary: Parseval result <-> |a|^2 + |b|^2 = 1
    alpha, beta = complex(_cgauss(rng, ())), complex(_cgauss(rng, ()))
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    if rng.integers(0, 2):
        alpha, beta = alpha / np.sqrt(weight), beta / np.sqrt(weight)
        weight = abs(alpha) ** 2 + abs(beta) ** 2
    scalar_sum = GFrameFamily.from_rows(
        lam.space, alpha * lam.rows + beta * theta.rows, lam.block_dims
    )
    scalar_rep = frame_bounds(scalar_sum, tol)
    if scalar_rep.is_parseval != bool(abs(weight - 1.0) <= tol.rel_eps):
        yield "scalar Parseval criterion mismatch"


def _glued_pairing_faults(rng, glued, dim_h: int, dim_k: int, tol, which: str):
    """Atom by atom, the glued pairing of random (h1, k1), (h2, k2) against the
    direct-sum inner product <h1, h2> + <k1, k2>; its defect unless tiny."""
    h1, h2 = _cgauss(rng, (dim_h,)), _cgauss(rng, (dim_h,))
    k1, k2 = _cgauss(rng, (dim_k,)), _cgauss(rng, (dim_k,))
    pairing = 0.0 + 0.0j
    for w, gb, db in zip(glued.gamma.space.weights, glued.gamma.blocks, glued.delta.blocks):
        pairing += w * inner(gb @ np.concatenate([h1, k1]), db @ np.concatenate([h2, k2]))
    expected = inner(h1, h2) + inner(k1, k2)
    defect = abs(pairing - expected)
    if not _tiny(defect, tol, abs(expected)):
        yield f"{which} pairing defect {defect:.3e}"


def _check_direct_sum_duals(rng, tol):
    lam, psi = _random_strongly_disjoint(rng)
    theta, phi = canonical_dual(lam, tol), canonical_dual(psi, tol)
    result = direct_sum_duals(lam, theta, psi, phi, tol)
    yield from _failed_equivalences(result.checks)
    yield from _glued_pairing_faults(rng, result, lam.domain_dim, psi.domain_dim, tol, "glued")


def _check_pseudo_dual(rng, tol):
    lam, theta = _random_strongly_disjoint(rng, equal_domains=True)
    d = lam.domain_dim
    pairs = [
        OperatorPair(np.eye(d), np.eye(d)),
        OperatorPair(_random_operator(rng, d, d), _cgauss(rng, (d, d))),
    ]
    if d >= 2:
        rows = int(rng.integers(1, d))
        pairs.append(OperatorPair(_random_operator(rng, rows, d), _cgauss(rng, (rows, d))))
    for pair in pairs:
        yield from _failed_equivalences(pseudo_dual(lam, theta, pair, tol).checks)


def _check_lift_pipeline(rng, tol):
    atoms = int(rng.integers(2, 6))
    space = MeasureSpace(rng.uniform(0.25, 4.0, atoms))
    dim_h = int(rng.integers(1, min(atoms, 3) + 1))
    dim_k = int(rng.integers(1, min(atoms, 3) + 1))
    # an ordinary frame {f_w} as the family with one-row blocks f_w^H
    f, g = (
        _frame_over(rng, space, (1,) * atoms, _cgauss(rng, (atoms, dim))) for dim in (dim_h, dim_k)
    )
    lifted = lift_continuous_frame(f, g, tol)
    glued = direct_sum_duals(lifted.lam, lifted.theta, lifted.psi, lifted.phi, tol)
    yield from _failed_equivalences(glued.checks)
    yield from _glued_pairing_faults(rng, glued, dim_h, dim_k, tol, "lifted")


def _check_pseudo_inverse(rng, tol):
    cols = int(rng.integers(1, 6))
    rows = int(rng.integers(1, cols + 1))
    matrix = _random_operator(rng, rows, cols)
    product = matrix @ pseudo_inverse(matrix)
    if not matrices_close(product, np.eye(rows), tol.rel_eps):
        yield "pseudo-inverse is not a right inverse"


def _check_document_roundtrip(rng, tol):
    dims = _random_dims(rng, max_atoms=4)
    space = MeasureSpace(rng.uniform(0.25, 4.0, len(dims)))
    families = {}
    for idx in range(int(rng.integers(1, 4))):
        domain = int(rng.integers(1, 4))
        families[f"family_{idx}"] = GFrameFamily(
            space=space,
            domain_dim=domain,
            blocks=tuple(_cgauss(rng, (d, domain)) for d in dims),
        )
    doc = FrameDocument(space=space, families=families)
    if parse_document(serialize_document(doc)) != doc:
        yield "document round trip is not exact"


def _per_case(check):
    """The suite form ``fn(rng, cases, tol)`` of a one-case check: ``cases``
    cases drawn in turn from ``rng``, each failure labelled with its case."""

    def run(rng, cases, tol):
        failures = []
        for case in range(cases):
            try:
                for fault in check(rng, tol):
                    failures.append(f"case {case}: {fault}")
            except GFrameError as exc:
                failures.append(f"case {case}: raised {type(exc).__name__}: {exc}")
        return failures

    return run


CHECKS = tuple(
    (name, _per_case(check))
    for name, check in (
        ("embedding-isometry", _check_embedding_isometry),
        ("analysis-blockwise", _check_analysis_blockwise),
        ("defining-inequality", _check_defining_inequality),
        ("reconstruction-identity", _check_reconstruction),
        ("synthesis-norm-bound", _check_synthesis_norm),
        ("frame-operator-gram", _check_gram_identity),
        ("canonical-dual", _check_canonical_dual),
        ("pair-parseval", _check_pair_parseval),
        ("pair-frame-iff-disjoint", _check_pair_frame_iff_disjoint),
        ("pair-riesz-equivalences", _check_pair_riesz_equivalences),
        ("pair-bound-sandwich", _check_pair_bound_sandwich),
        ("riesz-criteria-agree", _check_riesz_criteria),
        ("synthesis-kernel", _check_synthesis_kernel),
        ("cross-surjectivity", _check_cross_surjectivity),
        ("perturbation-transfer", _check_perturbation),
        ("mixed-construction", _check_mixed_construction),
        ("disjoint-sum", _check_disjoint_sum),
        ("strong-sum-bounds", _check_strong_sum),
        ("strong-sum-tightness", _check_strong_sum_tightness),
        ("direct-sum-duals", _check_direct_sum_duals),
        ("pseudo-dual", _check_pseudo_dual),
        ("lift-pipeline", _check_lift_pipeline),
        ("pseudo-inverse", _check_pseudo_inverse),
        ("document-roundtrip", _check_document_roundtrip),
    )
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    cases: int
    tolerance: TolerancePolicy
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)


# Below this many cases per check the pool costs more than it saves.  On a
# 2-vCPU box the 24 checks take 26 ms in turn and 38 ms in two forked workers at
# 2 cases, break even at 4 and take 65 ms against 58 ms at 5; starting and
# ending the pool alone costs about 10 ms.
_POOL_MIN_CASES = 5


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_check(task) -> CheckResult:
    """Check ``index`` of ``CHECKS`` on ``cases`` cases drawn from its child seed."""
    index, child_seed, cases, tol = task
    name, fn = CHECKS[index]
    failures = fn(np.random.default_rng(child_seed), cases, tol)
    return CheckResult(name=name, cases=cases, failures=tuple(failures))


def run_suite(seed: int, cases: int, tol: TolerancePolicy = DEFAULT_TOL) -> SuiteReport:
    """Run every named check on ``cases`` generated instances each.

    From ``_POOL_MIN_CASES`` cases on, the checks run in a pool of forked
    workers, one per usable CPU: fork, so that the workers start from the
    parent's module state as it is, patches included, with no import.  With
    fewer cases, one usable CPU or no fork, they run here in turn.  Either way
    each check draws from its own child seed of ``seed``, so the report is the
    same."""
    children = np.random.SeedSequence(seed).spawn(len(CHECKS))
    tasks = [(index, child, cases, tol) for index, child in enumerate(children)]
    workers = min(_usable_cpus(), len(CHECKS))
    if (
        workers > 1
        and cases >= _POOL_MIN_CASES
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_check, tasks, chunksize=1)
    else:
        results = list(map(_run_check, tasks))
    return SuiteReport(seed=seed, cases=cases, tolerance=tol, results=tuple(results))
