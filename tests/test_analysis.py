"""Frame operator, bounds, duals, and cross operators."""

import numpy as np
import pytest

from gframes import (
    GFrameFamily,
    MeasureSpace,
    NumericalRangeError,
    ShapeError,
    SingularOperatorError,
    TolerancePolicy,
    analysis_matrix,
    canonical_dual,
    classify,
    cross_operator,
    frame_bounds,
    frame_operator,
    inner,
    is_dual_pair,
    mixed_construction,
    parseval_normalize,
    riesz_check,
    riesz_criteria,
)
from gframes.verification import _random_frame


def test_frame_operator_sums_blocks(space2, theta_family):
    assert np.allclose(frame_operator(theta_family), [[2.0]])


def test_frame_operator_identity_family(identity_family):
    assert np.allclose(frame_operator(identity_family), np.eye(2))


def test_frame_operator_weighted():
    fam = GFrameFamily(space=MeasureSpace([3.0]), domain_dim=1, blocks=([1.0],))
    assert np.allclose(frame_operator(fam), [[3.0]])


def test_frame_bounds_tight_not_parseval(theta_family, tol):
    rep = frame_bounds(theta_family, tol)
    assert rep.lower_bound == pytest.approx(2.0)
    assert rep.upper_bound == pytest.approx(2.0)
    assert rep.is_frame and rep.is_tight and not rep.is_parseval


def test_frame_bounds_parseval(identity_family, tol):
    rep = frame_bounds(identity_family, tol)
    assert rep.is_parseval


def test_frame_bounds_rank_deficient(tol):
    fam = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=2, blocks=([[1.0, 1.0]],))
    rep = frame_bounds(fam, tol)
    assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)
    assert rep.upper_bound == pytest.approx(2.0)
    assert not rep.is_frame


def test_canonical_dual_scalar_pair(theta_family, tol):
    dual = canonical_dual(theta_family, tol)
    for block in dual.blocks:
        assert np.allclose(block, [[0.5]])
    assert is_dual_pair(dual, theta_family, tol)


def test_canonical_dual_of_parseval_is_itself(identity_family, tol):
    dual = canonical_dual(identity_family, tol)
    for a, b in zip(dual.blocks, identity_family.blocks):
        assert np.allclose(a, b)


def test_canonical_dual_rejects_non_frame():
    fam = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=2, blocks=([[1.0, 1.0]],))
    with pytest.raises(SingularOperatorError):
        canonical_dual(fam)


def test_parseval_normalize_scalar(tol):
    fam = GFrameFamily(space=MeasureSpace([2.0]), domain_dim=1, blocks=([1.0],))
    normalized = parseval_normalize(fam, tol)
    assert np.allclose(normalized.blocks[0], [[1.0 / np.sqrt(2.0)]])
    assert np.allclose(frame_operator(normalized), [[1.0]])


def test_parseval_normalize_fixes_parseval_input(identity_family, tol):
    normalized = parseval_normalize(identity_family, tol)
    for a, b in zip(normalized.blocks, identity_family.blocks):
        assert np.allclose(a, b)


def test_parseval_normalize_diagonal_scaling(space2, tol):
    # frame operator diag(1, 4): the normalization right-multiplies by diag(1, 1/2)
    fam = GFrameFamily(space=space2, domain_dim=2, blocks=([[1.0, 0.0]], [[0.0, 2.0]]))
    normalized = parseval_normalize(fam, tol)
    assert np.allclose(normalized.blocks[0], [[1.0, 0.0]])
    assert np.allclose(normalized.blocks[1], [[0.0, 1.0]])


def test_cross_operator_identity_pair(identity_family):
    assert np.allclose(cross_operator(identity_family, identity_family), np.eye(2))


def test_cross_operator_orthogonal_pair(lam_family, ortho_family):
    assert np.allclose(cross_operator(ortho_family, lam_family), [[0.0]])


def test_cross_operator_overlapping_pair(lam_family, theta_family):
    assert np.allclose(cross_operator(theta_family, lam_family), [[1.0]])


def test_cross_operator_adjoint_identity(lam_family, theta_family):
    forward = cross_operator(theta_family, lam_family)
    backward = cross_operator(lam_family, theta_family)
    assert np.allclose(forward, backward.conj().T)


def test_cross_operator_of_family_with_itself_is_frame_operator(theta_family):
    assert np.allclose(
        cross_operator(theta_family, theta_family), frame_operator(theta_family)
    )


def test_cross_operator_rejects_mismatched_spaces(lam_family):
    other = GFrameFamily(
        space=MeasureSpace([1.0, 2.0]), domain_dim=1, blocks=([1.0], [0.0])
    )
    with pytest.raises(ShapeError):
        cross_operator(lam_family, other)


def test_is_dual_pair_parseval_with_itself(identity_family, tol):
    assert is_dual_pair(identity_family, identity_family, tol)


def test_is_dual_pair_rejects_orthogonal(lam_family, ortho_family, tol):
    assert not is_dual_pair(ortho_family, lam_family, tol)


def test_defining_inequality_and_norm_bound_on_random_frames(tol):
    rng = np.random.default_rng(17)
    for _ in range(20):
        fam = _random_frame(rng, tol)
        rep = frame_bounds(fam, tol)
        mat = analysis_matrix(fam)
        h = rng.standard_normal((fam.domain_dim, 100)) + 1j * rng.standard_normal(
            (fam.domain_dim, 100)
        )
        values = np.sum(np.abs(mat @ h) ** 2, axis=0)
        norms = np.sum(np.abs(h) ** 2, axis=0)
        slack = tol.rel_eps * rep.upper_bound * norms
        assert np.all(values >= rep.lower_bound * norms - slack)
        assert np.all(values <= rep.upper_bound * norms + slack)
        sigma = np.linalg.norm(mat, 2)
        assert sigma == pytest.approx(np.sqrt(rep.upper_bound), rel=1e-9)


def test_reconstruction_identity_on_random_frames(tol):
    rng = np.random.default_rng(18)
    for _ in range(20):
        fam = _random_frame(rng, tol)
        d = fam.domain_dim
        s_inv = np.linalg.inv(frame_operator(fam))
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        total = sum(
            w * inner(s_inv @ f, block.conj().T @ (block @ g))
            for w, block in zip(fam.space.weights, fam.blocks)
        )
        assert total == pytest.approx(inner(f, g), rel=1e-9, abs=1e-9)


def test_canonical_dual_is_involution(tol):
    rng = np.random.default_rng(19)
    for _ in range(10):
        fam = _random_frame(rng, tol)
        double = canonical_dual(canonical_dual(fam, tol), tol)
        for a, b in zip(double.blocks, fam.blocks):
            assert np.allclose(a, b, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize(
    "weights, blocks",
    [([1e308, 1e308], ([1.0], [1.0])), ([1.0, 1.0], ([1e200], [1.0]))],
    ids=["weights", "entries"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_frame_operator_raises(weights, blocks):
    fam = GFrameFamily(space=MeasureSpace(weights), domain_dim=1, blocks=blocks)
    for operation in (frame_bounds, frame_operator, canonical_dual, riesz_check):
        with pytest.raises(NumericalRangeError, match="frame operator is not finite"):
            operation(fam)
    with pytest.raises(NumericalRangeError, match="cross operator is not finite"):
        cross_operator(fam, fam)


def _count_linalg_calls(monkeypatch, name):
    """Record the shape of every matrix passed to ``np.linalg.<name>``."""
    shapes = []
    original = getattr(np.linalg, name)

    def counting(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return shapes


def test_spectra_are_computed_once_per_family(monkeypatch):
    rng = np.random.default_rng(3)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 6))
    f = GFrameFamily.from_rows(space, rng.standard_normal((6, 2)) + 1j, (1,) * 6)
    g = GFrameFamily.from_rows(space, rng.standard_normal((6, 3)) - 1j, (1,) * 6)
    svds = _count_linalg_calls(monkeypatch, "svd")
    eigs = _count_linalg_calls(monkeypatch, "eigvalsh")
    riesz_check(f)
    first = classify(f, g)
    second = classify(f, g)
    assert first == second
    assert svds.count((6, 2)) == 1 and svds.count((6, 3)) == 1
    # the pair matrix [A|B] is decomposed on every call
    assert svds.count((6, 5)) == 2
    assert len(eigs) == 2


def test_riesz_routes_decompose_the_synthesis_matrix_at_most_once(monkeypatch):
    rng = np.random.default_rng(4)
    square = GFrameFamily.from_rows(
        MeasureSpace(rng.uniform(0.5, 2.0, 3)), rng.standard_normal((3, 3)) + 1j, (1,) * 3
    )
    tall = GFrameFamily.from_rows(
        MeasureSpace(rng.uniform(0.5, 2.0, 6)), rng.standard_normal((6, 2)) + 1j, (1,) * 6
    )
    dual = canonical_dual(tall)
    svds = _count_linalg_calls(monkeypatch, "svd")
    assert riesz_criteria(square) == (True, True, True)
    # the analysis matrix (kept with the family) and the synthesis matrix
    assert len(svds) == 2
    assert riesz_criteria(tall) == (False, False, False)
    # a wide synthesis matrix has a kernel and is not decomposed
    assert len(svds) == 3
    svds.clear()
    result = mixed_construction(tall, dual, np.eye(2), np.eye(2))
    assert result.criteria_agree and not result.riesz_report.is_riesz_type
    # the combined family's own spectrum and the combined analysis rank; the
    # wide combined synthesis matrix is not decomposed
    assert svds.count((6, 2)) == 2 and svds.count((2, 2)) == 2 and len(svds) == 4


def test_other_tolerance_values_get_their_own_frame_report():
    fam = GFrameFamily(MeasureSpace([1.0, 1.0]), 2, ([[1.0, 0.0]], [[0.0, 1.0 + 1e-6]]))
    report = frame_bounds(fam)
    assert frame_bounds(fam) is report
    assert frame_bounds(fam, TolerancePolicy()) is report
    loose = frame_bounds(fam, TolerancePolicy(rel_eps=1e-3))
    assert loose is not report
    assert not report.is_tight and loose.is_tight
    assert frame_bounds(fam, TolerancePolicy(rank_eps_factor=20.0)) is not report
    assert loose.frame_operator is report.frame_operator


def test_frame_operator_and_report_operator_are_read_only(theta_family):
    for op in (frame_operator(theta_family), frame_bounds(theta_family).frame_operator):
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 5.0
    assert np.allclose(frame_operator(theta_family), [[2.0]])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflow_is_raised_on_every_call_and_never_stored():
    fam = GFrameFamily(space=MeasureSpace([1e308, 1e308]), domain_dim=1, blocks=([1.0], [1.0]))
    for _ in range(3):
        for operation in (frame_operator, frame_bounds, riesz_check):
            with pytest.raises(NumericalRangeError, match="frame operator is not finite"):
                operation(fam)
    assert not any(isinstance(value, BaseException) for value in fam._memo.values())
