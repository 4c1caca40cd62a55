"""The five disjointness relations and the pair-family equivalences."""

import numpy as np
import pytest

from gframes import (
    GFrameFamily,
    MeasureSpace,
    PreconditionError,
    ShapeError,
    SingularOperatorError,
    analysis_matrix,
    classify,
    delta_family,
    frame_bounds,
    frame_operator,
    gamma_family,
    kernel_triviality,
    strong_disjointness_converse_check,
)
from gframes._linalg import svd_rank

GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0


def test_classify_strongly_complementary(lam_family, ortho_family, tol):
    report = classify(lam_family, ortho_family, tol)
    assert report.strongly_disjoint
    assert report.disjoint and report.weakly_disjoint
    assert report.complementary_pair and report.strongly_complementary_pair
    assert report.cross_operator_norm == pytest.approx(0.0, abs=1e-15)
    assert report.range_intersection_dim == 0
    assert report.range_sum_dim == 2 == report.khat_dim


def test_classify_disjoint_not_strong(lam_family, theta_family, tol):
    report = classify(lam_family, theta_family, tol)
    assert not report.strongly_disjoint
    assert report.disjoint and report.weakly_disjoint
    assert report.complementary_pair and not report.strongly_complementary_pair
    assert report.cross_operator_norm == pytest.approx(1.0)


def test_classify_identical_family_not_weakly_disjoint(theta_family, tol):
    report = classify(theta_family, theta_family, tol)
    assert not report.weakly_disjoint
    assert not report.disjoint and not report.strongly_disjoint
    assert report.range_intersection_dim == 1


def test_classify_rejects_non_frame(lam_family, tol):
    zero = GFrameFamily(space=lam_family.space, domain_dim=1, blocks=([0.0], [0.0]))
    with pytest.raises(PreconditionError):
        classify(lam_family, zero, tol)


def test_classify_rejects_mismatched_block_dims(lam_family, tol):
    other = GFrameFamily(
        space=lam_family.space, domain_dim=1, blocks=([[1.0], [0.0]], [1.0])
    )
    with pytest.raises(ShapeError):
        classify(lam_family, other, tol)


def test_gamma_of_strongly_complementary_pair_is_parseval(lam_family, ortho_family, tol):
    gamma = gamma_family(lam_family, ortho_family)
    assert np.allclose(gamma.blocks[0], [[1.0, 0.0]])
    assert np.allclose(gamma.blocks[1], [[0.0, 1.0]])
    assert frame_bounds(gamma, tol).is_parseval


def test_gamma_bounds_match_hand_computation(lam_family, theta_family, tol):
    rep = frame_bounds(gamma_family(lam_family, theta_family), tol)
    assert rep.lower_bound == pytest.approx(GOLDEN[0], rel=1e-9)
    assert rep.upper_bound == pytest.approx(GOLDEN[1], rel=1e-9)
    assert rep.is_frame


def test_gamma_of_identical_family_is_not_a_frame(theta_family, tol):
    assert not frame_bounds(gamma_family(theta_family, theta_family), tol).is_frame


def test_delta_equals_gamma_for_parseval_inputs(lam_family, ortho_family, tol):
    delta = delta_family(lam_family, ortho_family, tol)
    gamma = gamma_family(lam_family, ortho_family)
    for a, b in zip(delta.blocks, gamma.blocks):
        assert np.allclose(a, b)
    assert frame_bounds(delta, tol).is_parseval


def test_delta_normalizes_scaled_input(space2, ortho_family, tol):
    scaled = GFrameFamily(space=space2, domain_dim=1, blocks=([np.sqrt(2.0)], [0.0]))
    delta = delta_family(scaled, ortho_family, tol)
    assert np.allclose(delta.blocks[0], [[1.0, 0.0]])
    assert np.allclose(delta.blocks[1], [[0.0, 1.0]])
    assert frame_bounds(delta, tol).is_parseval


def test_delta_rejects_non_frame_input(lam_family, tol):
    zero = GFrameFamily(space=lam_family.space, domain_dim=1, blocks=([0.0], [0.0]))
    with pytest.raises(SingularOperatorError):
        delta_family(lam_family, zero, tol)


def test_delta_keeps_cross_term_for_non_strong_pair(lam_family, theta_family, tol):
    delta = delta_family(lam_family, theta_family, tol)
    assert not np.allclose(frame_operator(delta), np.eye(2), atol=1e-12)
    assert not frame_bounds(delta, tol).is_parseval


def test_converse_check_accepts_canonical_witnesses(lam_family, ortho_family, tol):
    assert strong_disjointness_converse_check(
        lam_family, ortho_family, np.eye(1), np.eye(1), tol
    )


def test_converse_check_rejects_scaled_witness(lam_family, ortho_family, tol):
    assert not strong_disjointness_converse_check(
        lam_family, ortho_family, 2.0 * np.eye(1), np.eye(1), tol
    )


def test_converse_check_rejects_non_strong_pair(lam_family, theta_family, tol):
    rng = np.random.default_rng(3)
    for _ in range(5):
        l1 = np.array([[rng.uniform(0.5, 2.0)]])
        l2 = np.array([[rng.uniform(0.5, 2.0)]])
        assert not strong_disjointness_converse_check(lam_family, theta_family, l1, l2, tol)


def test_converse_check_rejects_singular_operator(lam_family, ortho_family, tol):
    with pytest.raises(PreconditionError):
        strong_disjointness_converse_check(
            lam_family, ortho_family, np.zeros((1, 1)), np.eye(1), tol
        )


def test_kernel_triviality(lam_family, ortho_family, theta_family, tol):
    assert kernel_triviality(gamma_family(lam_family, ortho_family), tol)
    assert not kernel_triviality(gamma_family(theta_family, theta_family), tol)
    single = GFrameFamily(
        space=MeasureSpace([1.0]), domain_dim=2, blocks=([[1.0, 0.0]],)
    )
    assert not kernel_triviality(single, tol)


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pair_with_intersection(rng, rows: int, dim_a: int, dim_b: int, shared: int):
    """Two frames over one space whose analysis ranges meet in ``shared`` dimensions."""
    basis = np.linalg.qr(_cgauss(rng, (rows, dim_a + dim_b - shared)))[0]
    weights = rng.uniform(0.5, 2.0, rows)

    def family(columns):
        mixed = columns @ _cgauss(rng, (columns.shape[1],) * 2)
        return GFrameFamily.from_rows(
            MeasureSpace(weights), mixed / np.sqrt(weights)[:, None], (1,) * rows
        )

    return family(basis[:, :dim_a]), family(basis[:, dim_a - shared :])


def test_classify_ranks_match_the_svd_of_the_stacked_matrix(tol):
    rng = np.random.default_rng(31)
    for shared in range(4):
        for rows, dim_a, dim_b in ((12, 3, 4), (40, 5, 5), (400, 8, 12), (1500, 24, 24)):
            lam, theta = _pair_with_intersection(rng, rows, dim_a, dim_b, shared)
            a, b = analysis_matrix(lam), analysis_matrix(theta)
            report = classify(lam, theta, tol)
            rank_ab = svd_rank(np.hstack([a, b]), tol)
            intersection = svd_rank(a, tol) + svd_rank(b, tol) - rank_ab
            assert report.range_sum_dim == rank_ab, (rows, shared)
            assert report.range_intersection_dim == intersection == shared, (rows, shared)
            assert report.weakly_disjoint == report.disjoint == (shared == 0)
