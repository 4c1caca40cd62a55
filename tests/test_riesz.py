"""Riesz-type detection, mixed constructions, surjectivity, perturbation."""

import numpy as np
import pytest

from gframes._linalg import rank_cutoff
from gframes import (
    GFrameFamily,
    KHatVector,
    MeasureSpace,
    PreconditionError,
    ShapeError,
    canonical_dual,
    cross_surjectivity,
    frame_bounds,
    mixed_construction,
    perturbation_riesz_transfer,
    riesz_check,
    riesz_criteria,
    synthesis_kernel_test,
)


def test_riesz_check_identity_family(identity_family, tol):
    report = riesz_check(identity_family, tol)
    assert report.is_riesz_type
    assert report.analysis_rank == report.khat_dim == 2
    assert report.synthesis_lower_bound == pytest.approx(1.0)
    assert report.synthesis_upper_bound == pytest.approx(1.0)


def test_riesz_check_overcomplete_family(theta_family, tol):
    report = riesz_check(theta_family, tol)
    assert not report.is_riesz_type
    assert report.analysis_rank == 1
    assert report.khat_dim == 2
    assert report.synthesis_lower_bound == pytest.approx(0.0, abs=1e-15)


def test_riesz_check_single_atom_identity(tol):
    fam = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=3, blocks=(np.eye(3),))
    assert riesz_check(fam, tol).is_riesz_type


def test_riesz_check_rejects_non_frame(tol):
    fam = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=2, blocks=([[1.0, 1.0]],))
    with pytest.raises(PreconditionError):
        riesz_check(fam, tol)


def test_synthesis_kernel_zero_vector(theta_family, tol):
    assert synthesis_kernel_test(theta_family, KHatVector(([0.0], [0.0])), tol)


def test_synthesis_kernel_detects_witness(theta_family, tol):
    # nonzero vector synthesized to zero: certifies the family is not Riesz-type
    phi = KHatVector(([1.0], [-1.0]))
    assert synthesis_kernel_test(theta_family, phi, tol)
    assert not riesz_check(theta_family, tol).is_riesz_type


def test_synthesis_kernel_rejects_random_vector_for_riesz_family(identity_family, tol):
    phi = KHatVector(([0.3 + 1.0j], [-0.7]))
    assert not synthesis_kernel_test(identity_family, phi, tol)


@pytest.mark.parametrize("s", [1e-11, 1e-13, 1e-15, 1e-17])
def test_the_kernel_test_reads_the_rank_cutoff(s, tol):
    # sigma(A) = (1, s) with u_2 = e_2: above the cutoff both Riesz routes say
    # Riesz-type, so u_2 is no kernel witness; at or below it the family is no frame
    blocks = ([[1.0, 0.0]], [[0.0, s]])
    fam = GFrameFamily(space=MeasureSpace([1.0, 1.0]), domain_dim=2, blocks=blocks)
    riesz_type = s > rank_cutoff((2, 2), 1.0)
    assert synthesis_kernel_test(fam, KHatVector(([0.0], [1.0])), tol) == (not riesz_type)
    assert frame_bounds(fam, tol).is_frame == riesz_type
    if riesz_type:
        assert riesz_criteria(fam, tol) == (True, True)


def test_synthesis_kernel_shape_error(theta_family, tol):
    with pytest.raises(ShapeError):
        synthesis_kernel_test(theta_family, KHatVector(([1.0, 0.0], [0.0])), tol)


def test_riesz_criteria_agree_on_hand_families(identity_family, theta_family, tol):
    assert riesz_criteria(identity_family, tol) == (True, True)
    assert riesz_criteria(theta_family, tol) == (False, False)


def test_mixed_construction_rejects_bad_operator_pairing(identity_family, tol):
    scale = 1.0 / np.sqrt(2.0)
    with pytest.raises(PreconditionError):
        mixed_construction(
            identity_family, identity_family, scale * np.eye(2), scale * np.eye(2), tol
        )


def test_mixed_construction_rejects_bad_cross_operator(lam_family, ortho_family, tol):
    with pytest.raises(PreconditionError):
        mixed_construction(lam_family, ortho_family, np.eye(1), np.eye(1), tol)


def test_mixed_construction_identity_case(identity_family, tol):
    result = mixed_construction(identity_family, identity_family, np.eye(2), np.eye(2), tol)
    for block, original in zip(result.family.blocks, identity_family.blocks):
        assert np.allclose(block, 2.0 * original)
    rep = frame_bounds(result.family, tol)
    assert rep.is_tight
    assert rep.upper_bound == pytest.approx(4.0)
    assert result.sandwich_ok
    assert result.criteria_agree
    assert result.riesz_report.is_riesz_type == riesz_check(identity_family, tol).is_riesz_type


def test_mixed_construction_diagonal_operators(identity_family, tol):
    l1 = np.diag([1.0, 2.0]).astype(complex)
    l2 = np.diag([1.0, 0.5]).astype(complex)
    result = mixed_construction(identity_family, identity_family, l1, l2, tol)
    assert result.criteria_agree
    assert result.sandwich_ok
    assert result.adjoint_combination_surjective == result.riesz_report.is_riesz_type


@pytest.mark.parametrize("tall", [True, False])
def test_mixed_construction_decomposes_the_combined_family_only_when_not_tall(
    tall, monkeypatch, tol
):
    rng = np.random.default_rng(8)
    atoms = 6 if tall else 2
    lam = GFrameFamily.from_rows(
        MeasureSpace(rng.uniform(0.5, 2.0, atoms)),
        rng.standard_normal((atoms, 2)) + 1j * rng.standard_normal((atoms, 2)),
        (1,) * atoms,
    )
    dual = canonical_dual(lam, tol)
    svds = []
    original = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda m, *a, **k: svds.append(np.shape(m)) or original(m, *a, **k)
    )
    l1 = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    result = mixed_construction(lam, dual, l1, np.linalg.inv(l1).conj().T, tol)
    assert result.criteria_agree and result.riesz_report.is_riesz_type == (not tall)
    assert result.adjoint_combination_surjective == (not tall)
    # the norms of L1 and L2, then at most the combined family's sigma(A)
    assert svds[:2] == [(2, 2), (2, 2)]
    if tall:
        # the shape decides both routes: not surjective, and gain 0
        assert svds[2:] == []
        assert result.synthesis_combination_lower_bound == 0.0
    else:
        # one decomposition of the square combined analysis matrix serves both routes
        assert svds[2:] == [(2, 2)]
        assert result.synthesis_combination_lower_bound > 0.0


def test_cross_surjectivity_dual_pair(theta_family, tol):
    dual = canonical_dual(theta_family, tol)
    theta_frame, surjective = cross_surjectivity(theta_family, dual, tol)
    assert theta_frame and surjective


def test_cross_surjectivity_compressed_family(identity_family, tol):
    projector = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    compressed = GFrameFamily(
        space=identity_family.space,
        domain_dim=2,
        blocks=tuple(b @ projector for b in identity_family.blocks),
    )
    theta_frame, surjective = cross_surjectivity(identity_family, compressed, tol)
    assert not surjective
    assert not theta_frame


def test_cross_surjectivity_riesz_times_frame(identity_family, theta_family, tol):
    # Riesz-type first family composed against any frame: always onto
    _, surjective = cross_surjectivity(identity_family, theta_family, tol)
    assert surjective


def test_cross_surjectivity_requires_frame(lam_family, tol):
    zero = GFrameFamily(space=lam_family.space, domain_dim=1, blocks=([0.0], [0.0]))
    with pytest.raises(PreconditionError):
        cross_surjectivity(zero, lam_family, tol)


def test_perturbation_small_scaling(identity_family, tol):
    scaled = GFrameFamily(
        space=identity_family.space,
        domain_dim=2,
        blocks=tuple(1.1 * b for b in identity_family.blocks),
    )
    result = perturbation_riesz_transfer(identity_family, scaled, tol)
    assert result.lambda_gap == pytest.approx(0.1, rel=1e-9)
    assert result.criterion_met
    assert result.equivalence_verified


def test_perturbation_identical_family(identity_family, tol):
    result = perturbation_riesz_transfer(identity_family, identity_family, tol)
    assert result.lambda_gap == pytest.approx(0.0, abs=1e-15)
    assert result.criterion_met and result.equivalence_verified


def test_perturbation_large_scaling_gives_no_conclusion(identity_family, tol):
    scaled = GFrameFamily(
        space=identity_family.space,
        domain_dim=2,
        blocks=tuple(3.0 * b for b in identity_family.blocks),
    )
    result = perturbation_riesz_transfer(identity_family, scaled, tol)
    assert result.lambda_gap == pytest.approx(2.0, rel=1e-9)
    assert not result.criterion_met
    assert not result.equivalence_verified


def test_perturbation_requires_equal_domains(identity_family, lam_family, tol):
    with pytest.raises(ShapeError):
        perturbation_riesz_transfer(identity_family, lam_family, tol)
