"""Sum constructions, pseudo-inverse duals, lifting, and the generators."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from gframes._linalg import rank_cutoff, rank_from_singular_values, singular_values
from gframes.analysis import compose_sum

from gframes import (
    GenerationError,
    GFrameFamily,
    MeasureSpace,
    NumericalRangeError,
    OperatorPair,
    PreconditionError,
    ShapeError,
    canonical_dual,
    classify,
    direct_sum_duals,
    disjoint_sum_family,
    frame_bounds,
    frame_operator,
    is_dual_pair,
    lift_continuous_frame,
    mixed_construction,
    pseudo_dual,
    pseudo_inverse,
    random_gframe,
    random_strongly_disjoint_parseval_pair,
    strong_disjointness_converse_check,
    strongly_disjoint_sum,
)


def _verdicts(result) -> dict:
    return {name: passed for name, passed, _ in result.checks}


def test_pseudo_inverse_wide_matrix(tol):
    t = np.array([[1.0, 0.0]])
    dagger = pseudo_inverse(t, tol)
    assert np.allclose(dagger, [[1.0], [0.0]])
    assert np.allclose(t @ dagger, [[1.0]])


def test_pseudo_inverse_identity(tol):
    assert np.allclose(pseudo_inverse(np.eye(3), tol), np.eye(3))


def test_pseudo_inverse_scalar(tol):
    assert np.allclose(pseudo_inverse(np.array([[2.0]]), tol), [[0.5]])


def test_pseudo_inverse_keeps_the_singular_values_the_rank_rule_keeps(tol):
    rng = np.random.default_rng(41)
    for rows, cols in ((6, 4), (4, 6)):
        cutoff = rank_cutoff((rows, cols), 1.0, tol)
        planted = np.array([1.0, 0.25, 2.0 * cutoff, 0.5 * cutoff])
        u, v = (
            np.linalg.qr(rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)))[0]
            for n in (rows, cols)
        )
        matrix = (u * planted) @ v.conj().T
        kept = rank_from_singular_values(singular_values(matrix), matrix.shape, tol)
        assert kept == 3
        # a kept sigma <= 1 becomes 1/sigma >= 1; a dropped one becomes 0
        inverse_svals = singular_values(pseudo_inverse(matrix, tol))
        assert np.count_nonzero(inverse_svals > 0.5) == kept


def test_pseudo_inverse_is_numpy_pinv_at_the_rank_cutoff(tol):
    rng = np.random.default_rng(43)
    for shape in ((1, 1), (3, 5), (5, 3), (4, 4)):
        matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.linalg.pinv(matrix, rank_cutoff(shape, 1.0, tol))
        assert np.array_equal(pseudo_inverse(matrix, tol), expected)


@pytest.mark.filterwarnings("error")  # raises instead of warning and returning inf
def test_pseudo_inverse_past_the_float_range_raises(tol):
    # sigma = 1e-320 clears the rank cutoff of a 1 x 2 matrix, but 1/sigma overflows
    with pytest.raises(NumericalRangeError, match="^matrix cannot be inverted in floating point"):
        pseudo_inverse(np.array([[1e-320, 0.0]]), tol)


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        # past the rule, [[inf, 1]] comes back from the SVD as a 2 x 1 zero matrix,
        # [[nan, 1]] and a 1-D input raise numpy's LinAlgError, a 3-D input TypeError
        ([[np.inf, 1.0]], NumericalRangeError, "matrix has non-finite entries"),
        ([[np.nan, 1.0]], NumericalRangeError, "matrix has non-finite entries"),
        ([1.0, 2.0], ShapeError, "matrix must be a non-empty 2-D matrix, got (2,)"),
        (np.ones((1, 1, 2)), ShapeError, "matrix must be a non-empty 2-D matrix, got (1, 1, 2)"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_pseudo_inverse_reads_its_matrix_by_the_operator_rule(matrix, error, message, tol):
    with pytest.raises(error) as err:
        pseudo_inverse(matrix, tol)
    assert str(err.value) == message


def test_disjoint_sum_identity_operators(lam_family, theta_family, tol):
    pair = OperatorPair(np.eye(1), np.eye(1))
    result = disjoint_sum_family(lam_family, theta_family, pair, tol)
    assert np.allclose(result.family.blocks[0], [[2.0]])
    assert np.allclose(result.family.blocks[1], [[1.0]])
    assert np.allclose(frame_operator(result.family), [[5.0]])
    assert result.report.is_frame
    assert _verdicts(result) == {"is-frame": True, "certificate-sandwich": True}


def test_disjoint_sum_degenerate_second_operator(lam_family, ortho_family, tol):
    pair = OperatorPair(np.eye(1), np.zeros((1, 1)))
    result = disjoint_sum_family(lam_family, ortho_family, pair, tol)
    for block, original in zip(result.family.blocks, lam_family.blocks):
        assert np.allclose(block, original)
    assert _verdicts(result) == {"is-frame": True, "certificate-sandwich": True}


def test_disjoint_sum_rectangular_surjection(tol):
    space = MeasureSpace([1.0, 1.0, 1.0, 1.0])
    lam = GFrameFamily(
        space=space,
        domain_dim=2,
        blocks=([[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 0.0]], [[0.0, 0.0]]),
    )
    theta = GFrameFamily(
        space=space,
        domain_dim=2,
        blocks=([[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]),
    )
    pair = OperatorPair(np.array([[1.0, 0.0]]), np.array([[0.3, 0.7]]))
    result = disjoint_sum_family(lam, theta, pair, tol)
    assert result.family.domain_dim == 1
    assert _verdicts(result) == {"is-frame": True, "certificate-sandwich": True}


@pytest.mark.parametrize("tiny", [1e-200, 1e-320])
def test_disjoint_sum_certificate_of_a_tiny_surjection(tiny, lam_family, theta_family, tol):
    # ||L1_pinv||^2 = 1 / tiny^2 is past the float range; the certified lower
    # bound A_pair * tiny^2 underflows to 0 instead of raising
    pair = OperatorPair(np.array([[tiny]]), np.eye(1))
    result = disjoint_sum_family(lam_family, theta_family, pair, tol)
    assert _verdicts(result) == {"is-frame": True, "certificate-sandwich": True}
    numbers = result.checks[1][2]
    assert numbers["certified_lower"] == 0.0
    assert numbers["certified_upper"] == pytest.approx(2.0 * (3.0 + 5.0**0.5) / 2.0)


@pytest.mark.parametrize("operators", [([[1e200]], [[1.0]]), ([[1.0]], [[1e155]])])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_disjoint_sum_overflowing_operator_raises(operators, lam_family, theta_family, tol):
    with pytest.raises(NumericalRangeError):
        disjoint_sum_family(lam_family, theta_family, OperatorPair(*operators), tol)


def test_disjoint_sum_rejects_overlapping_pair(theta_family, tol):
    pair = OperatorPair(np.eye(1), np.eye(1))
    with pytest.raises(PreconditionError):
        disjoint_sum_family(theta_family, theta_family, pair, tol)


def test_disjoint_sum_rejects_two_singular_operators(lam_family, ortho_family, tol):
    pair = OperatorPair(np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(PreconditionError):
        disjoint_sum_family(lam_family, ortho_family, pair, tol)


def test_strong_sum_scalar_three_four(lam_family, ortho_family, tol):
    pair = OperatorPair(3.0 * np.eye(1), 4.0 * np.eye(1))
    result = strongly_disjoint_sum(lam_family, ortho_family, pair, tol)
    assert result.scale == pytest.approx(25.0)
    assert np.allclose(result.family.blocks[0], [[3.0]])
    assert np.allclose(result.family.blocks[1], [[4.0]])
    assert result.report.is_tight
    assert result.report.upper_bound == pytest.approx(25.0, rel=1e-9)


def test_strong_sum_unit_circle_gives_parseval(lam_family, ortho_family, tol):
    scale = 1.0 / np.sqrt(2.0)
    pair = OperatorPair(scale * np.eye(1), scale * np.eye(1))
    result = strongly_disjoint_sum(lam_family, ortho_family, pair, tol)
    assert result.scale == pytest.approx(1.0)
    assert result.report.is_parseval


def test_strong_sum_degenerate_second_operator(lam_family, ortho_family, tol):
    pair = OperatorPair(np.eye(1), np.zeros((1, 1)))
    result = strongly_disjoint_sum(lam_family, ortho_family, pair, tol)
    assert result.scale == pytest.approx(1.0)
    for block, original in zip(result.family.blocks, lam_family.blocks):
        assert np.allclose(block, original)


def test_strong_sum_rejects_bad_gram(tol):
    # diag(2, 5) is not a multiple of the identity
    a, b = random_strongly_disjoint_parseval_pair(11, (1, 1, 2), 2, 2)
    bad = OperatorPair(np.diag([1.0, 2.0]).astype(complex), np.eye(2))
    with pytest.raises(PreconditionError):
        strongly_disjoint_sum(a, b, bad, tol)


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_the_identity_hypothesis_does_not_depend_on_the_operators_scale(s, tol):
    # s * (diag(1, 2), diag(1, 0.5)) squares to s^2 diag(2, 4.25) at every s, and
    # s * (I, a unitary) to 2 s^2 I: a tiny s must not pass the first for a multiple of I
    far = OperatorPair(s * np.diag([1.0, 2.0]), s * np.diag([1.0, 0.5]))
    assert not far.identity_multiple(tol)[1]
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    scale, held = OperatorPair(s * np.eye(2), s * swap).identity_multiple(tol)
    assert held and scale == pytest.approx(2.0 * s**2, rel=1e-12)
    lam, theta = random_strongly_disjoint_parseval_pair(1, (1, 1, 1, 1), 2, 2)
    with pytest.raises(PreconditionError, match="not a positive multiple of the identity"):
        strongly_disjoint_sum(lam, theta, far, tol)


def test_strong_sum_rejects_non_strong_pair(lam_family, theta_family, tol):
    pair = OperatorPair(np.eye(1), np.eye(1))
    with pytest.raises(PreconditionError):
        strongly_disjoint_sum(lam_family, theta_family, pair, tol)


def test_direct_sum_duals_requires_strong_disjointness(identity_family, tol):
    with pytest.raises(PreconditionError):
        direct_sum_duals(
            identity_family, identity_family, identity_family, identity_family, tol
        )


# direct_sum_duals raises on a failed hypothesis, so its one check is the glued pairing
_GLUED_CHECKS = ("glued-dual-pair",)


def test_direct_sum_duals_on_orthogonal_split(tol):
    lam, psi = random_strongly_disjoint_parseval_pair(21, (1, 1, 1, 2), 2, 2)
    theta, phi = canonical_dual(lam, tol), canonical_dual(psi, tol)
    result = direct_sum_duals(lam, theta, psi, phi, tol)
    assert _verdicts(result) == dict.fromkeys(_GLUED_CHECKS, True)
    assert result.gamma.domain_dim == lam.domain_dim + psi.domain_dim


@pytest.mark.parametrize(
    "broken, message",
    [("theta", "lam is not a dual of theta"), ("phi", "psi is not a dual of phi")],
)
def test_direct_sum_duals_names_the_failed_dual_hypothesis(broken, message, tol):
    lam, psi = random_strongly_disjoint_parseval_pair(21, (1, 1, 1, 2), 2, 2)
    families = {
        "lam": lam, "theta": canonical_dual(lam, tol), "psi": psi, "phi": canonical_dual(psi, tol)
    }
    # twice a canonical dual is a frame whose pairing is 2I: no dual
    dual = families[broken]
    families[broken] = GFrameFamily.from_rows(dual.space, 2.0 * dual.rows, dual.block_dims)
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        direct_sum_duals(**families, tol=tol)


def test_pseudo_dual_identity_operators(lam_family, ortho_family, tol):
    pair = OperatorPair(np.eye(1), np.eye(1))
    result = pseudo_dual(lam_family, ortho_family, pair, tol)
    dual = canonical_dual(lam_family, tol)
    for a, b in zip(result.dual_candidate.blocks, dual.blocks):
        assert np.allclose(a, b)
    assert _verdicts(result) == {"dual-of-sum": True, "dual-of-single": True}


def test_pseudo_dual_scaled_operator(lam_family, ortho_family, tol):
    pair = OperatorPair(2.0 * np.eye(1), np.eye(1))
    result = pseudo_dual(lam_family, ortho_family, pair, tol)
    dual = canonical_dual(lam_family, tol)
    for a, b in zip(result.dual_candidate.blocks, dual.blocks):
        assert np.allclose(a, 0.5 * b)
    assert _verdicts(result) == {"dual-of-sum": True, "dual-of-single": True}


def test_pseudo_dual_rejects_singular_first_operator(lam_family, ortho_family, tol):
    pair = OperatorPair(np.zeros((1, 1)), np.eye(1))
    with pytest.raises(PreconditionError):
        pseudo_dual(lam_family, ortho_family, pair, tol)


def _unit_family(space, vectors):
    """The ordinary frame {v}: one-row blocks v^H."""
    rows = np.conj(np.array(vectors, dtype=complex))
    return GFrameFamily.from_rows(space, rows, (1,) * space.atom_count)


def test_lift_standard_basis(tol):
    space = MeasureSpace([1.0, 1.0])
    basis = ([1.0, 0.0], [0.0, 1.0])
    lifted = lift_continuous_frame(_unit_family(space, basis), _unit_family(space, basis), tol)
    assert all(d == 2 for d in lifted.lam.block_dims)
    assert is_dual_pair(lifted.theta, lifted.lam, tol)
    assert is_dual_pair(lifted.psi, lifted.phi, tol)
    assert classify(lifted.lam, lifted.phi, tol).strongly_disjoint
    assert classify(lifted.theta, lifted.psi, tol).strongly_disjoint
    glued = direct_sum_duals(lifted.lam, lifted.theta, lifted.psi, lifted.phi, tol)
    assert _verdicts(glued) == dict.fromkeys(_GLUED_CHECKS, True)


def test_lift_scalar_frame_halves_dual_coefficients(tol):
    space = MeasureSpace([1.0, 1.0])
    f = _unit_family(space, ([1.0], [1.0]))
    lifted = lift_continuous_frame(f, _unit_family(space, ([1.0], [0.0])), tol)
    assert np.allclose(lifted.theta.blocks[0], [[0.5], [0.0]])
    assert is_dual_pair(lifted.theta, lifted.lam, tol)


def test_lift_writes_each_frame_and_its_dual_into_one_block_row(tol):
    rng = np.random.default_rng(8)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 4))
    f = _unit_family(space, rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    g = _unit_family(space, rng.standard_normal((4, 3)) - 1j * rng.standard_normal((4, 3)))
    lifted = lift_continuous_frame(f, g, tol)
    assert np.array_equal(lifted.lam.rows[0::2], f.rows)
    assert np.array_equal(lifted.theta.rows[0::2], canonical_dual(f, tol).rows)
    assert np.array_equal(lifted.psi.rows[1::2], g.rows)
    assert np.array_equal(lifted.phi.rows[1::2], canonical_dual(g, tol).rows)
    for fam in (lifted.lam, lifted.theta):
        assert not fam.rows[1::2].any()
    for fam in (lifted.psi, lifted.phi):
        assert not fam.rows[0::2].any()


def test_lift_rejects_degenerate_spec(tol):
    space = MeasureSpace([1.0, 1.0])
    f = _unit_family(space, ([0.0], [0.0]))
    g = _unit_family(space, ([1.0], [0.0]))
    with pytest.raises(PreconditionError, match="first continuous frame is degenerate"):
        lift_continuous_frame(f, g, tol)
    with pytest.raises(PreconditionError, match="second continuous frame is degenerate"):
        lift_continuous_frame(g, f, tol)


def test_lift_rejects_wider_blocks_and_other_spaces(tol):
    space = MeasureSpace([1.0, 1.0])
    f = _unit_family(space, ([1.0], [1.0]))
    wide = GFrameFamily(space=space, domain_dim=1, blocks=([[1.0], [0.0]], [1.0]))
    with pytest.raises(ShapeError, match="second continuous frame has blocks of dims"):
        lift_continuous_frame(f, wide, tol)
    other = _unit_family(MeasureSpace([1.0, 2.0]), ([1.0], [1.0]))
    with pytest.raises(ShapeError, match="share the measure space"):
        lift_continuous_frame(f, other, tol)


def test_random_gframe_is_deterministic():
    first = random_gframe(1, (1, 1), 2)
    second = random_gframe(1, (1, 1), 2)
    assert first == second
    assert frame_bounds(first).is_frame


def test_random_gframe_rejects_impossible_frame_request():
    with pytest.raises(GenerationError):
        random_gframe(1, (1, 1), 3)


@pytest.mark.parametrize(
    "block_dims, domain_dim, shown",
    [((), 1, "()"), ((1, 0), 1, "(1, 0)"), ((1, 1), 0, "(1, 1)")],
)
def test_random_gframe_names_an_invalid_shape_request(block_dims, domain_dim, shown):
    with pytest.raises(GenerationError) as err:
        random_gframe(1, block_dims, domain_dim)
    assert str(err.value) == f"invalid shape request: block_dims={shown}, domain_dim={domain_dim}"


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda: random_gframe(1, (1.5, 1), 1), "block_dims: 1.5 is not an integer"),
        (lambda: random_gframe(1, (1, 1), "2"), "domain_dim: '2' is not an integer"),
        (lambda: random_strongly_disjoint_parseval_pair(1, (1, 1, 2), 1.5, 1),
         "dim_first: 1.5 is not an integer"),
        (lambda: random_strongly_disjoint_parseval_pair(1, (1, 1, 2), 1, True),
         "dim_second: True is not an integer"),
        (lambda: random_gframe(1.5, (1, 1), 1), "seed: 1.5 is not an integer"),
        (lambda: random_gframe(True, (1, 1), 1), "seed: True is not an integer"),
        (lambda: random_strongly_disjoint_parseval_pair(1.5, (1, 1, 2), 1, 1),
         "seed: 1.5 is not an integer"),
    ],
    ids=["block-float", "domain-str", "first-float", "second-bool", "seed-float", "seed-bool",
         "pair-seed-float"],
)
def test_generators_name_a_dim_that_is_not_an_integer(draw, message):
    with pytest.raises(GenerationError) as err:
        draw()
    assert str(err.value) == message


def test_generators_read_integral_float_dims_as_int():
    assert random_gframe(1, (1, 1), 2.0) == random_gframe(1, (1, 1), 2)
    floats = random_strongly_disjoint_parseval_pair(1, (1.0, 1, 2), 1.0, 1)
    assert floats == random_strongly_disjoint_parseval_pair(1, (1, 1, 2), 1, 1)


def test_random_pair_split_full_is_strongly_complementary(tol):
    first, second = random_strongly_disjoint_parseval_pair(3, (1, 1, 2), 2, 2)
    report = classify(first, second, tol)
    assert report.strongly_disjoint and report.strongly_complementary_pair
    assert frame_bounds(first, tol).is_parseval
    assert frame_bounds(second, tol).is_parseval


def test_random_pair_partial_split_not_complementary(tol):
    first, second = random_strongly_disjoint_parseval_pair(4, (1, 1, 2), 1, 2)
    report = classify(first, second, tol)
    assert report.strongly_disjoint and not report.complementary_pair


def test_random_pair_replay_is_identical():
    a = random_strongly_disjoint_parseval_pair(9, (2, 1), 1, 2)
    b = random_strongly_disjoint_parseval_pair(9, (2, 1), 1, 2)
    assert a[0] == b[0] and a[1] == b[1]


def test_random_pair_rejects_infeasible_split():
    with pytest.raises(GenerationError):
        random_strongly_disjoint_parseval_pair(1, (1, 1), 2, 1)


# Each function that takes L1 and L2: its call on the sample families, operators
# it accepts, and a wrong-shaped pair under its own shape rule with the message.
_OPERATOR_TAKERS = {
    "disjoint_sum_family": (
        lambda f, l1, l2, tol: disjoint_sum_family(f.lam, f.theta, OperatorPair(l1, l2), tol),
        np.eye(1), ([[1.0]], [[1.0], [0.0]]), "L2 must be 1 x 1, got (2, 1)",
    ),
    "pseudo_dual": (
        lambda f, l1, l2, tol: pseudo_dual(f.lam, f.ortho, OperatorPair(l1, l2), tol),
        np.eye(1), ([[1.0, 0.0]], [[1.0]]), "L1 must be 1 x 1, got (1, 2)",
    ),
    "strongly_disjoint_sum": (
        lambda f, l1, l2, tol: strongly_disjoint_sum(f.lam, f.ortho, OperatorPair(l1, l2), tol),
        np.eye(1), ([[1.0, 0.0]], [[1.0]]), "L1 must be 1 x 1, got (1, 2)",
    ),
    "mixed_construction": (
        lambda f, l1, l2, tol: mixed_construction(f.identity, f.identity, l1, l2, tol),
        np.eye(2), (np.eye(2), np.eye(3)), "L2 must be 2 x 2, got (3, 3)",
    ),
    "strong_disjointness_converse_check": (
        lambda f, l1, l2, tol: strong_disjointness_converse_check(f.lam, f.ortho, l1, l2, tol),
        np.eye(1), ([[1.0]], [[1.0, 0.0]]), "L2 must be 1 x 1, got (1, 2)",
    ),
    "compose_sum": (
        lambda f, l1, l2, tol: compose_sum(f.lam, f.theta, l1, l2),
        np.eye(1), (1.0, 1.0), "L1 must be a non-empty 2-D matrix, got ()",
    ),
    "identity_multiple": (
        lambda f, l1, l2, tol: OperatorPair(l1, l2).identity_multiple(tol),
        np.eye(1), (np.eye(2), np.eye(3)), "L2 must have L1's 2 columns, got (3, 3)",
    ),
}


@pytest.mark.parametrize("name", sorted(_OPERATOR_TAKERS))
def test_operator_faults_raise_one_exit_2_error(
    name, lam_family, theta_family, ortho_family, identity_family, tol
):
    # a non-finite entry must reach neither an SVD (LinAlgError) nor a hypothesis
    # (exit 1): each fault is one exit-2 error that names the operator
    call, accepted, wrong, message = _OPERATOR_TAKERS[name]
    families = SimpleNamespace(
        lam=lam_family, theta=theta_family, ortho=ortho_family, identity=identity_family
    )
    for value in (np.nan, np.inf):
        for which in (0, 1):
            operators = [accepted.astype(complex), accepted.astype(complex)]
            operators[which][0, 0] = value
            with pytest.raises(NumericalRangeError, match=f"^L{which + 1} has non-finite entries$"):
                call(families, *operators, tol)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call(families, *wrong, tol)
    # an empty operator would pass for surjective and build a family of domain dim 0
    with pytest.raises(ShapeError, match=r"^L2 must be a non-empty 2-D matrix, got \(0, 1\)$"):
        call(families, accepted, np.zeros((0, 1)), tol)
