"""Core model: validation, the weighted inner product, and the embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import (
    GFrameFamily,
    KHatVector,
    MeasureSpace,
    ShapeError,
    TolerancePolicy,
    analysis_matrix,
    apply_analysis,
    cross_operator,
    embed,
    family_from_analysis_matrix,
    frame_operator,
    gamma_family,
    inner,
    khat_inner,
    right_compose,
    synthesis_matrix,
    unembed,
    validate_family,
)
from gframes._linalg import singular_values


def test_tolerance_policy_rejects_bad_values():
    with pytest.raises(ValueError):
        TolerancePolicy(rel_eps=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(rank_eps_factor=0.5)


def test_validate_minimal_family_ok():
    fam = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=1, blocks=([1.0],))
    assert validate_family(fam) == []


def test_validate_reports_block_count_mismatch(space2):
    fam = GFrameFamily(space=space2, domain_dim=1, blocks=([1.0],))
    violations = validate_family(fam)
    assert any("blocks.length" in v for v in violations)


def test_validate_reports_nonpositive_weight():
    fam = GFrameFamily(
        space=MeasureSpace([1.0, 0.0]), domain_dim=1, blocks=([1.0], [1.0])
    )
    violations = validate_family(fam)
    assert any("weights[1]" in v for v in violations)


def test_validate_reports_declared_dim_mismatch(space2):
    fam = GFrameFamily(
        space=space2, domain_dim=1, blocks=([1.0], [1.0]), block_dims=(1, 2)
    )
    assert any("block 1" in v for v in validate_family(fam))


def test_khat_inner_unit_vector():
    space = MeasureSpace([1.0])
    f = KHatVector(([1.0],))
    assert khat_inner(f, f, space) == pytest.approx(1.0)


def test_khat_inner_disjoint_supports(space2):
    f = KHatVector(([1.0], [0.0]))
    g = KHatVector(([0.0], [1.0]))
    assert khat_inner(f, g, space2) == pytest.approx(0.0)


def test_khat_inner_weighted():
    space = MeasureSpace([2.0])
    f = KHatVector(([1.0],))
    assert khat_inner(f, f, space) == pytest.approx(2.0)


def test_khat_inner_shape_mismatch(space2):
    f = KHatVector(([1.0], [0.0]))
    g = KHatVector(([1.0, 0.0], [0.0]))
    with pytest.raises(ShapeError):
        khat_inner(f, g, space2)


def test_khat_inner_first_argument_linear(space2):
    f = KHatVector(([1.0 + 2.0j], [0.5]))
    g = KHatVector(([0.25 - 1.0j], [2.0]))
    scaled = KHatVector(tuple((2.0 - 1.0j) * b for b in f.blocks))
    assert khat_inner(scaled, g, space2) == pytest.approx(
        (2.0 - 1.0j) * khat_inner(f, g, space2)
    )


def test_embed_unit_weights(space2):
    f = KHatVector(([1.0], [1.0]))
    assert np.allclose(embed(f, space2), [1.0, 1.0])


def test_embed_scales_by_sqrt_weight():
    f = KHatVector(([1.0],))
    assert np.allclose(embed(f, MeasureSpace([4.0])), [2.0])


def test_embed_zero_vector(space2):
    f = KHatVector(([0.0], [0.0]))
    assert np.allclose(embed(f, space2), [0.0, 0.0])


def test_unembed_inverts_embed():
    space = MeasureSpace([0.5, 3.0])
    f = KHatVector(([1.0 + 1.0j, 2.0], [0.25]))
    assert unembed(embed(f, space), space, f.block_dims) == f


@st.composite
def _khat_instances(draw):
    atoms = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(atoms))
    weights = [draw(st.floats(0.1, 10.0)) for _ in range(atoms)]
    scalar = st.floats(-10.0, 10.0)

    def vec(d):
        return np.array(
            [complex(draw(scalar), draw(scalar)) for _ in range(d)]
        )

    f = KHatVector(tuple(vec(d) for d in dims))
    g = KHatVector(tuple(vec(d) for d in dims))
    return MeasureSpace(weights), f, g


@settings(max_examples=60, deadline=None)
@given(_khat_instances())
def test_embedding_is_isometric(instance):
    space, f, g = instance
    weighted = khat_inner(f, g, space)
    embedded = inner(embed(f, space), embed(g, space))
    assert weighted == pytest.approx(embedded, rel=1e-12, abs=1e-12)
    assert weighted == pytest.approx(np.conj(khat_inner(g, f, space)), rel=1e-12, abs=1e-12)
    self_ip = khat_inner(f, f, space)
    assert self_ip.real >= 0
    assert self_ip.imag == pytest.approx(0.0, abs=1e-12)


def test_khat_vector_is_one_array_with_block_views():
    rng = np.random.default_rng(13)
    dims = tuple(int(d) for d in rng.integers(1, 4, 1000))
    space = MeasureSpace(rng.uniform(0.25, 4.0, len(dims)))
    f = KHatVector(tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims))
    g = KHatVector(tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims))
    assert f.data.shape == (sum(dims),) and f.block_dims == dims
    assert all(b.base is f.data for b in f.blocks)
    for array in (f.data, f.blocks[3]):
        with pytest.raises(ValueError):
            array[0] = 5.0
    # the round trip rounds like the per-atom route: bit for bit, and within
    # an ulp or two of f (x * s / s need not give x back exactly)
    roots = np.sqrt(space.weights)
    per_atom = np.concatenate([b * r / r for b, r in zip(f.blocks, roots)])
    round_trip = unembed(embed(f, space), space, dims)
    assert round_trip.data.tobytes() == per_atom.tobytes()
    assert np.all(np.abs(round_trip.data - f.data) <= 4e-16 * np.abs(f.data))
    reference = sum(w * np.vdot(gb, fb) for w, fb, gb in zip(space.weights, f.blocks, g.blocks))
    assert abs(khat_inner(f, g, space) - reference) <= 1e-12 * abs(reference)


def test_analysis_matrix_single_block():
    fam = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=1, blocks=([1.0],))
    assert np.allclose(analysis_matrix(fam), [[1.0]])


def test_analysis_matrix_stacks_blocks(identity_family):
    assert np.allclose(analysis_matrix(identity_family), np.eye(2))


def test_analysis_matrix_applies_sqrt_weight():
    fam = GFrameFamily(space=MeasureSpace([4.0]), domain_dim=1, blocks=([1.0],))
    assert np.allclose(analysis_matrix(fam), [[2.0]])


def test_analysis_matrix_matches_blockwise_application():
    rng = np.random.default_rng(5)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 3))
    blocks = tuple(rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)) for d in (1, 2, 1))
    fam = GFrameFamily(space=space, domain_dim=2, blocks=blocks)
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    recovered = unembed(analysis_matrix(fam) @ h, space, fam.block_dims)
    direct = apply_analysis(fam, h)
    for a, b in zip(recovered.blocks, direct.blocks):
        assert np.allclose(a, b)


def test_synthesis_matrix_is_adjoint_of_analysis_matrix():
    from gframes import synthesis_matrix

    rng = np.random.default_rng(7)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 3))
    blocks = tuple(
        rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)) for d in (2, 1, 1)
    )
    fam = GFrameFamily(space=space, domain_dim=2, blocks=blocks)
    assert np.allclose(synthesis_matrix(fam), analysis_matrix(fam).conj().T)


def test_family_from_analysis_matrix_round_trip():
    rng = np.random.default_rng(6)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 2))
    blocks = tuple(rng.standard_normal((d, 3)) for d in (2, 1))
    fam = GFrameFamily(space=space, domain_dim=3, blocks=blocks)
    rebuilt = family_from_analysis_matrix(analysis_matrix(fam), space, fam.block_dims)
    for a, b in zip(rebuilt.blocks, fam.blocks):
        assert np.allclose(a, b)


def test_blocks_are_read_only(identity_family):
    with pytest.raises(ValueError):
        identity_family.blocks[0][0, 0] = 5.0


def test_right_compose_rejects_wrong_shape(identity_family):
    with pytest.raises(ShapeError):
        right_compose(identity_family, np.eye(3))


def test_tolerance_policy_rejects_non_finite_values():
    for kwargs in ({"rel_eps": float("nan")}, {"rel_eps": float("inf")},
                   {"rank_eps_factor": float("inf")}, {"rank_eps_factor": float("nan")}):
        with pytest.raises(ValueError):
            TolerancePolicy(**kwargs)


def test_invalid_blocks_still_construct_and_are_named(space2):
    ragged = GFrameFamily(space=space2, domain_dim=2, blocks=([[1.0, 0.0]], [[1.0, 0.0, 2.0]]))
    assert any("block 1 has 3 columns" in v for v in validate_family(ragged))
    assert ragged.rows is None and ragged.blocks[1].shape == (1, 3)
    nonfinite = GFrameFamily(space=space2, domain_dim=1, blocks=([1.0], [np.inf]))
    assert validate_family(nonfinite) == ["block 1 contains non-finite entries"]
    assert np.isinf(nonfinite.blocks[1][0, 0])


def _random_family(rng, space, dims, domain_dim):
    return GFrameFamily(
        space=space,
        domain_dim=domain_dim,
        blocks=tuple(
            rng.standard_normal((d, domain_dim)) + 1j * rng.standard_normal((d, domain_dim))
            for d in dims
        ),
    )


def test_rebuilding_from_blocks_is_equal_and_blocks_stay_read_only():
    rng = np.random.default_rng(3)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 5))
    fam = _random_family(rng, space, (1, 3, 2, 4, 1), 3)
    assert GFrameFamily(space=fam.space, domain_dim=fam.domain_dim, blocks=fam.blocks) == fam
    assert fam.rows.flags.c_contiguous and fam.rows.shape == (11, 3)
    for block in (*fam.blocks, fam.rows):
        with pytest.raises(ValueError):
            block[0, 0] = 5.0
    composed = right_compose(fam, np.eye(3))
    with pytest.raises(ValueError):
        composed.blocks[2][0, 0] = 5.0


def _close(actual, expected):
    return np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)


def test_stacked_operations_match_per_atom_reference():
    rng = np.random.default_rng(11)
    dims = tuple(int(d) for d in rng.integers(1, 5, 3000))
    space = MeasureSpace(rng.uniform(0.25, 4.0, len(dims)))
    lam = _random_family(rng, space, dims, 5)
    theta = _random_family(rng, space, dims, 3)
    weights = space.weights
    frame_ref = sum(w * b.conj().T @ b for w, b in zip(weights, lam.blocks))
    cross_ref = sum(w * lb.conj().T @ tb for w, lb, tb in zip(weights, lam.blocks, theta.blocks))
    synth_ref = np.hstack([np.sqrt(w) * b.conj().T for w, b in zip(weights, lam.blocks)])
    assert _close(frame_operator(lam), frame_ref)
    assert _close(cross_operator(lam, theta), cross_ref)
    assert _close(synthesis_matrix(lam), synth_ref)
    gamma = gamma_family(lam, theta)
    assert gamma.domain_dim == 8
    assert all(
        np.array_equal(g, np.hstack([lb, tb]))
        for g, lb, tb in zip(gamma.blocks, lam.blocks, theta.blocks)
    )
    operator = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    composed = right_compose(lam, operator)
    assert _close(composed.rows, np.vstack([b @ operator for b in lam.blocks]))


@pytest.mark.parametrize(
    "shape", [(3, 7), (40, 6), (5, 5), (1, 9), (9, 1), (1, 1), (0, 4), (4, 0)]
)
def test_singular_values_match_numpy_and_take_the_tall_path(shape, monkeypatch):
    rng = np.random.default_rng(sum(shape))
    matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = np.linalg.svd(matrix, compute_uv=False)
    decomposed = []
    original = np.linalg.svd

    def recording(m, *args, **kwargs):
        decomposed.append(np.shape(m))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    actual = singular_values(matrix)
    assert actual.shape == expected.shape
    scale = expected[0] if expected.size else 1.0
    assert np.all(np.abs(actual - expected) <= 1e-12 * scale)
    assert all(rows >= cols for rows, cols in decomposed)
