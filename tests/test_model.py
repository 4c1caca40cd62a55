"""Core model: validation at construction, the weighted inner product, and the embedding."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframes import (
    FamilyValidationError,
    GFrameFamily,
    KHatVector,
    MeasureSpace,
    ShapeError,
    analysis_matrix,
    apply_analysis,
    canonical_dual,
    cross_operator,
    dual_check,
    embed,
    family_from_analysis_matrix,
    frame_operator,
    gamma_family,
    inner,
    khat_inner,
    lift_continuous_frame,
    right_compose,
    synthesis_matrix,
    unembed,
)
from gframes import model
from gframes._linalg import singular_values
from gframes.analysis import compose_sum
from gframes.model import require_same_khat


def _violations(build) -> list[str]:
    """The violations named by the FamilyValidationError that ``build()`` raises."""
    with pytest.raises(FamilyValidationError) as err:
        build()
    return err.value.violations


def test_validate_minimal_family_ok():
    fam = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=1, blocks=([1.0],))
    assert fam.rows.tolist() == [[1.0]] and fam.block_dims == (1,)


def test_validate_reports_block_count_mismatch(space2):
    violations = _violations(lambda: GFrameFamily(space=space2, domain_dim=1, blocks=([1.0],)))
    assert any("blocks.length" in v for v in violations)


def test_validate_reports_nonpositive_weight():
    violations = _violations(lambda: MeasureSpace([1.0, 0.0]))
    assert any("weights[1]" in v for v in violations)


def test_block_dims_are_the_row_counts_of_the_blocks(space2):
    fam = GFrameFamily(space=space2, domain_dim=1, blocks=([1.0], [[1.0], [2.0]]))
    assert fam.block_dims == (1, 2)
    assert fam.codomain_dim == 3


@pytest.mark.parametrize("domain_dim", [2.0, np.int64(2), True])
def test_dims_are_read_off_the_rows(domain_dim):
    # the stored domain dim is the column count: a stored 2.0 would make
    # np.eye(2.0) raise TypeError in dual_check and lift_continuous_frame
    width = int(domain_dim)
    space = MeasureSpace([1.0, 2.0, 3.0])
    blocks = [np.eye(width)[i % width] for i in range(3)]
    fam = GFrameFamily(space, domain_dim, blocks)
    assert type(fam.domain_dim) is int and fam.domain_dim == width and fam.codomain_dim == 3
    assert dual_check("dual", canonical_dual(fam), fam)[1]
    lifted = lift_continuous_frame(fam, fam)
    assert lifted.lam.domain_dim == width and lifted.lam.codomain_dim == 6


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GFrameFamily.from_rows(MeasureSpace([1.0, 1.0]), np.eye(2), (1.5, 1.2)),
         "block_dims: 1.5 is not an integer"),
        (lambda: GFrameFamily.from_rows(MeasureSpace([1.0, 1.0]), np.eye(2), ("1", "1")),
         "block_dims: '1' is not an integer"),
        (lambda: KHatVector.from_array(np.zeros(2), (True, 1)),
         "block_dims: True is not an integer"),
        (lambda: KHatVector.zeros((1.5, 0.7)), "block_dims: 1.5 is not an integer"),
        (lambda: family_from_analysis_matrix(np.eye(2), MeasureSpace([1.0, 1.0]), (1.5, 0.5)),
         "block_dims: 1.5 is not an integer"),
        (lambda: KHatVector.from_array(np.zeros(1), (2, -1)), "block_dims: -1 is negative"),
        (lambda: KHatVector.zeros((1, -1)), "block_dims: -1 is negative"),
    ],
    ids=["from_rows-float", "from_rows-str", "from_array-bool", "zeros-float", "analysis-float",
         "from_array-negative", "zeros-negative"],
)
def test_a_block_dim_that_is_not_an_integer_is_named(build, message):
    with pytest.raises(ShapeError) as err:
        build()
    assert str(err.value) == message


def test_integral_block_dims_of_any_number_type_are_read_as_int():
    fam = GFrameFamily.from_rows(MeasureSpace([1.0, 1.0]), np.eye(3), (np.int64(1), 2.0))
    vector = KHatVector.zeros((np.float64(1.0), np.int32(2)))
    for dims in (fam.block_dims, vector.block_dims):
        assert dims == (1, 2) and all(type(d) is int for d in dims)


@pytest.mark.parametrize(
    "domain_dim, width, shown", [("2", 2, "'2'"), (2, 3, "2"), (np.int64(2), 3, "2")]
)
def test_a_width_violation_shows_the_domain_dim_as_given(domain_dim, width, shown):
    with pytest.raises(FamilyValidationError) as err:
        GFrameFamily(MeasureSpace([1.0]), domain_dim, ([list(range(1, width + 1))],))
    assert err.value.violations == [
        f"block 0 has {width} columns, expected domain_dim = {shown}"
    ]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GFrameFamily.from_rows(MeasureSpace([1.0, 1.0]), np.ones((3, 1)), (1, 1)),
         "matrix has 3 rows, expected total block dim 2"),
        (lambda: KHatVector.from_array(np.zeros(3), (1, 1)),
         "vector of shape (3,) != total block dim 2"),
        (lambda: apply_analysis(GFrameFamily(MeasureSpace([1.0]), 1, ([1.0],)), np.ones(3)),
         "vector length 3 != domain_dim 1"),
    ],
)
def test_size_mismatches_name_both_sizes(build, message):
    with pytest.raises(ShapeError) as err:
        build()
    assert str(err.value) == message


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


def test_row_layout_needs_one_block_dim_per_atom(space2):
    # np.repeat would broadcast the one block dim over both atoms
    one_block = KHatVector(([1.0, 2.0],))
    for operation in (
        lambda: embed(one_block, space2),
        lambda: khat_inner(one_block, one_block, space2),
        lambda: unembed(np.ones(2), space2, (2,)),
        lambda: family_from_analysis_matrix(np.ones((2, 1)), space2, (2,)),
        lambda: GFrameFamily.from_rows(space2, np.ones((2, 1)), (2,)),
    ):
        with pytest.raises(ShapeError, match="1 block dims for 2 atoms"):
            operation()


def test_families_over_one_space_object_compare_no_weights(monkeypatch):
    space = MeasureSpace([1.0, 2.0, 3.0])
    first = GFrameFamily(space, 1, ([1.0], [0.0], [1.0]))
    second = GFrameFamily(space, 1, ([0.0], [1.0], [1.0]))
    compared = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *a: compared.append(a) or array_equal(*a))
    require_same_khat(first, second)
    assert compared == []
    assert MeasureSpace([1.0, 2.0, 3.0]) == space and len(compared) == 1


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


def test_invalid_blocks_are_named_at_construction(space2):
    ragged = _violations(
        lambda: GFrameFamily(space=space2, domain_dim=2, blocks=([[1.0, 0.0]], [[1.0, 0.0, 2.0]]))
    )
    assert any("block 1 has 3 columns" in v for v in ragged)
    nonfinite = _violations(lambda: GFrameFamily(space=space2, domain_dim=1, blocks=([1.0], [np.inf])))
    assert nonfinite == ["block 1 contains non-finite entries"]
    rows = np.array([[1.0], [2.0], [np.nan]])
    assert _violations(lambda: GFrameFamily.from_rows(space2, rows, (1, 2))) == nonfinite


@pytest.mark.parametrize("shape", [(4, 3), (20_000, 24)], ids=["one-chunk", "many-chunks"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_entry_names_its_block_wherever_it_sits(shape, where, value):
    """The norm pass finds the entry, on rows below and above the chunk size."""
    rng = np.random.default_rng(59)
    dims = (1, 3) * (shape[0] // 4)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = rows.view(float).reshape(-1)
    # the real part of the first entry, the imaginary parts of a middle and the last one
    index = {"first": 0, "middle": flat.size // 2 + 1, "last": flat.size - 1}[where]
    flat[index] = value
    block = int(np.searchsorted(np.cumsum(dims), index // (2 * shape[1]), side="right"))
    space = MeasureSpace(np.ones(len(dims)))
    expected = [f"block {block} contains non-finite entries"]
    assert _violations(lambda: GFrameFamily.from_rows(space, rows, dims)) == expected


def test_finite_entries_whose_squares_overflow_make_a_family_with_an_infinite_bound():
    space = MeasureSpace(np.ones(4))
    rows = np.full((4, 3), 1e200 - 1e200j)
    fam = GFrameFamily.from_rows(space, rows, (1,) * 4)
    assert fam._bound == math.inf and np.array_equal(fam.rows, rows)
    small = GFrameFamily.from_rows(space, rows * 1e-200, (1,) * 4)
    assert small._bound == pytest.approx(math.sqrt(24.0), rel=1e-15)


def test_zero_row_block_is_rejected(space2):
    empty = np.zeros((0, 1))
    expected = ["block_dims[0] = 0 not >= 1"]
    assert _violations(lambda: GFrameFamily(space2, 1, (empty, [1.0]))) == expected
    assert _violations(lambda: GFrameFamily.from_rows(space2, [[1.0]], (0, 1))) == expected


def test_blocks_are_stacked_bit_for_bit_in_one_pass():
    rng = np.random.default_rng(41)
    dims = rng.integers(1, 5, 8000)
    blocks = [
        rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3)) if i % 3 else
        rng.standard_normal((d, 3)).tolist()
        for i, d in enumerate(dims)
    ]
    fam = GFrameFamily(MeasureSpace(np.ones(dims.size)), 3, blocks)
    expected = np.vstack([np.asarray(b, dtype=complex) for b in blocks])
    assert fam.rows.tobytes() == expected.tobytes() and fam.rows.shape == expected.shape
    assert fam.block_dims == tuple(dims.tolist())


def test_one_and_zero_dimensional_blocks_are_single_rows():
    fam = GFrameFamily(MeasureSpace([1.0, 1.0]), 1, (2.0, [3.0]))
    assert fam.rows.tolist() == [[2.0], [3.0]] and fam.block_dims == (1, 1)
    wide = GFrameFamily(MeasureSpace([1.0, 1.0]), 3, ([1, 2, 3], [[4, 5, 6], [7, 8, 9]]))
    assert wide.block_dims == (1, 2) and wide.rows[0].tolist() == [1.0, 2.0, 3.0]


def test_three_dimensional_block_names_its_ndim(space2):
    with pytest.raises(ShapeError, match="must be 2-D, got ndim=3"):
        GFrameFamily(space2, 2, ([[1.0, 0.0]], np.zeros((1, 1, 2))))


def test_shape_faults_are_listed_in_atom_order():
    space = MeasureSpace([1.0, 2.0, 3.0])
    four = ([[1, 0]], [[1, 0, 2]], [[1, 0]], [3.0])
    assert _violations(lambda: GFrameFamily(space, 2, four)) == [
        "blocks.length = 4 != atom_count = 3",
        "block 1 has 3 columns, expected domain_dim = 2",
        "block 3 has 1 columns, expected domain_dim = 2",
    ]
    three = ([[1, 0]], [[1, 0, 2]], [3.0])
    assert _violations(lambda: GFrameFamily(space, 2, three)) == [
        "block 1 has 3 columns, expected domain_dim = 2",
        "block 2 has 1 columns, expected domain_dim = 2",
    ]


def _blockwise(space, domain_dim, blocks) -> GFrameFamily:
    """The family built by the per-block path, which names shape violations."""
    family = GFrameFamily.__new__(GFrameFamily)
    family._stack_blockwise(space, domain_dim, blocks)
    return family


def test_one_call_stacking_matches_the_blockwise_path_bit_for_bit():
    rng = np.random.default_rng(43)
    dims = rng.integers(1, 5, 50)
    space = MeasureSpace(rng.uniform(0.5, 2.0, dims.size))
    arrays = [rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3)) for d in dims]
    for make in (
        lambda: arrays,
        lambda: [block.tolist() for block in arrays],
        lambda: (block for block in arrays),
        lambda: [block.real.astype(np.float32) for block in arrays],
    ):
        fam, expected = GFrameFamily(space, 3, make()), _blockwise(space, 3, make())
        assert fam.rows.tobytes() == expected.rows.tobytes()
        assert fam.rows.shape == expected.rows.shape
        assert fam.block_dims == expected.block_dims == tuple(dims.tolist())


def test_malformed_blocks_keep_their_violation_lines():
    space = MeasureSpace([1.0, 2.0, 3.0])
    zero_d = (2.0, [[1, 2]], np.array(4.0))
    assert _violations(lambda: GFrameFamily(space, 2, zero_d)) == [
        "block 0 has 1 columns, expected domain_dim = 2",
        "block 2 has 1 columns, expected domain_dim = 2",
    ]
    one_d = ([1, 2, 3], [3, 4], [5])
    assert _violations(lambda: GFrameFamily(space, 2, one_d)) == [
        "block 0 has 3 columns, expected domain_dim = 2",
        "block 2 has 1 columns, expected domain_dim = 2",
    ]
    wrong_columns = (np.ones((2, 3)),) * 3
    assert _violations(lambda: GFrameFamily(space, 2, wrong_columns)) == [
        f"block {i} has 3 columns, expected domain_dim = 2" for i in range(3)
    ]
    assert _violations(lambda: GFrameFamily(space, 2, (np.ones((2, 2)),) * 4)) == [
        "blocks.length = 4 != atom_count = 3"
    ]
    for three_d in ((np.zeros((1, 1, 2)),) * 3, ([[1, 0]], np.zeros((1, 1, 2)), [[1, 1]])):
        with pytest.raises(ShapeError, match="must be 2-D, got ndim=3"):
            GFrameFamily(space, 2, three_d)
    # well-formed 0-D and 1-D blocks are single rows on either path
    fam = GFrameFamily(space, 2, ([1, 2], [[3, 4]], np.array([5, 6])))
    assert fam.rows.tolist() == [[1, 2], [3, 4], [5, 6]] and fam.block_dims == (1, 1, 1)


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


def test_a_paired_family_pickles_without_its_memo():
    space = MeasureSpace([1.0, 2.0, 3.0])
    lam = GFrameFamily(space, 1, ([1.0], [0.0], [0.0]))
    theta = GFrameFamily(space, 1, ([0.0], [1.0], [1.0]))
    gamma = gamma_family(lam, theta)
    cross_operator(lam, theta)
    for fam in (lam, theta, gamma):
        for copied in (pickle.loads(pickle.dumps(fam)), copy.deepcopy(fam)):
            assert copied == fam and not copied.rows.flags.writeable
            assert np.array_equal(frame_operator(copied), frame_operator(fam))


@pytest.mark.parametrize("width", [5, 3, 9], ids=["square", "narrow", "wide"])
@pytest.mark.parametrize("same", [False, True], ids=["pair", "lam-is-theta"])
def test_compose_sum_composes_the_pair_family_one_chunk_at_a_time(width, same):
    rng = np.random.default_rng(83 + width)
    atoms = 24_000
    dims = tuple(int(d) for d in rng.integers(1, 5, atoms))
    space = MeasureSpace(rng.uniform(0.5, 2.0, atoms))

    def cgauss(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    lam = GFrameFamily.from_rows(space, cgauss((sum(dims), 5)), dims)
    theta = lam if same else GFrameFamily.from_rows(space, cgauss((sum(dims), 5)), dims)
    # L2 as an adjoint view, the layout the adjoint rule hands over
    l1, l2 = cgauss((5, width)), cgauss((width, 5)).conj().T
    expected = np.hstack([lam.rows, theta.rows]) @ np.vstack([l1, l2])
    assert len(model.row_chunks(sum(dims), max(5, width))) > 10
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        composed = compose_sum(lam, theta, l1, l2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert composed.rows.tobytes() == expected.tobytes()
    assert composed.rows.shape == expected.shape and composed.block_dims == dims
    # building the sum streams the pair Gram a chunk at a time: no second N-row array
    assert peak < composed.rows.nbytes + 1.1 * model.CHUNK_BYTES
