"""Composed families: the results of ``right_compose`` and ``compose_sum`` taller
than one row chunk make their rows a chunk at a time, with the bits, singular
values and validation errors of the stored product.  Their frame operator
comes from d x d algebra, L^H G L, within the rounding bound delta of the
stored product's, and from the rows, with its bits, when delta cannot vouch
for that route."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from gframes import (
    FamilyValidationError,
    GFrameFamily,
    KHatVector,
    MeasureSpace,
    NumericalRangeError,
    OperatorPair,
    ShapeError,
    canonical_dual,
    classify,
    disjoint_sum_family,
    frame_bounds,
    gamma_family,
    mixed_construction,
    parseval_normalize,
    random_strongly_disjoint_parseval_pair,
    right_compose,
    strongly_disjoint_sum,
    synthesis_kernel_test,
)
from gframes import analysis, model
from gframes._linalg import (
    gram_rounding_bound,
    hermitian_power,
    rank_from_singular_values,
    singular_values,
)
from gframes.analysis import analysis_singular_values, compose_sum, frame_operator
from gframes.model import analysis_matrix, apply_analysis, apply_synthesis

DIM = 6
STEP = model.CHUNK_BYTES // (16 * DIM)  # rows per chunk of a DIM-column family


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pair(rng, rows: int, dims=(DIM, DIM)):
    """Two Gaussian families of unit blocks over one space, ``rows`` atoms each."""
    space = MeasureSpace(rng.uniform(0.5, 2.0, rows))
    return tuple(GFrameFamily.from_rows(space, _cgauss(rng, (rows, d)), (1,) * rows) for d in dims)


def _measured(build):
    """(result of ``build()``, its tracemalloc peak and the memory it leaves held)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, current - start


def _spectral_bytes(fam):
    """The frame report's numbers, the frame operator and sigma(A), as bytes."""
    report = frame_bounds(fam)
    return (
        repr(report.numbers()),
        report.frame_operator.tobytes(),
        analysis_singular_values(fam).tobytes(),
    )


def _delta(fam) -> float:
    """The rounding bound of ``fam``'s Gram: how far its frame operator, and each
    of its eigenvalues, may sit from those of the stored product's."""
    return gram_rounding_bound((fam.codomain_dim, fam.domain_dim), analysis._scale(fam))


def _assert_within_rounding(composed, reference, name):
    """The composed family's frame operator and bounds lie within delta of the
    stored product's, with the same flags."""
    got, want, delta = frame_bounds(composed), frame_bounds(reference), _delta(composed)
    assert np.linalg.norm(got.frame_operator - want.frame_operator, 2) <= delta, name
    for field in ("lower_bound", "upper_bound"):
        assert abs(getattr(got, field) - getattr(want, field)) <= delta, (name, field)
    for field in ("is_frame", "is_tight", "is_parseval"):
        assert getattr(got, field) == getattr(want, field), (name, field)


@contextlib.contextmanager
def _counted_row_reads():
    """A list that records every row chunk read while the block runs: of a product
    part's sources (``model.chunk_rows``) and of the streamed kernels."""
    reads = []

    def counting(fam, rows):
        reads.append(rows)
        return original(fam, rows)

    original = model.chunk_rows
    try:
        model.chunk_rows = analysis.chunk_rows = counting
        yield reads
    finally:
        model.chunk_rows = analysis.chunk_rows = original


@pytest.mark.parametrize(
    "rows",
    [STEP - 7, 10 * STEP + 100, 10 * STEP + 1],
    ids=["one-chunk", "many-chunks", "one-row-last-chunk"],
)
def test_composed_families_match_their_stored_products_bit_for_bit(rows):
    rng = np.random.default_rng(89 + rows)
    lam, theta = _pair(rng, rows)
    # L2 as an adjoint view, the layout the adjoint rule hands over
    l1, l2 = _cgauss(rng, (DIM, DIM)), _cgauss(rng, (DIM, DIM)).conj().T
    pinv = _cgauss(rng, (DIM, DIM))
    dual_rows = lam.rows @ hermitian_power(frame_operator(lam), -1.0)
    cases = {
        "right_compose": (lambda: right_compose(lam, l1), lam.rows @ l1),
        # a sum is the pair family composed with [L1; L2]
        "compose_sum": (
            lambda: compose_sum(lam, theta, l1, l2),
            np.hstack([lam.rows, theta.rows]) @ np.vstack([l1, l2]),
        ),
        "compose_sum-lam-is-theta": (
            lambda: compose_sum(lam, lam, l1, l2),
            np.hstack([lam.rows, lam.rows]) @ np.vstack([l1, l2]),
        ),
        # pseudo_dual's candidate: a composition of a composition
        "nested": (lambda: right_compose(canonical_dual(lam), pinv), dual_rows @ pinv),
    }
    one_chunk = rows < STEP
    assert len(model.row_chunks(rows, DIM)) == (1 if one_chunk else 11)
    for name, (build, product) in cases.items():
        reference = GFrameFamily.from_rows(lam.space, product, lam.block_dims)
        composed = build()
        # the spectral data first, so that it is read from chunks, not stacked rows
        if one_chunk:  # a stored product, bit for bit
            assert _spectral_bytes(composed) == _spectral_bytes(reference), name
        else:  # a frame operator from d x d algebra, within the rounding bound
            _assert_within_rounding(composed, reference, name)
        svals = analysis_singular_values(composed).tobytes()
        assert svals == analysis_singular_values(reference).tobytes(), name
        assert composed.rows.tobytes() == product.tobytes(), name
        assert composed == reference and build().rows.tobytes() == product.tobytes(), name


def test_composing_a_pair_family_leaves_it_unstacked():
    rng = np.random.default_rng(97)
    lam, theta = _pair(rng, 12 * STEP, (DIM, 4))
    gamma = gamma_family(lam, theta)
    frame_bounds(gamma)
    gamma_bytes = lam.rows.nbytes + theta.rows.nbytes
    assert len(model.row_chunks(gamma.codomain_dim, gamma.domain_dim)) >= 10
    l1, l2 = _cgauss(rng, (10, 10)), _cgauss(rng, (10, 10))

    def build():
        dual = canonical_dual(gamma)
        frame_bounds(dual)
        return dual, parseval_normalize(gamma), compose_sum(gamma, gamma, l1, l2)

    (dual, normalized, summed), peak, held = _measured(build)
    # one stacked [A|B] would be gamma_bytes, and each stored result as much again
    assert peak < gamma_bytes / 4 and held < gamma_bytes / 4
    stacked = np.hstack([lam.rows, theta.rows])
    inverse = hermitian_power(frame_operator(gamma), -1.0)
    assert dual.rows.tobytes() == (stacked @ inverse).tobytes()
    doubled = np.hstack([stacked, stacked]) @ np.vstack([l1, l2])
    assert summed.rows.tobytes() == doubled.tobytes()
    assert normalized.rows.shape == stacked.shape and frame_bounds(normalized).is_parseval


@pytest.fixture(scope="module")
def tall_parseval_pair():
    """A strongly disjoint Parseval pair, its reports computed, 12 chunks tall."""
    lam, theta = random_strongly_disjoint_parseval_pair(101, (1,) * (12 * STEP), DIM, DIM)
    assert classify(lam, theta).strongly_disjoint
    return lam, theta


def _strong_sum(lam, theta, rng):
    unitary = np.linalg.qr(_cgauss(rng, (DIM, DIM)))[0]
    return strongly_disjoint_sum(lam, theta, OperatorPair(0.6 * unitary, 0.8 * unitary)).family


def _mixed(lam, theta, rng):
    unitary = np.linalg.qr(_cgauss(rng, (DIM, DIM)))[0]
    return mixed_construction(lam, lam, 2.0 * unitary, unitary / 2.0).family


@pytest.mark.parametrize(
    "construct",
    [
        lambda lam, theta, rng: canonical_dual(lam),
        lambda lam, theta, rng: parseval_normalize(theta),
        _strong_sum,
        _mixed,
    ],
    ids=["canonical_dual", "parseval_normalize", "strongly_disjoint_sum", "mixed_construction"],
)
def test_constructions_on_a_tall_pair_form_no_row_sized_array(construct, tall_parseval_pair):
    lam, theta = tall_parseval_pair
    rng = np.random.default_rng(103)

    def build():
        family = construct(lam, theta, rng)
        frame_bounds(family)
        return family

    family, peak, _ = _measured(build)
    assert family.codomain_dim == 12 * STEP and frame_bounds(family).is_frame
    # a few chunks and the row weights; a stored result alone would be 12 chunks
    assert peak < 5 * model.CHUNK_BYTES


@pytest.mark.parametrize("bounded", [False, True], ids=["no-gram", "finite-gram"])
@pytest.mark.filterwarnings("ignore:.* encountered in matmul:RuntimeWarning")
def test_an_operator_overflowing_some_atoms_names_exactly_their_blocks(bounded):
    rng = np.random.default_rng(107)
    dims = tuple(int(d) for d in rng.integers(1, 4, 6 * STEP))
    space = MeasureSpace(rng.uniform(0.5, 2.0, len(dims)))
    rows = _cgauss(rng, (sum(dims), DIM))
    rows[rng.choice(sum(dims), 9, replace=False)] *= 1e150
    fam = GFrameFamily.from_rows(space, rows, dims)
    if bounded:  # a finite Gram bounds the rows, too loosely to prove the product finite
        assert frame_bounds(fam).is_frame
    operator = 1e200 * np.eye(DIM)
    assert len(model.row_chunks(fam.codomain_dim, DIM)) >= 10
    with pytest.raises(FamilyValidationError) as stored:
        GFrameFamily.from_rows(space, fam.rows @ operator, dims)
    with pytest.raises(FamilyValidationError) as composed:
        right_compose(fam, operator)
    assert composed.value.violations == stored.value.violations
    assert 1 <= len(composed.value.violations) <= 9


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_finite_tall_sum_whose_frame_operator_overflows_is_a_range_error():
    lam, theta = _pair(np.random.default_rng(109), 10 * STEP)
    pair = OperatorPair(1e200 * np.eye(DIM), np.eye(DIM))
    for _ in range(2):
        with pytest.raises(NumericalRangeError, match="frame operator is not finite"):
            disjoint_sum_family(lam, theta, pair)


def test_a_tall_composition_underflows_unless_it_is_zero():
    (lam,) = _pair(np.random.default_rng(113), 10 * STEP, (DIM,))
    tiny = right_compose(lam, 1e-200 * np.eye(DIM))
    with pytest.raises(NumericalRangeError, match="frame operator underflows"):
        frame_bounds(tiny)
    zero = right_compose(lam, np.zeros((DIM, DIM)))
    assert zero.is_zero() and not tiny.is_zero()
    assert not frame_bounds(zero).is_frame and frame_bounds(zero).upper_bound == 0.0


def test_a_composition_of_an_overflowing_source_streams_its_own_frame_operator():
    # the source's frame operator overflows, so the d x d route has no Gram to read,
    # and the composition's frame operator comes from its own rows, with their bits
    (lam,) = _pair(np.random.default_rng(151), 2 * STEP, (DIM,))
    with np.errstate(over="ignore", invalid="ignore"):
        huge = GFrameFamily.from_rows(lam.space, 1e160 * lam.rows, lam.block_dims)
        composed = right_compose(huge, 1e-200 * np.eye(DIM))
        spectral = _spectral_bytes(composed)
        reference = GFrameFamily.from_rows(lam.space, composed.rows, lam.block_dims)
        assert spectral == _spectral_bytes(reference)
        with pytest.raises(NumericalRangeError, match="frame operator is not finite"):
            frame_bounds(huge)


def _strong_sum_and_mixed(lam, theta, rng):
    """The two tall sums of the quadrature benchmark's shape: a strong sum through
    c1 U1, c2 U2, and the mixed construction of lam with itself through a U, U / a;
    with the bound each should have."""
    u1, u2 = (np.linalg.qr(_cgauss(rng, (DIM, DIM)))[0] for _ in range(2))
    c1, c2, a = rng.uniform(0.5, 2.0, 3)
    strong = strongly_disjoint_sum(lam, theta, OperatorPair(c1 * u1, c2 * u2))
    mixed = mixed_construction(lam, lam, a * u1, u1 / a)
    return strong, c1**2 + c2**2, mixed, (a + 1.0 / a) ** 2


def test_tall_sums_read_no_rows_once_their_sources_are_bounded():
    lam, theta = random_strongly_disjoint_parseval_pair(131, (1,) * (12 * STEP), DIM, DIM)
    assert classify(lam, theta).strongly_disjoint  # bounds both, and keeps the cross operator
    with _counted_row_reads() as reads:
        strong, scale, mixed, bound = _strong_sum_and_mixed(lam, theta, np.random.default_rng(137))
    assert reads == []
    assert strong.report.is_tight and abs(strong.report.upper_bound - scale) <= 1e-9 * scale
    assert mixed.sandwich_ok and abs(mixed.upper_bound - bound) <= 1e-9 * bound
    assert abs(mixed.lower_bound - bound) <= 1e-9 * bound


@pytest.mark.parametrize("rank", [DIM - 2, DIM], ids=["rank-deficient", "full-rank"])
def test_a_planted_cancellation_is_decided_from_the_rows(rank):
    """lam @ L1 + lam @ L2 with L2 = -L1 + 2^-33 E: the d x d route cancels to noise,
    so the verdict must come from the rows, and match the dense SVD's rank."""
    rng = np.random.default_rng(139 + rank)
    rows = 10 * STEP
    # small integer entries and a power-of-two perturbation: every product row is exact
    entries = rng.integers(-3, 4, (rows, DIM)) + 1j * rng.integers(-3, 4, (rows, DIM))
    lam = GFrameFamily.from_rows(MeasureSpace(rng.uniform(0.5, 2.0, rows)), entries, (1,) * rows)
    planted = rng.integers(-3, 4, (DIM, rank)) @ rng.integers(-3, 4, (rank, DIM))
    l1 = np.eye(DIM)
    l2 = -l1 + 2.0**-33 * planted
    summed = compose_sum(lam, lam, l1, l2)
    reference = GFrameFamily.from_rows(lam.space, lam.rows @ l1 + lam.rows @ l2, lam.block_dims)
    svals = singular_values(analysis_matrix(reference))
    dense_rank = rank_from_singular_values(svals, (rows, DIM))
    assert dense_rank == rank == np.linalg.matrix_rank(planted)
    assert frame_bounds(summed).is_frame == (dense_rank == DIM)
    _assert_within_rounding(summed, reference, rank)
    # the rounding bound also holds for the d x d Gram that was set aside
    gram, scale = analysis._composed_gram(*model.composition(summed))
    delta = gram_rounding_bound((rows, DIM), max(scale, float(np.linalg.eigvalsh(gram)[-1])))
    assert np.linalg.norm(gram - frame_operator(reference), 2) <= delta


def test_mixed_construction_bounds_both_inputs_before_composing(monkeypatch):
    rng = np.random.default_rng(149)
    (lam,) = _pair(rng, 30_000, (DIM,))
    theta = GFrameFamily.from_rows(lam.space, canonical_dual(lam).rows, lam.block_dims)
    scans = []
    original = GFrameFamily._scan_finite
    monkeypatch.setattr(GFrameFamily, "_scan_finite", lambda fam: scans.append(original(fam)))
    unitary = np.linalg.qr(_cgauss(rng, (DIM, DIM)))[0]
    result = mixed_construction(lam, theta, unitary, unitary)
    assert scans == [] and result.sandwich_ok


def test_mixed_construction_streams_the_pair_cross_operator_once():
    rng = np.random.default_rng(149)
    (lam,) = _pair(rng, 30_000, (DIM,))
    theta = canonical_dual(lam)  # a composition: each of its chunks reads one of lam's
    unitary = np.linalg.qr(_cgauss(rng, (DIM, DIM)))[0]
    with _counted_row_reads() as reads:
        result = mixed_construction(lam, theta, unitary, unitary)
    # one cross pass: a chunk of lam, a chunk of theta and the chunk of lam it reads;
    # theta's Gram and the combined family's come from d x d algebra
    assert len(reads) == 3 * len(model.row_chunks(lam.codomain_dim, DIM))
    assert result.sandwich_ok


def test_a_tall_composition_is_proved_finite_by_the_norms_of_its_terms(monkeypatch):
    rng = np.random.default_rng(163)
    lam, theta = _pair(rng, 10 * STEP)  # stored, with no Gram yet
    scans = []
    original = GFrameFamily._scan_finite
    monkeypatch.setattr(GFrameFamily, "_scan_finite", lambda fam: scans.append(original(fam)))
    l1, l2 = _cgauss(rng, (DIM, DIM)), _cgauss(rng, (DIM, DIM))
    composed = right_compose(lam, l1)
    assert scans == []
    nested = right_compose(canonical_dual(lam), l2)
    summed = compose_sum(lam, theta, l1, l2)
    gamma = gamma_family(lam, theta)
    assert scans == []
    for fam in (lam, composed, nested, summed, gamma, canonical_dual(gamma)):
        assert np.linalg.norm(fam.rows) <= fam._bound * (1 + 1e-12)
    # a bound past the float range is replaced by the norm the scan measures
    huge = GFrameFamily.from_rows(lam.space, 1e200 * lam.rows, lam.block_dims)
    scaled = right_compose(huge, 1e-200 * np.eye(DIM))
    assert huge._bound == math.inf and len(scans) == 1
    assert scaled._bound == pytest.approx(np.linalg.norm(scaled.rows), rel=1e-12)


def test_applying_a_tall_composition_stacks_nothing():
    rng = np.random.default_rng(151)
    (lam,) = _pair(rng, 30_000, (DIM,))
    frame_bounds(lam)
    phi = KHatVector.from_array(_cgauss(rng, lam.codomain_dim), lam.block_dims)
    h = _cgauss(rng, DIM)

    def build():
        dual = canonical_dual(lam)
        return dual, synthesis_kernel_test(dual, phi), apply_analysis(dual, h)

    (dual, in_kernel, applied), _, held = _measured(build)
    # the applied vector is N entries of the 6N the stacked rows would hold
    assert held < lam.rows.nbytes / 4 and not in_kernel
    assert np.allclose(applied.data, dual.rows @ h)


def test_applying_a_one_chunk_family_keeps_its_bits():
    rng = np.random.default_rng(157)
    lam, theta = _pair(rng, STEP // 2 - 7)  # one chunk of the pair family, too
    phi = KHatVector.from_array(_cgauss(rng, lam.codomain_dim), lam.block_dims)
    h = _cgauss(rng, 2 * DIM)
    weights = np.repeat(lam.space.weights, lam.block_dims)
    for fam in (lam, gamma_family(lam, theta)):
        assert len(model.row_chunks(fam.codomain_dim, fam.domain_dim)) == 1
        vector = h[: fam.domain_dim]
        assert apply_analysis(fam, vector).data.tobytes() == (fam.rows @ vector).tobytes()
        image = fam.rows.conj().T @ (phi.data * weights)
        assert apply_synthesis(fam, phi).tobytes() == image.tobytes()


@pytest.mark.parametrize(
    "operator, error, message",
    [
        (np.full((DIM, DIM), np.nan), NumericalRangeError, "operator has non-finite entries"),
        (np.eye(DIM)[:, :0], ShapeError, r"operator must be a non-empty 2-D matrix, got \(6, 0\)"),
    ],
    ids=["nan", "no-columns"],
)
def test_right_compose_reads_its_operator_by_the_operator_rule(operator, error, message):
    (lam,) = _pair(np.random.default_rng(167), 3 * STEP, (DIM,))
    with pytest.raises(error, match=message):
        right_compose(lam, operator)


def test_a_tall_composition_keeps_its_own_copy_of_the_operator():
    rng = np.random.default_rng(173)
    (lam,) = _pair(rng, 20_000, (3,))
    operator = _cgauss(rng, (3, 3))
    product = lam.rows @ operator
    composed = right_compose(lam, operator)
    report = frame_bounds(composed)
    operator[:] = 0  # the caller's array, not the family's
    assert len(model.row_chunks(composed.codomain_dim, 3)) > 1
    assert not composed.is_zero() and composed.rows.tobytes() == product.tobytes()
    assert report.upper_bound == pytest.approx(np.linalg.norm(analysis_matrix(composed), 2) ** 2)


@pytest.mark.parametrize(
    "first, second",
    [
        (((1.0, 1.0, 1.0), (1, 1, 1)), ((5.0, 5.0, 5.0), (1, 1, 1))),
        (((1.0, 1.0), (2, 1)), ((1.0, 1.0), (1, 2))),
        (((1.0, 1.0, 1.0), (1, 1, 1)), ((1.0, 1.0, 1.0, 1.0), (1, 1, 1, 1))),
    ],
    ids=["weights", "block-dims", "row-counts"],
)
def test_a_sum_over_two_target_spaces_is_a_shape_error(first, second):
    lam, theta = (
        GFrameFamily.from_rows(MeasureSpace(weights), np.ones((sum(dims), 2)), dims)
        for weights, dims in (first, second)
    )
    with pytest.raises(ShapeError):
        compose_sum(lam, theta, np.eye(2), np.eye(2))
    with pytest.raises(ShapeError):
        gamma_family(lam, theta)


def test_a_sum_whose_operators_split_the_pair_domain_elsewhere_is_a_shape_error():
    space = MeasureSpace(np.ones(3))
    lam, theta = (
        GFrameFamily.from_rows(space, np.eye(3)[:, cols], (1, 1, 1))
        for cols in (slice(0, 2), slice(1, 3))
    )
    # [L1; L2] is 4 x 2 and acts on the pair family's domain, split 3 + 1 instead of 2 + 2
    with pytest.raises(ShapeError, match="L1 has 3 rows, expected domain_dim 2"):
        compose_sum(lam, theta, np.ones((3, 2)), np.ones((1, 2)))


def test_a_sum_whose_operators_differ_in_width_is_a_shape_error():
    lam = GFrameFamily.from_rows(MeasureSpace(np.ones(3)), np.eye(3)[:, :2], (1, 1, 1))
    with pytest.raises(ShapeError, match=r"^L2 must have L1's 2 columns, got \(2, 3\)$"):
        compose_sum(lam, lam, np.eye(2), np.ones((2, 3)))


def test_a_pair_family_of_a_composition_with_itself_reads_its_derived_gram():
    (lam,) = _pair(np.random.default_rng(179), 30_000, (DIM,))
    dual = canonical_dual(lam)
    assert len(model.row_chunks(dual.codomain_dim, DIM)) == 11
    with _counted_row_reads() as reads:
        gamma = gamma_family(dual, dual)
        pair_gram = frame_operator(gamma)
    assert reads == []
    gram = frame_operator(dual)
    assert np.array_equal(pair_gram, np.block([[gram, gram], [gram, gram]]))


def test_a_sum_of_two_tall_compositions_inherits_their_rounding_scales():
    rng = np.random.default_rng(181)
    lam, theta = _pair(rng, 10 * STEP)
    unitaries = [np.linalg.qr(_cgauss(rng, (DIM, DIM)))[0] for _ in range(4)]
    first, second = right_compose(lam, unitaries[0]), right_compose(theta, unitaries[1])
    for fam in (first, second):
        frame_bounds(fam)
        assert analysis._scale(fam) > frame_bounds(fam).upper_bound  # derived, not streamed
    l1, l2 = 0.6 * unitaries[2], 0.8 * unitaries[3]
    summed = compose_sum(first, second, l1, l2)
    with _counted_row_reads() as reads:
        report = frame_bounds(summed)
    assert reads == [] and report.is_frame  # the sum's Gram, too, is derived
    operator = np.vstack([l1, l2])
    k, m = operator.shape
    inherited = analysis._scale(first) + analysis._scale(second)
    factor = 2.0 * max(1.0, k / m) * np.linalg.norm(operator) ** 2
    assert analysis._scale(summed) >= factor * inherited * (1 - 1e-12)
