"""Composed families: the results of ``right_compose`` and ``compose_sum`` taller
than one row chunk make their rows a chunk at a time, with the bits, bounds,
singular values and validation errors of the stored product."""

import tracemalloc

import numpy as np
import pytest

from gframes import (
    FamilyValidationError,
    GFrameFamily,
    MeasureSpace,
    NumericalRangeError,
    OperatorPair,
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
)
from gframes import model
from gframes._linalg import hermitian_power
from gframes.analysis import analysis_singular_values, frame_operator
from gframes.model import compose_sum

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
    dual_rows = lam.rows @ hermitian_power(frame_operator(lam), -1.0, model.DEFAULT_TOL)
    cases = {
        "right_compose": (lambda: right_compose(lam, l1), lam.rows @ l1),
        "compose_sum": (lambda: compose_sum(lam, theta, l1, l2), lam.rows @ l1 + theta.rows @ l2),
        "compose_sum-lam-is-theta": (
            lambda: compose_sum(lam, lam, l1, l2),
            lam.rows @ l1 + lam.rows @ l2,
        ),
        # pseudo_dual's candidate: a composition of a composition
        "nested": (lambda: right_compose(canonical_dual(lam), pinv), dual_rows @ pinv),
    }
    assert len(model.row_chunks(rows, DIM)) == (1 if rows < STEP else 11)
    for name, (build, product) in cases.items():
        reference = GFrameFamily.from_rows(lam.space, product, lam.block_dims)
        composed = build()
        # the spectral data first, so that it is read from chunks, not stacked rows
        assert _spectral_bytes(composed) == _spectral_bytes(reference), name
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
    inverse = hermitian_power(frame_operator(gamma), -1.0, model.DEFAULT_TOL)
    assert dual.rows.tobytes() == (stacked @ inverse).tobytes()
    assert summed.rows.tobytes() == (stacked @ l1 + stacked @ l2).tobytes()
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
