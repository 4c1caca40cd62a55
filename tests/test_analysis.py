"""Frame operator, bounds, duals, and cross operators."""

import tracemalloc

import numpy as np
import pytest

from gframes import (
    GFrameFamily,
    MeasureSpace,
    NumericalRangeError,
    PreconditionError,
    ShapeError,
    SingularOperatorError,
    TolerancePolicy,
    analysis_matrix,
    canonical_dual,
    classify,
    cross_operator,
    dual_check,
    frame_bounds,
    frame_check,
    frame_operator,
    gamma_family,
    inner,
    is_dual_pair,
    mixed_construction,
    pair_equivalences,
    parseval_normalize,
    riesz_check,
    riesz_criteria,
    synthesis_matrix,
)
from gframes import analysis, model
from gframes._linalg import (
    gram_certifies_full_column_rank,
    rank_cutoff,
    rank_from_singular_values,
    singular_values,
)
from gframes.analysis import analysis_rank, analysis_singular_values, synthesis_gain
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
    assert rep.lower_bound == 0.0  # fewer rows than columns
    assert rep.upper_bound == pytest.approx(2.0)
    assert not rep.is_frame


def test_a_non_frame_lower_bound_comes_from_the_singular_values(tol):
    """A rank-one family is no frame, and its smallest Gram eigenvalue rounds to
    either side of 0: the lower bound is sigma_d(A)^2 (0 below d rows), never negative."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        rows, domain_dim = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        vectors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (rows, domain_dim)]
        space = MeasureSpace(rng.uniform(0.5, 2.0, rows))
        fam = GFrameFamily.from_rows(space, np.outer(*vectors), (1,) * rows)
        rep = frame_bounds(fam, tol)
        svals = singular_values(analysis_matrix(fam))
        assert not rep.is_frame
        assert rep.lower_bound == (svals[-1] ** 2 if rows >= domain_dim else 0.0)


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


def test_dual_check_forms_one_pairing(monkeypatch, theta_family, tol):
    dual = canonical_dual(theta_family, tol)
    calls = []

    def counting(left, right):
        calls.append((left, right))
        return cross_operator(left, right)

    monkeypatch.setattr(analysis, "cross_operator", counting)
    name, passed, numbers = dual_check("dual-pairing", dual, theta_family, tol)
    assert calls == [(dual, theta_family)]
    assert passed and numbers["identity_defect"] < 1e-12
    assert is_dual_pair(dual, theta_family, tol) and is_dual_pair(theta_family, dual, tol)
    assert len(calls) == 3


def test_frame_check_states_the_frame_report(space2, theta_family, tol):
    zero = GFrameFamily(space=space2, domain_dim=1, blocks=([0.0], [0.0]))
    for fam in (theta_family, zero):
        rep = frame_bounds(fam, tol)
        assert frame_check(fam, tol) == ("is-frame", rep.is_frame, rep.numbers())
    assert frame_check(theta_family, tol)[1] and not frame_check(zero, tol)[1]


def test_defining_inequality_and_norm_bound_on_random_frames(tol):
    rng = np.random.default_rng(17)
    for _ in range(20):
        fam = _random_frame(rng)
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
        fam = _random_frame(rng)
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
        fam = _random_frame(rng)
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


@pytest.mark.parametrize(
    "weights, blocks",
    [([1e-320, 1e-320], ([1.0], [1.0])), ([1.0, 1.0], ([1e-160], [1e-160]))],
    ids=["weights", "entries"],
)
def test_underflowing_frame_operator_raises(weights, blocks):
    fam = GFrameFamily(space=MeasureSpace(weights), domain_dim=1, blocks=blocks)
    for operation in (frame_bounds, frame_operator, canonical_dual, riesz_check):
        with pytest.raises(NumericalRangeError, match="frame operator underflows"):
            operation(fam)


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
    assert first is second and first.range_sum_dim == 5
    # the Gram eigenvalues certify every rank: no tall matrix is decomposed and
    # [A|B] is never stacked; only the 3 x 2 cross operator's norm takes an SVD,
    # and the second call decomposes nothing
    assert svds == [(3, 2)]
    # once per family, and once for the 5 x 5 pair Gram
    assert eigs == [(2, 2), (3, 3), (5, 5)]


def _uncertified_pair():
    """Two frames over 6 unit-block atoms (domains 2 and 3) whose ranges share
    the direction of the first one's first column."""
    rng = np.random.default_rng(5)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 6))
    f = GFrameFamily.from_rows(space, rng.standard_normal((6, 2)) + 1j, (1,) * 6)
    g_rows = np.column_stack([f.rows[:, 0], rng.standard_normal((6, 2)) - 1j])
    return f, GFrameFamily.from_rows(space, g_rows, (1,) * 6)


def test_uncertified_pair_falls_back_to_the_svd_of_the_stacked_matrix(monkeypatch):
    f, g = _uncertified_pair()
    svds = _count_linalg_calls(monkeypatch, "svd")
    report = classify(f, g)
    assert report.range_intersection_dim == 1 and not report.weakly_disjoint
    assert svds.count((6, 5)) == 1
    assert svds.count((6, 2)) == 0 and svds.count((6, 3)) == 0


def test_pair_theorems_decompose_an_uncertified_pair_once(monkeypatch):
    f, g = _uncertified_pair()
    svds = _count_linalg_calls(monkeypatch, "svd")
    eigs = _count_linalg_calls(monkeypatch, "eigvalsh")
    report, gamma, checks = pair_equivalences(f, g)
    assert all(passed for _, passed, _ in checks) and not report.disjoint
    assert not frame_bounds(gamma).is_frame and analysis_rank(gamma) == 4
    # the pair family reads the pair Gram's eigenvalues and sigma([A|B]) from
    # the record that classify filled: the cross operator's norm and [A|B] are
    # decomposed once, and each Gram once
    assert svds == [(3, 2), (6, 5)]
    assert eigs == [(2, 2), (3, 3), (5, 5)]


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
    assert riesz_criteria(square) == (True, True)
    # only sigma(A), which is sigma of the synthesis matrix: the frame verdict
    # was certified from the frame operator
    assert svds == [(3, 3)]
    assert riesz_criteria(tall) == (False, False)
    # the tall analysis matrix's rank is certified from the frame operator and
    # the wide synthesis matrix has a kernel: neither is decomposed
    assert len(svds) == 1
    svds.clear()
    result = mixed_construction(tall, dual, np.eye(2), np.eye(2))
    assert result.criteria_agree and not result.riesz_report.is_riesz_type
    # only the norms of L1 and L2: the combined family's rank is certified, and
    # the tall combined analysis and wide combined synthesis matrices are not
    # decomposed
    assert svds == [(2, 2), (2, 2)]


def _planted_family(rng, rows: int, svals: np.ndarray) -> GFrameFamily:
    """Family whose analysis matrix has the singular values ``svals``."""
    cols = svals.size
    u, v = (
        np.linalg.qr(rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols)))[0]
        for n in (rows, cols)
    )
    weights = rng.uniform(0.5, 2.0, rows)
    a = (u * svals) @ v.conj().T / np.sqrt(weights)[:, None]
    return GFrameFamily.from_rows(MeasureSpace(weights), a, (1,) * rows)


def svd_rank(matrix) -> int:
    return rank_from_singular_values(singular_values(matrix), matrix.shape)


def _svd_rank_reference(fam: GFrameFamily) -> int:
    return svd_rank(analysis_matrix(fam))


def test_analysis_rank_matches_the_svd_on_planted_spectra(tol):
    rng = np.random.default_rng(23)
    certified = set()
    for kappa in np.logspace(0, 16, 17):
        for rows, cols in ((1, 1), (7, 7), (48, 24), (300, 48), (3000, 8), (2500, 48)):
            # singular values spread from 1 down to 1/kappa, or all 1 but the last
            spread = np.geomspace(1.0, 1.0 / kappa, cols)
            for svals in (spread, np.append(np.ones(cols - 1), 1.0 / kappa)):
                fam = _planted_family(rng, rows, svals)
                assert analysis_rank(fam, tol) == _svd_rank_reference(fam), (rows, svals)
                rep = frame_bounds(fam, tol)
                bounds = (rep.lower_bound, rep.upper_bound)
                certified.add(gram_certifies_full_column_rank(*bounds, (rows, cols)))
    # both the eigenvalue certificate and the SVD fallback were exercised
    assert certified == {True, False}


def test_analysis_rank_of_a_tall_family_matches_the_svd(tol):
    fam = _planted_family(np.random.default_rng(29), 20_000, np.geomspace(1.0, 1e-3, 12))
    assert analysis_rank(fam, tol) == _svd_rank_reference(fam) == 12


def test_every_rank_verdict_reads_the_singular_values_near_the_cutoff(tol):
    # sigma(A) = (1, s) while the frame operator's eigenvalues are (1, s^2): every
    # s clears the singular-value cutoff, but most s^2 sit below the eigenvalue one
    space = MeasureSpace([1.0, 1.0, 1.0])
    raised = 0
    for s in np.logspace(-9, -7, 41):
        fam = GFrameFamily(space, 2, ([[1.0, 0.0]], [[0.0, s]], [[0.0, 0.0]]))
        rep = frame_bounds(fam, tol)
        assert rep.is_frame and analysis_rank(fam, tol) == 2, s
        assert svd_rank(analysis_matrix(fam)) == 2, s
        sigma_min = singular_values(analysis_matrix(fam))[-1]
        assert rep.lower_bound == pytest.approx(sigma_min**2, rel=1e-12, abs=0.0), s
        # a frame whose S = diag(1, s^2) holds no digit of its inverse is a
        # range error, never a singular operator
        invertible = s**2 > rank_cutoff((2, 2), 1.0)
        for operation, verdict in (
            (canonical_dual, lambda dual: is_dual_pair(dual, fam, tol)),
            (parseval_normalize, lambda normalized: frame_bounds(normalized, tol).is_parseval),
        ):
            if invertible:
                assert verdict(operation(fam, tol)), s
            else:
                with pytest.raises(NumericalRangeError, match="cannot be inverted"):
                    operation(fam, tol)
                raised += 1
    assert raised == 2 * 37


def test_synthesis_gain_states_bounded_below_once_near_the_cutoff(tol):
    rng = np.random.default_rng(37)
    cutoff = rank_cutoff((3, 3), 1.0)
    for smallest in (4.0 * cutoff, 0.25 * cutoff):
        fam = _planted_family(rng, 3, np.array([1.0, 0.5, smallest]))
        gain, onto = synthesis_gain(fam)
        assert onto == (svd_rank(synthesis_matrix(fam)) == 3) == (smallest > cutoff)
        assert gain == singular_values(analysis_matrix(fam))[-1]
        # the Riesz routes take the frame verdict first, then read the same sigma
        if onto:
            assert riesz_criteria(fam, tol) == (True, True)
        else:
            with pytest.raises(PreconditionError, match="not a frame"):
                riesz_criteria(fam, tol)


def test_other_tolerance_values_get_their_own_frame_report():
    fam = GFrameFamily(MeasureSpace([1.0, 1.0]), 2, ([[1.0, 0.0]], [[0.0, 1.0 + 1e-6]]))
    report = frame_bounds(fam)
    assert frame_bounds(fam) is report
    assert frame_bounds(fam, TolerancePolicy()) is report
    loose = frame_bounds(fam, TolerancePolicy(rel_eps=1e-3))
    assert loose is not report
    assert not report.is_tight and loose.is_tight
    assert frame_bounds(fam, TolerancePolicy(rel_eps=1e-6)) is not report
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


def _ragged_pair(rng, atoms: int, dim_a: int, dim_b: int):
    """Two complex families with blocks of 1-4 rows over one varied-weight space."""
    dims = tuple(int(d) for d in rng.integers(1, 5, atoms))
    space = MeasureSpace(rng.uniform(0.1, 5.0, atoms))

    def rows(dim):
        return rng.standard_normal((sum(dims), dim)) + 1j * rng.standard_normal((sum(dims), dim))

    return (GFrameFamily.from_rows(space, rows(dim), dims) for dim in (dim_a, dim_b))


def _relative_error(actual, expected) -> float:
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


@pytest.mark.parametrize("chunk_bytes", [model.CHUNK_BYTES, 16 * 6 * 7])
def test_streamed_gram_and_cross_match_the_dense_products(chunk_bytes, monkeypatch):
    monkeypatch.setattr(model, "CHUNK_BYTES", chunk_bytes)
    lam, theta = _ragged_pair(np.random.default_rng(61), 3000, 6, 4)
    # more rows than one chunk of either family
    assert lam.rows.shape[0] > model.CHUNK_BYTES // (16 * lam.domain_dim)
    a, b = analysis_matrix(lam), analysis_matrix(theta)
    for fam, dense in ((lam, a), (theta, b)):
        gram = frame_operator(fam)
        assert _relative_error(gram, dense.conj().T @ dense) <= 1e-13
        # summed in real arithmetic from a symmetric update: Hermitian to the bit
        assert np.array_equal(gram, gram.conj().T)
    assert _relative_error(cross_operator(theta, lam), b.conj().T @ a) <= 1e-13
    assert _relative_error(cross_operator(lam, theta), a.conj().T @ b) <= 1e-13
    pair_gram = frame_operator(gamma_family(lam, theta))
    assert np.array_equal(pair_gram, pair_gram.conj().T)


def test_bounds_and_classify_form_no_row_sized_temporary():
    rng = np.random.default_rng(67)
    lam, theta = _ragged_pair(rng, 40_000, 8, 8)
    assert lam.rows.shape[0] > 90_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert frame_bounds(lam).is_frame and frame_bounds(theta).is_frame
        assert classify(lam, theta).disjoint
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # one N x d analysis matrix would be lam.rows.nbytes
    assert peak < lam.rows.nbytes / 4


@pytest.mark.parametrize("factor", [None, 0.5, 2.0], ids=["shared-column", "0.5x", "2x"])
def test_streamed_singular_values_match_the_dense_svd(factor, tol):
    # a family of 12 columns over many row chunks and its column split (lam, theta):
    # theta's first column is lam's fourth, or sigma_min is planted at a multiple
    # of the rank cutoff; neither Gram can certify a full rank
    rows, dim = 100_000, 12
    rng = np.random.default_rng(73)
    if factor is None:
        planted = _planted_family(rng, rows, np.linspace(1.0, 0.5, dim))
        stacked = planted.rows.copy()
        stacked[:, 7] = stacked[:, 3]
        fam = GFrameFamily.from_rows(planted.space, stacked, planted.block_dims)
    else:
        smallest = factor * rank_cutoff((rows, dim), 1.0)
        fam = _planted_family(rng, rows, np.append(np.linspace(1.0, 0.5, dim - 1), smallest))
    lam, theta = (
        GFrameFamily.from_rows(fam.space, np.ascontiguousarray(fam.rows[:, cols]), fam.block_dims)
        for cols in (slice(0, 7), slice(7, None))
    )
    assert len(model.row_chunks(rows, dim)) > 50
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        streamed = analysis_singular_values(fam)
        report = classify(lam, theta, tol)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    gamma = gamma_family(lam, theta)
    # classify counted sigma([A|B]) into the record, the pair family's memo
    assert "singular_values" in gamma._memo
    stacked = np.hstack([analysis_matrix(lam), analysis_matrix(theta)])
    expected_rank = dim if factor == 2.0 else dim - 1
    for svals, dense in (
        (streamed, singular_values(analysis_matrix(fam))),
        (analysis_singular_values(gamma), singular_values(stacked)),
    ):
        assert np.abs(svals - dense).max() <= 1e-13 * dense[0]
        ranks = {rank_from_singular_values(s, (rows, dim)) for s in (svals, dense)}
        assert ranks == {expected_rank}
    assert report.range_sum_dim == analysis_rank(fam, tol) == expected_rank
    # the dense route would form one N x d analysis matrix: fam.rows.nbytes
    assert peak < fam.rows.nbytes / 4
