"""The five disjointness relations and the pair-family equivalences."""

import dataclasses
import gc
import itertools
import os
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from gframes import (
    GFrameFamily,
    MeasureSpace,
    NumericalRangeError,
    PreconditionError,
    ShapeError,
    SingularOperatorError,
    analysis_matrix,
    classify,
    cross_operator,
    delta_family,
    family_from_analysis_matrix,
    frame_bounds,
    frame_operator,
    gamma_family,
    load_document,
    pair_equivalences,
    riesz_check,
    right_compose,
    strong_disjointness_converse_check,
)
from gframes import _linalg, model, verification
from gframes._linalg import rank_from_singular_values, singular_values
from gframes.analysis import analysis_rank

PAIR_DOC = os.path.join(os.path.dirname(__file__), "..", "samples", "pair.json")

GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0


def test_classify_strongly_complementary(lam_family, ortho_family):
    report = classify(lam_family, ortho_family)
    assert report.strongly_disjoint
    assert report.disjoint and report.weakly_disjoint
    assert report.complementary_pair and report.strongly_complementary_pair
    assert report.cross_operator_norm == pytest.approx(0.0, abs=1e-15)
    assert report.range_intersection_dim == 0
    assert report.range_sum_dim == 2 == report.khat_dim


def test_classify_disjoint_not_strong(lam_family, theta_family):
    report = classify(lam_family, theta_family)
    assert not report.strongly_disjoint
    assert report.disjoint and report.weakly_disjoint
    assert report.complementary_pair and not report.strongly_complementary_pair
    assert report.cross_operator_norm == pytest.approx(1.0)


def test_classify_identical_family_not_weakly_disjoint(theta_family):
    report = classify(theta_family, theta_family)
    assert not report.weakly_disjoint
    assert not report.disjoint and not report.strongly_disjoint
    assert report.range_intersection_dim == 1


def test_strongly_complementary_needs_a_complementary_pair(theta_family, monkeypatch):
    # at rel_eps = 10 theta is strongly disjoint from itself (cross norm 2 against
    # 10 * 2), while its two ranges meet in one dimension: never complementary
    monkeypatch.setattr(_linalg, "REL_EPS", 10.0)
    report = classify(theta_family, theta_family)
    assert report.strongly_disjoint and not report.complementary_pair
    assert not report.strongly_complementary_pair


def test_classify_rejects_non_frame(lam_family):
    zero = GFrameFamily(space=lam_family.space, domain_dim=1, blocks=([0.0], [0.0]))
    with pytest.raises(PreconditionError):
        classify(lam_family, zero)


def test_classify_rejects_mismatched_block_dims(lam_family):
    other = GFrameFamily(
        space=lam_family.space, domain_dim=1, blocks=([[1.0], [0.0]], [1.0])
    )
    with pytest.raises(ShapeError):
        classify(lam_family, other)


def test_gamma_of_strongly_complementary_pair_is_parseval(lam_family, ortho_family):
    gamma = gamma_family(lam_family, ortho_family)
    assert np.allclose(gamma.blocks[0], [[1.0, 0.0]])
    assert np.allclose(gamma.blocks[1], [[0.0, 1.0]])
    assert frame_bounds(gamma).is_parseval


def test_gamma_bounds_match_hand_computation(lam_family, theta_family):
    rep = frame_bounds(gamma_family(lam_family, theta_family))
    assert rep.lower_bound == pytest.approx(GOLDEN[0], rel=1e-9)
    assert rep.upper_bound == pytest.approx(GOLDEN[1], rel=1e-9)
    assert rep.is_frame


def test_gamma_of_identical_family_is_not_a_frame(theta_family):
    assert not frame_bounds(gamma_family(theta_family, theta_family)).is_frame


def test_delta_equals_gamma_for_parseval_inputs(lam_family, ortho_family):
    delta = delta_family(lam_family, ortho_family)
    gamma = gamma_family(lam_family, ortho_family)
    for a, b in zip(delta.blocks, gamma.blocks):
        assert np.allclose(a, b)
    assert frame_bounds(delta).is_parseval


def test_delta_normalizes_scaled_input(space2, ortho_family):
    scaled = GFrameFamily(space=space2, domain_dim=1, blocks=([np.sqrt(2.0)], [0.0]))
    delta = delta_family(scaled, ortho_family)
    assert np.allclose(delta.blocks[0], [[1.0, 0.0]])
    assert np.allclose(delta.blocks[1], [[0.0, 1.0]])
    assert frame_bounds(delta).is_parseval


def test_delta_rejects_non_frame_input(lam_family):
    zero = GFrameFamily(space=lam_family.space, domain_dim=1, blocks=([0.0], [0.0]))
    with pytest.raises(SingularOperatorError):
        delta_family(lam_family, zero)


def test_delta_keeps_cross_term_for_non_strong_pair(lam_family, theta_family):
    delta = delta_family(lam_family, theta_family)
    assert not np.allclose(frame_operator(delta), np.eye(2), atol=1e-12)
    assert not frame_bounds(delta).is_parseval


def test_converse_check_accepts_canonical_witnesses(lam_family, ortho_family):
    assert strong_disjointness_converse_check(lam_family, ortho_family, np.eye(1), np.eye(1))


def test_converse_check_rejects_scaled_witness(lam_family, ortho_family):
    assert not strong_disjointness_converse_check(
        lam_family, ortho_family, 2.0 * np.eye(1), np.eye(1)
    )


def test_converse_check_rejects_non_strong_pair(lam_family, theta_family):
    rng = np.random.default_rng(3)
    for _ in range(5):
        l1 = np.array([[rng.uniform(0.5, 2.0)]])
        l2 = np.array([[rng.uniform(0.5, 2.0)]])
        assert not strong_disjointness_converse_check(lam_family, theta_family, l1, l2)


def test_converse_check_rejects_singular_operator(lam_family, ortho_family):
    with pytest.raises(PreconditionError):
        strong_disjointness_converse_check(lam_family, ortho_family, np.zeros((1, 1)), np.eye(1))


def test_kernel_triviality(lam_family, ortho_family, theta_family):
    # in finite dimension a trivial kernel of the analysis map is the frame verdict:
    # each family that is no frame has a nonzero vector that every block annihilates
    assert frame_bounds(gamma_family(lam_family, ortho_family)).is_frame
    single = GFrameFamily(space=MeasureSpace([1.0]), domain_dim=2, blocks=([[1.0, 0.0]],))
    for fam, kernel in (
        (gamma_family(theta_family, theta_family), [1.0, -1.0]),
        (single, [0.0, 1.0]),
    ):
        assert not frame_bounds(fam).is_frame
        assert not any(np.any(block @ kernel) for block in fam.blocks)


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


def svd_rank(matrix) -> int:
    return rank_from_singular_values(singular_values(matrix), matrix.shape)


def test_classify_ranks_match_the_svd_of_the_stacked_matrix():
    rng = np.random.default_rng(31)
    for shared in range(4):
        for rows, dim_a, dim_b in ((12, 3, 4), (40, 5, 5), (400, 8, 12), (1500, 24, 24)):
            lam, theta = _pair_with_intersection(rng, rows, dim_a, dim_b, shared)
            a, b = analysis_matrix(lam), analysis_matrix(theta)
            report = classify(lam, theta)
            rank_ab = svd_rank(np.hstack([a, b]))
            intersection = svd_rank(a) + svd_rank(b) - rank_ab
            assert report.range_sum_dim == rank_ab, (rows, shared)
            assert report.range_intersection_dim == intersection == shared, (rows, shared)
            assert report.weakly_disjoint == report.disjoint == (shared == 0)


def test_intersection_dim_matches_the_dense_svd_on_drawn_pairs():
    # classify reads rank [A|B] from Gram certificates and streamed factors; the
    # reference is the dense SVD rank of A, of B and of the stacked [A|B], as in
    # verify's pair checks
    sample = list(load_document(PAIR_DOC).families.values())
    rng = np.random.default_rng(1802)
    drawn = [verification._random_pair(rng) for _ in range(400)]
    # case 37 of run_suite(5, ...)'s pair-frame-iff-disjoint (check 8): identical
    # 8 x 7 ranges of condition number 122, which orthonormal range bases
    # computed apart meet in 6
    suite_rng = np.random.default_rng(np.random.SeedSequence(5).spawn(24)[8])
    ill = [verification._random_pair(suite_rng) for _ in range(38)][-1]
    assert [analysis_matrix(fam).shape for fam in ill] == [(8, 7), (8, 7)]
    found = []
    for lam, theta in [*itertools.product(sample, repeat=2), *drawn, ill]:
        a, b = analysis_matrix(lam), analysis_matrix(theta)
        expected = svd_rank(a) + svd_rank(b) - svd_rank(np.hstack([a, b]))
        assert classify(lam, theta).range_intersection_dim == expected
        found.append(expected)
    assert min(found) == 0 and max(found) >= 2 and found[-1] == 7


def test_identical_ranges_meet_in_full():
    # a frame and its invertible right composition share one range at any
    # conditioning; orthonormal bases of the two ranges, computed apart, differ by
    # about eps times the condition number, so rank [Q_A | Q_B] is no reference here
    rng = np.random.default_rng(2803)
    for draw in range(200):
        dims = verification._random_dims(rng)
        space = MeasureSpace(rng.uniform(0.5, 2.0, len(dims)))
        domain = int(rng.integers(1, sum(dims) + 1))
        # sigma_min / sigma_max = 1e-3 on generic singular vectors
        u = np.linalg.qr(_cgauss(rng, (sum(dims), domain)))[0]
        v = np.linalg.qr(_cgauss(rng, (domain, domain)))[0]
        lam = family_from_analysis_matrix((u * np.geomspace(1.0, 1e-3, domain)) @ v, space, dims)
        theta = right_compose(lam, verification._random_operator(rng, domain, domain))
        assert classify(lam, theta).range_intersection_dim == domain, draw


def _memo_contents(value):
    """The arrays reachable from a memo value, failing on any family reached."""
    assert not isinstance(value, GFrameFamily)
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _memo_contents(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _memo_contents(getattr(value, field.name))


def test_pair_memo_holds_no_tall_matrix_and_keeps_no_partner_alive():
    lam, theta = _pair_with_intersection(np.random.default_rng(43), 60, 2, 3, 1)
    report = classify(lam, theta)
    gamma = gamma_family(lam, theta)
    assert not frame_bounds(gamma).is_frame and analysis_rank(gamma) == 4
    cross_operator(lam, theta), cross_operator(theta, lam), cross_operator(lam, lam)
    for memo in (lam._memo, theta._memo, gamma._memo):
        # everything is d x d-sized, sigma([A|B]) included: no axis reaches N
        assert max(max(a.shape, default=0) for a in _memo_contents(memo)) <= 5
    partner = weakref.ref(theta)
    del theta
    gc.collect()
    assert partner() is None
    # the dead partner's entry is dropped; the pair family keeps its numbers
    assert not any(isinstance(key, tuple) and key[0] == "pair" for key in lam._memo)
    assert analysis_rank(gamma) == 4 and report.range_intersection_dim == 1


def test_pair_family_outlives_its_pair():
    lam, theta = _pair_with_intersection(np.random.default_rng(47), 50, 3, 2, 0)
    stacked = GFrameFamily.from_rows(lam.space, np.hstack([lam.rows, theta.rows]), lam.block_dims)
    gamma = gamma_family(lam, theta)
    assert gamma == stacked
    refs = weakref.ref(lam), weakref.ref(theta)
    del lam, theta
    gc.collect()
    assert all(ref() is None for ref in refs)
    # the same frame operator (to rounding) and verdicts as the N x 2d product
    op, expected_op = frame_operator(gamma), frame_operator(stacked)
    assert np.linalg.norm(op - expected_op) <= 1e-13 * np.linalg.norm(expected_op)
    rep, expected = frame_bounds(gamma), frame_bounds(stacked)
    assert (rep.is_frame, rep.is_tight) == (expected.is_frame, expected.is_tight) == (True, False)
    assert rep.lower_bound == pytest.approx(expected.lower_bound, rel=1e-12)


def test_pair_family_gram_holds_the_conjugate_cross_block():
    rng = np.random.default_rng(59)
    space = MeasureSpace(rng.uniform(0.5, 2.0, 40))
    lam, theta = (GFrameFamily.from_rows(space, _cgauss(rng, (40, d)), (1,) * 40) for d in (3, 2))
    # a generic complex pair, far from strongly disjoint: C = B^H A is not small
    cross = cross_operator(theta, lam)
    scale = np.sqrt(frame_bounds(lam).upper_bound * frame_bounds(theta).upper_bound)
    assert np.linalg.norm(cross.imag) > 0.1 * scale
    stacked = np.hstack([analysis_matrix(lam), analysis_matrix(theta)])
    expected = stacked.conj().T @ stacked
    op = frame_operator(gamma_family(lam, theta))
    assert np.linalg.norm(op - expected) <= 1e-13 * np.linalg.norm(expected)


def _threshold_pair(multiple):
    """A pair with bounds B_lam = 4 and B_theta = 9, so that the strong-disjointness
    threshold is rel_eps * 6, and cross operator C = 6 c, c = ``multiple`` rel_eps e^0.7i."""
    c = multiple * _linalg.REL_EPS * np.exp(0.7j)
    space = MeasureSpace([1.0, 1.0])
    lam = GFrameFamily(space, 1, ([2.0], [0.0]))
    return lam, GFrameFamily(space, 1, ([3.0 * c], [3.0 * np.sqrt(1.0 - abs(c) ** 2)]))


@pytest.mark.parametrize("multiple, strongly", [(0.5, True), (2.0, False)])
def test_strong_disjointness_flips_at_its_threshold(multiple, strongly):
    lam, theta = _threshold_pair(multiple)
    assert frame_bounds(lam).upper_bound == 4.0
    assert frame_bounds(theta).upper_bound == pytest.approx(9.0, rel=1e-15)
    report = classify(lam, theta)
    assert report.cross_operator_norm == pytest.approx(multiple * 6.0 * _linalg.REL_EPS, rel=1e-12)
    assert report.strongly_disjoint is strongly
    assert report.disjoint and report.weakly_disjoint


def _memo_entries(*families) -> dict:
    """Every memo entry of ``families``, the entries of their pair records included."""
    entries = {}
    for fam in families:
        for key, value in fam._memo.items():
            if isinstance(key, tuple) and key[0] == "pair":
                entries.update({(id(fam), key, name): item for name, item in value[1].items()})
            else:
                entries[id(fam), key] = value
    return entries


def test_no_verdict_outlives_the_tolerance(monkeypatch):
    # a family whose bounds differ by 1e-6 relatively and a pair whose cross norm is
    # twice the strong-disjointness threshold, both asked at the default tolerance first
    fam = GFrameFamily(MeasureSpace([1.0, 1.0]), 2, ([[1.0, 0.0]], [[0.0, 1.0 + 1e-6]]))
    lam, theta = _threshold_pair(2.0)
    report = frame_bounds(fam)
    assert not report.is_tight and not classify(lam, theta).strongly_disjoint
    memo = _memo_entries(fam, lam, theta)
    # the same objects under a planted tolerance: both verdicts follow it
    monkeypatch.setattr(_linalg, "REL_EPS", 1e-3)
    loose = frame_bounds(fam)
    assert loose.is_tight and classify(lam, theta).strongly_disjoint
    assert (loose.lower_bound, loose.upper_bound) == (report.lower_bound, report.upper_bound)
    # and read the memo as it was: no entry was added or replaced for the new value
    after = _memo_entries(fam, lam, theta)
    assert after.keys() == memo.keys() and all(after[key] is memo[key] for key in memo)


def test_a_new_partner_gets_its_own_report_even_under_a_reused_id(monkeypatch):
    rng = np.random.default_rng(53)
    lam, theta = _pair_with_intersection(rng, 30, 2, 2, 0)
    shared_rows = np.column_stack([lam.rows[:, 0], theta.rows[:, 1]])
    shared = GFrameFamily.from_rows(lam.space, shared_rows, lam.block_dims)
    first = classify(lam, theta)
    assert first.disjoint and first == classify(lam, theta)
    # the reference: a fresh copy of the pair, whose ids nothing else shares
    copies = [GFrameFamily.from_rows(f.space, f.rows.copy(), f.block_dims) for f in (shared, lam)]
    expected = cross_operator(*copies)
    # every partner of every family under one key, as when an id is reused
    monkeypatch.setattr(model, "id", lambda obj: 0, raising=False)
    for _ in range(2):
        other = classify(lam, shared)
        assert other.range_intersection_dim == 1 and not other.disjoint
        assert classify(lam, theta).disjoint
        assert np.array_equal(cross_operator(shared, lam), expected)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_pair_family_range_errors_follow_its_own_frame_operator():
    space = MeasureSpace([1.0, 1.0])
    normal = GFrameFamily(space, 1, ([1.0], [1.0]))
    tiny = GFrameFamily(space, 1, ([1e-160], [1e-160]))
    huge = GFrameFamily(space, 1, ([1e200], [1.0]))
    # building the pair family never raises: its frame operator does
    overflowing = gamma_family(huge, normal)
    for _ in range(2):
        with pytest.raises(NumericalRangeError, match="frame operator is not finite"):
            frame_bounds(overflowing)
    # a tiny family underflows alone, not beside a normal one
    with pytest.raises(NumericalRangeError, match="frame operator underflows"):
        frame_operator(tiny)
    assert frame_bounds(gamma_family(tiny, normal)).upper_bound == pytest.approx(2.0)
    with pytest.raises(NumericalRangeError, match="frame operator underflows"):
        frame_bounds(gamma_family(tiny, tiny))


def test_a_tall_pair_family_is_stacked_only_when_its_rows_are_asked_for():
    rng = np.random.default_rng(79)
    atoms = 24_000
    dims = tuple(int(d) for d in rng.integers(1, 5, atoms))
    space = MeasureSpace(rng.uniform(0.5, 2.0, atoms))
    lam, theta = (GFrameFamily.from_rows(space, _cgauss(rng, (sum(dims), d)), dims) for d in (6, 4))
    gamma_bytes = lam.rows.nbytes + theta.rows.nbytes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gamma = gamma_family(lam, theta)
        report = frame_bounds(gamma)
        riesz = riesz_check(gamma)
        relations, _, checks = pair_equivalences(lam, theta)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.is_frame and not riesz.is_riesz_type and relations.disjoint
    assert all(passed for _, passed, _ in checks)
    # the Gram certified every rank: no singular value was computed
    assert "singular_values" not in gamma._memo
    # one stacked copy of [A|B] would be gamma_bytes
    assert peak < gamma_bytes / 4
    assert (gamma.codomain_dim, gamma.domain_dim) == (sum(dims), 10)
    stacked = np.hstack([lam.rows, theta.rows])
    assert gamma.rows.tobytes() == stacked.tobytes() and gamma.rows.shape == stacked.shape
    assert np.vstack(gamma.blocks).tobytes() == stacked.tobytes()
    assert gamma == GFrameFamily.from_rows(space, stacked, dims)
    copied = pickle.loads(pickle.dumps(gamma))
    assert copied.rows.tobytes() == stacked.tobytes() and copied == gamma
    # a product streamed from the parts, in their order: the pair family's cross operator
    dense = analysis_matrix(gamma).conj().T @ analysis_matrix(lam)
    assert np.linalg.norm(cross_operator(gamma, lam) - dense) <= 1e-13 * np.linalg.norm(dense)
    # a pair family of a pair family reads the parts of both
    nested = gamma_family(gamma, lam)
    assert nested.rows.tobytes() == np.hstack([stacked, lam.rows]).tobytes()
