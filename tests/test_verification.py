"""Instance generators of the ``verify`` suite and its per-case driver.

Every instance is conditioned by construction, so each generator property is
asserted on every draw, and a check that raises is reported as the failure of
its case instead of ending the suite.
"""

import copy
import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from gframes import (
    DEFAULT_TOL,
    PreconditionError,
    TolerancePolicy,
    analysis,
    analysis_matrix,
    classify,
    disjointness,
    frame_bounds,
    model,
    pair_equivalences,
    riesz,
    right_compose,
    verification,
)
from gframes import _linalg
from gframes._linalg import hermitize, rank_from_singular_values, singular_values
from gframes.cli import run_command
from gframes.verification import (
    _MAX_CONDITION,
    _frame_over,
    _per_case,
    _random_disjoint_equal_domain,
    _random_fit_or_overcomplete_frame,
    _random_frame,
    _random_operator,
    _random_pair,
    _random_strongly_disjoint,
    run_suite,
)

import test_analysis
import test_composed
import test_disjointness

DRAWS = 300


def _within_condition_bound(fam, tol) -> bool:
    rep = frame_bounds(fam, tol)
    return rep.is_frame and rep.upper_bound <= _MAX_CONDITION * rep.lower_bound


def test_every_drawn_frame_meets_the_condition_bound(tol):
    rng = np.random.default_rng(41)
    for draw in range(DRAWS):
        for fam in (_random_frame(rng), _random_fit_or_overcomplete_frame(rng)):
            assert _within_condition_bound(fam, tol), draw


def test_every_drawn_operator_is_conditioned(tol):
    rng = np.random.default_rng(42)
    for draw in range(DRAWS):
        cols = int(rng.integers(1, 7))
        rows = int(rng.integers(1, cols + 1))
        svals = singular_values(_random_operator(rng, rows, cols))
        assert svals.shape == (rows,) and svals[-1] >= 1e-2 * svals[0], draw


def test_each_pair_mode_realizes_its_relation(tol):
    rng = np.random.default_rng(43)
    modes = set()
    for draw in range(DRAWS):
        mode = int(copy.deepcopy(rng).integers(0, 4))  # the first number _random_pair draws
        lam, theta = _random_pair(rng)
        report = classify(lam, theta, tol)
        # only mode 1 right-composes a drawn frame, which may multiply its bound by 1e4
        assert _within_condition_bound(lam, tol), draw
        assert mode == 1 or _within_condition_bound(theta, tol), draw
        if mode == 0:
            assert report.strongly_disjoint, draw
        elif mode == 1:
            assert report.range_intersection_dim == lam.domain_dim == theta.domain_dim, draw
        elif mode == 2:
            assert report.range_intersection_dim >= 1, draw
        modes.add(mode)
    assert modes == {0, 1, 2, 3}


def test_strongly_disjoint_and_equal_domain_pairs_are_what_they_claim(tol):
    rng = np.random.default_rng(44)
    for draw in range(DRAWS):
        lam, theta = _random_strongly_disjoint(rng)
        assert classify(lam, theta, tol).strongly_disjoint, draw
        lam, theta = _random_disjoint_equal_domain(rng)
        assert lam.domain_dim == theta.domain_dim and classify(lam, theta, tol).disjoint, draw


def test_draws_stay_conditioned_at_scale(tol):
    """Sizes at which a rejection draw of a Gaussian almost never passes the
    bound (a 100 x 100 one in about 1 of 70 tries, a 160 x 160 one never)."""
    rng = np.random.default_rng(45)
    svals = singular_values(_random_operator(rng, 100, 100))
    assert svals[-1] >= 1e-2 * svals[0]
    dims = (2,) * 80
    riesz = _random_frame(rng, dims=dims, domain_dim=160)
    same_range = right_compose(riesz, _random_operator(rng, 160, 160))
    assert _within_condition_bound(riesz, tol)
    assert classify(riesz, same_range, tol).range_intersection_dim == 160
    # 60 + 60 <= 160 generic directions: disjoint, as the dense SVD counts it too
    lam = _random_frame(rng, dims=dims, domain_dim=60)
    raw = rng.standard_normal((160, 60)) + 1j * rng.standard_normal((160, 60))
    theta = _frame_over(rng, lam.space, dims, raw)
    assert _within_condition_bound(lam, tol) and _within_condition_bound(theta, tol)
    report, _, checks = pair_equivalences(lam, theta, tol)
    assert report.disjoint and not report.strongly_disjoint
    assert all(passed for _, passed, _ in checks), checks
    stacked = np.hstack([analysis_matrix(lam), analysis_matrix(theta)])
    assert rank_from_singular_values(singular_values(stacked), stacked.shape, tol) == 120


def test_a_check_that_raises_fails_its_case_and_the_suite_goes_on(tol):
    def toy(rng, tol):
        draw = int(rng.integers(0, 4))
        yield f"draw {draw}"
        if draw % 2:
            raise PreconditionError(f"odd draw {draw}")

    faults = _per_case(toy)(np.random.default_rng(6), 10, tol)
    draws = np.random.default_rng(6).integers(0, 4, 10)
    expected = []
    for case, draw in enumerate(draws):
        expected.append(f"case {case}: draw {draw}")
        if draw % 2:
            expected.append(f"case {case}: raised PreconditionError: odd draw {draw}")
    assert faults == expected and any(draws % 2)


def _failed(tol) -> dict:
    """The failure lines of each failing check of ``run_suite(0, 10)``."""
    report = run_suite(0, 10, tol)
    assert len(report.results) == 24
    return {result.name: result.failures for result in report.results if not result.passed}


def _fails_exactly(*names):
    """Catcher: ``run_suite(0, 10)`` fails exactly the checks ``names``."""

    def catch(tol):
        assert sorted(_failed(tol)) == sorted(names)

    return catch


def _raises_in_mixed_construction(tol):
    failed = _failed(tol)
    assert "mixed-construction" in failed
    assert any(": raised PreconditionError: " in line for line in failed["mixed-construction"])


def _breaks_the_pair_upper_bound(tol):
    """The pair family's upper bound is checked on every pair, not only on disjoint ones."""
    faults = _failed(tol).get("pair-bound-sandwich")
    assert faults and all(f.endswith(": pair upper bound above sum-map estimate") for f in faults)


def _always_true(*args, **kwargs):
    return True


def _zero_cross(lam, theta):
    return {"cross": np.zeros((theta.domain_dim, lam.domain_dim), dtype=complex)}


_PAIR_GRAM = analysis._pair_gram


def _tripled_cross(lam, theta, cross):
    return _PAIR_GRAM(lam, theta, 3 * cross)


def _transposed_cross(lam, theta, cross):
    gram = np.array(_PAIR_GRAM(lam, theta, cross))
    d = lam.domain_dim
    gram[:d, d:] = cross.T
    return gram


def _riesz_report(change):
    """Patches making ``riesz_check`` return ``change(report)`` where each module binds it."""
    original = riesz.riesz_check

    def changed(fam, tol=DEFAULT_TOL):
        return change(original(fam, tol))

    return [(module, "riesz_check", changed) for module in (riesz, verification)]


def _riesz_verdict(value):
    """Patches forcing ``riesz_check``'s verdict to ``value``."""
    return _riesz_report(lambda report: dataclasses.replace(report, is_riesz_type=value))


def _upper_bound_as_synthesis_lower_bound(report):
    if not report.is_riesz_type:
        return report
    return dataclasses.replace(report, synthesis_lower_bound=report.synthesis_upper_bound)


_SYNTHESIS_GAIN = analysis.synthesis_gain


def _gain_of_the_largest_singular_value(fam, tol=DEFAULT_TOL):
    gain, onto = _SYNTHESIS_GAIN(fam, tol)
    return (float(analysis.analysis_singular_values(fam)[0]) if gain else 0.0), onto


_PERTURBATION = riesz.perturbation_riesz_transfer


def _equivalence_as_both_riesz(lam, theta, tol=DEFAULT_TOL):
    """The perturbation result with "both Riesz-type" for "the same Riesz verdict"."""
    result = _PERTURBATION(lam, theta, tol)
    both = all(riesz.riesz_check(fam, tol).is_riesz_type for fam in (lam, theta))
    return dataclasses.replace(result, equivalence_verified=result.criterion_met and both)


def _full_rank(fam, tol=DEFAULT_TOL):
    return fam.domain_dim


def _always_onto(fam, tol=DEFAULT_TOL):
    return analysis.synthesis_gain(fam, tol)[0], True


def _transposed_congruence(gram, operator):
    return hermitize(operator.T @ (gram @ operator))


def _sum_gram_without_cross_blocks(lam, theta, cross):
    return _PAIR_GRAM(lam, theta, np.zeros_like(cross))


_COMPOSED_GRAM = analysis._composed_gram


def _scale_of_largest_eigenvalue(source, operator):
    gram, _ = _COMPOSED_GRAM(source, operator)
    return gram, float(np.linalg.eigvalsh(gram)[-1])


def _no_pair_scale(lam, theta):
    return 0.0


_RANK_CUTOFF = _linalg.rank_cutoff


def _cutoff_a_million_times_higher(shape, sigma_max, tol):
    return 1e6 * _RANK_CUTOFF(shape, sigma_max, tol)


def _fails(test, *args):
    """The catcher that runs one fixture-free tier-1 test, which must fail, by an
    assertion or by a ``pytest.raises`` that sees nothing raised: for faults that
    ``verify`` misses, such as a transposed cross block, or that its one-chunk
    draws never reach, such as those of the composed Gram and its finiteness proof."""

    def catcher(tol):
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            test(*args)

    return catcher


def _overflowing_atoms_named(bounded):
    """The overflow test as its mark runs it, with the matmul's warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        test_composed.test_an_operator_overflowing_some_atoms_names_exactly_their_blocks(bounded)


# Planted faults (mutation analysis: DeMillo, Lipton & Sayward, 1978): the
# (module, name, value) patches that plant each, and the catcher that notices it.
# M3: the Gram certificate always passes; M5: C^T in the pair Gram where C^H belongs;
# pair-rank-always-full: classify reads every rank [A|B] as full.  The composed-Gram
# faults plant L^T for L^H, a sum's pair Gram without its cross blocks, and the
# rounding scale of a composed Gram cut to its largest eigenvalue, or a pair's cut
# to its own, so that a sum of compositions forgets theirs; the finiteness proof of
# a composition, made to accept any bound, lets an overflowing product through.
# The Riesz faults: riesz_check reports the upper frame bound as the synthesis lower
# bound of a Riesz-type frame; synthesis_gain reads sigma_max where sigma_min belongs;
# the perturbation result reads "both Riesz-type" for "the same Riesz verdict".
# M4: the singular-value cutoff of every rank rule sits 10^6 times too high.
_PLANTED = {
    "M3": (
        [(analysis, "gram_certifies_full_column_rank", _always_true)],
        _fails_exactly("pair-bound-sandwich", "pair-frame-iff-disjoint"),
    ),
    "M4": (
        [(_linalg, "rank_cutoff", _cutoff_a_million_times_higher)],
        _fails(test_analysis.test_every_rank_verdict_reads_the_singular_values_near_the_cutoff,
               DEFAULT_TOL),
    ),
    "M5": (
        [(analysis, "_pair_gram", _transposed_cross)],
        _fails(test_disjointness.test_pair_family_gram_holds_the_conjugate_cross_block),
    ),
    "pair-rank-always-full": (
        [(disjointness, "analysis_rank", _full_rank)],
        _fails_exactly("pair-bound-sandwich", "pair-frame-iff-disjoint"),
    ),
    "riesz-verdict-true": (
        _riesz_verdict(True),
        _fails_exactly("mixed-construction", "pair-riesz-equivalences", "riesz-criteria-agree"),
    ),
    "riesz-verdict-false": (
        _riesz_verdict(False),
        _fails_exactly("mixed-construction", "pair-riesz-equivalences", "riesz-criteria-agree"),
    ),
    "riesz-upper-bound-as-synthesis-lower-bound": (
        _riesz_report(_upper_bound_as_synthesis_lower_bound),
        _fails_exactly("riesz-criteria-agree"),
    ),
    "synthesis-always-onto": (
        [(riesz, "synthesis_gain", _always_onto)],
        _fails_exactly("mixed-construction", "riesz-criteria-agree"),
    ),
    "synthesis-gain-of-the-largest-singular-value": (
        [(riesz, "synthesis_gain", _gain_of_the_largest_singular_value)],
        _fails_exactly("mixed-construction"),
    ),
    "perturbation-equivalence-as-both-riesz": (
        [(verification, "perturbation_riesz_transfer", _equivalence_as_both_riesz)],
        _fails_exactly("perturbation-transfer"),
    ),
    "tripled-pair-cross-block": (
        [(analysis, "_pair_gram", _tripled_cross)],
        _breaks_the_pair_upper_bound,
    ),
    "zero-cross-operator": ([(analysis, "_cross", _zero_cross)], _raises_in_mixed_construction),
    "composed-gram-transposed-operator": (
        [(analysis, "_congruence", _transposed_congruence)],
        _fails(test_composed.test_tall_sums_read_no_rows_once_their_sources_are_bounded),
    ),
    "composed-sum-gram-without-cross-blocks": (
        [(analysis, "_pair_gram", _sum_gram_without_cross_blocks)],
        _fails(
            test_composed.test_composed_families_match_their_stored_products_bit_for_bit,
            10 * test_composed.STEP + 100,
        ),
    ),
    "composition-proven-finite-at-any-bound": (
        [(model, "_PROVEN_FINITE", math.inf)],
        _fails(_overflowing_atoms_named, False),
    ),
    "composed-scale-of-largest-eigenvalue": (
        [(analysis, "_composed_gram", _scale_of_largest_eigenvalue)],
        _fails(
            test_composed.test_a_planted_cancellation_is_decided_from_the_rows,
            test_composed.DIM,
        ),
    ),
    "pair-scale-of-largest-eigenvalue": (
        [(analysis, "_pair_scale", _no_pair_scale)],
        _fails(test_composed.test_a_sum_of_two_tall_compositions_inherits_their_rounding_scales),
    ),
}


@pytest.mark.parametrize("fault", sorted(_PLANTED))
def test_a_planted_fault_is_caught_by_its_catcher(fault, monkeypatch, tol):
    patches, catcher = _PLANTED[fault]
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    catcher(tol)


def test_verify_reports_every_check_under_a_tolerance_nothing_meets(capsys):
    argv = ["verify", "--seed", "0", "--cases", "2", "--tol", "1e-300", "--format", "json"]
    assert run_command(argv) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and payload["passed"] is False and len(payload["checks"]) == 24
    raised = {
        check["name"]
        for check in payload["checks"]
        if any(": raised PreconditionError: " in line for line in check["failures"])
    }
    assert {"mixed-construction", "direct-sum-duals", "lift-pipeline"} <= raised


@pytest.mark.parametrize("factor", ["1e12", "1e300"])
def test_verify_names_each_failure_under_an_extreme_rank_factor(factor, capsys):
    assert run_command(["verify", "--seed", "0", "--cases", "5", "--rank-factor", factor]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "overall: FAIL" in out and ": raised " in out


def _with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


@pytest.mark.parametrize("seed, rel_eps", [(0, 1e-9), (1, 1e-9), (2, 1e-9), (0, 1e-300)])
def test_the_suite_report_equals_a_one_cpu_run(seed, rel_eps, monkeypatch):
    # the checks run in forked workers over the usable CPUs and in turn on one;
    # under rel_eps = 1e-300 checks fail, and the same lines come back in order
    tol = TolerancePolicy(rel_eps=rel_eps)
    cases = verification._POOL_MIN_CASES
    _with_cpus(monkeypatch, {0, 1})
    pooled = run_suite(seed, cases, tol)
    _with_cpus(monkeypatch, {0})
    assert run_suite(seed, cases, tol) == pooled
    assert pooled.passed == (rel_eps == 1e-9) and len(pooled.results) == 24


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_no_worker_outlives_the_suite(cpus, monkeypatch, tol):
    _with_cpus(monkeypatch, cpus)
    assert run_suite(3, verification._POOL_MIN_CASES, tol).passed
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_an_error_from_outside_the_package_ends_the_suite_with_its_type(cpus, monkeypatch, tol):
    # only package errors fail a case; any other exception reaches the caller as
    # itself, from a worker too, and takes no worker with it
    def divide(rng, cases, tol):
        return [f"{1 / 0}"]

    checks = list(verification.CHECKS)
    checks[5] = (checks[5][0], divide)
    monkeypatch.setattr(verification, "CHECKS", tuple(checks))
    _with_cpus(monkeypatch, cpus)
    with pytest.raises(ZeroDivisionError):
        run_suite(3, verification._POOL_MIN_CASES, tol)
    assert multiprocessing.active_children() == []
