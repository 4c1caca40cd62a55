"""Instance generators of the ``verify`` suite and its per-case driver.

Every instance is conditioned by construction, so each generator property is
asserted on every draw, and a check that raises is reported as the failure of
its case instead of ending the suite.
"""

import copy
import json

import numpy as np
import pytest

from gframes import (
    PreconditionError,
    analysis,
    classify,
    frame_bounds,
    pair_equivalences,
    right_compose,
)
from gframes._linalg import singular_values
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
    # 60 + 60 <= 160 generic directions: disjoint, and no pair theorem is broken
    lam = _random_frame(rng, dims=dims, domain_dim=60)
    raw = rng.standard_normal((160, 60)) + 1j * rng.standard_normal((160, 60))
    theta = _frame_over(rng, lam.space, dims, raw)
    assert _within_condition_bound(lam, tol) and _within_condition_bound(theta, tol)
    report, _, checks = pair_equivalences(lam, theta, tol)
    assert report.disjoint and not report.strongly_disjoint
    assert all(passed for _, passed, _ in checks), checks


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


def test_a_zero_cross_operator_is_reported_by_the_checks_it_breaks(monkeypatch, tol):
    """Planted fault: every pair's cross operator reads 0."""

    def zero_cross(lam, theta):
        return {"cross": np.zeros((theta.domain_dim, lam.domain_dim), dtype=complex)}

    monkeypatch.setattr(analysis, "_cross", zero_cross)
    report = run_suite(0, 5, tol)
    failed = {result.name: result.failures for result in report.results if not result.passed}
    assert len(report.results) == 24 and "mixed-construction" in failed
    assert any(": raised PreconditionError: " in line for line in failed["mixed-construction"])


def test_a_tripled_pair_cross_block_breaks_the_pair_upper_bound(monkeypatch, tol):
    """Planted fault: the pair family's Gram carries 3C for its cross block C.  Its
    upper bound is checked on every pair, not only on disjoint ones."""
    original = analysis._pair_gram
    monkeypatch.setattr(
        analysis, "_pair_gram", lambda lam, theta, cross: original(lam, theta, 3 * cross)
    )
    report = run_suite(0, 10, tol)
    faults = {result.name: result.failures for result in report.results}["pair-bound-sandwich"]
    assert faults and all(f.endswith(": pair upper bound above sum-map estimate") for f in faults)


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
