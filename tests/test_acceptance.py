"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each randomized criterion runs the named checks of the ``verify`` suite
(``gframes.verification.CHECKS``) on 200 generated cases and asserts that they
report no failure; the hand-computed values are asserted here.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.  All
tolerances are relative 1e-9 (``_linalg.REL_EPS``), and every criterion draws
from a fixed seed so the verdict is reproducible.
"""

import dataclasses
import os

import numpy as np
import pytest

from gframes import (
    GFrameFamily,
    KHatVector,
    OperatorPair,
    analysis_matrix,
    classify,
    frame_bounds,
    gamma_family,
    parse_document,
    perturbation_riesz_transfer,
    riesz_check,
    serialize_document,
    strongly_disjoint_sum,
    synthesis_kernel_test,
)
from gframes._linalg import REL_EPS, rank_from_singular_values, singular_values
from gframes.cli import run_command
from gframes.verification import CHECKS

CASES = 200
SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _suite(name: str, criterion: int, *checks: str) -> None:
    """Run the named suite checks in turn on one generator seeded by the
    criterion number; pass when none reports a failure."""
    rng = np.random.default_rng(100 + criterion)
    run = dict(CHECKS)
    failures = [f"{check}: {fault}" for check in checks for fault in run[check](rng, CASES)]
    detail = f"{', '.join(checks)} over {CASES} cases; {len(failures)} failures"
    _verdict(name, not failures, "; ".join([detail, *failures[:3]]))


def test_suite_driver_labels_each_case_in_order(monkeypatch):
    import gframes.verification as verification

    def toy(rng):
        draw = int(rng.integers(0, 4))
        if draw % 2:
            yield f"odd draw {draw}"
            yield "second fault"

    run = verification._per_case(toy)
    faults = run(np.random.default_rng(5), 12)
    replay = run(np.random.default_rng(5), 12)
    draws = np.random.default_rng(5).integers(0, 4, 12)
    expected = [
        line
        for case, draw in enumerate(draws)
        if draw % 2
        for line in (f"case {case}: odd draw {draw}", f"case {case}: second fault")
    ]
    assert faults == replay == expected and expected
    monkeypatch.setattr(verification, "CHECKS", (("toy", run),))
    report = verification.run_suite(3, 12)
    rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
    assert [(r.name, r.cases, r.failures) for r in report.results] == [
        ("toy", 12, tuple(run(rng, 12)))
    ]
    assert not report.passed


# suite check: the library function whose (name, passed, numbers) checks it asserts
_CONSTRUCTION_CHECKS = (
    ("canonical-dual", "dual_check"),
    ("canonical-dual", "parseval_check"),
    ("pair-parseval", "normalized_pair"),
    ("disjoint-sum", "disjoint_sum_family"),
    ("strong-sum-bounds", "strongly_disjoint_sum"),
    ("strong-sum-tightness", "strongly_disjoint_sum"),
    ("direct-sum-duals", "direct_sum_duals"),
    ("pseudo-dual", "pseudo_dual"),
    ("lift-pipeline", "direct_sum_duals"),
)


def _refuted(output):
    """``output`` of a library function with every check it carries failed."""

    def refute(check):
        return check[0], False, check[2]

    if dataclasses.is_dataclass(output):
        return dataclasses.replace(output, checks=tuple(map(refute, output.checks)))
    if isinstance(output[0], str):  # one check
        return refute(output)
    return output[0], refute(output[1])  # a family and its check


@pytest.mark.parametrize("check, function", _CONSTRUCTION_CHECKS)
def test_suite_check_fails_with_its_construction_check(check, function, monkeypatch):
    import gframes.verification as verification

    real = getattr(verification, function)
    monkeypatch.setattr(verification, function, lambda *args: _refuted(real(*args)))
    faults = dict(CHECKS)[check](np.random.default_rng(0), 10)
    assert any(" broken (" in fault for fault in faults), faults


def test_criterion_01_frame_axioms():
    _suite("criterion-01 frame-axioms", 1, "defining-inequality")


def test_criterion_02_reconstruction_identity():
    _suite("criterion-02 reconstruction-identity", 2, "reconstruction-identity")


def test_criterion_03_synthesis_norm_bound():
    _suite("criterion-03 synthesis-norm-bound", 3, "synthesis-norm-bound")


def test_criterion_04_parseval_pair_sum():
    _suite("criterion-04 parseval-pair-sum", 4, "pair-parseval")


def test_criterion_05_pair_family_frame_iff_disjoint(lam_family, theta_family):
    _suite("criterion-05 pair-family-frame-iff-disjoint", 5, "pair-frame-iff-disjoint")
    rep = frame_bounds(gamma_family(lam_family, theta_family))
    assert rep.lower_bound == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, rel=REL_EPS)
    assert rep.upper_bound == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, rel=REL_EPS)


def test_criterion_06_pair_riesz_equivalences(theta_family):
    _suite("criterion-06 pair-riesz-equivalences", 6, "pair-riesz-equivalences")
    report = classify(theta_family, theta_family)
    gamma = gamma_family(theta_family, theta_family)
    riesz = frame_bounds(gamma).is_frame and riesz_check(gamma).is_riesz_type
    assert report.complementary_pair == riesz
    assert report.strongly_complementary_pair == (report.strongly_disjoint and riesz)
    # a trivial kernel of the pair family: [A|B] of full column rank in its dense SVD
    stacked = analysis_matrix(gamma)
    full = rank_from_singular_values(singular_values(stacked), stacked.shape) == 2
    assert report.weakly_disjoint == full
    assert not report.strongly_disjoint or report.disjoint
    assert not report.disjoint or report.weakly_disjoint


def test_criterion_07_disjoint_sums_certified():
    _suite("criterion-07 disjoint-sums-certified", 7, "disjoint-sum")


def test_criterion_08_strong_sum_tight_bounds(lam_family, ortho_family):
    _suite("criterion-08 strong-sum-tight-bounds", 8, "strong-sum-bounds", "strong-sum-tightness")
    scalar = strongly_disjoint_sum(
        lam_family, ortho_family, OperatorPair(3.0 * np.eye(1), 4.0 * np.eye(1))
    )
    assert scalar.report.is_tight
    assert scalar.report.upper_bound == pytest.approx(25.0, rel=REL_EPS)
    half = np.eye(1) / np.sqrt(2.0)
    unit = strongly_disjoint_sum(lam_family, ortho_family, OperatorPair(half, half))
    assert unit.report.is_parseval


def test_criterion_09_duality_constructions():
    _suite(
        "criterion-09 duality-constructions", 9, "direct-sum-duals", "pseudo-dual", "lift-pipeline"
    )


def test_criterion_10_riesz_criteria_agree(theta_family):
    _suite("criterion-10 riesz-criteria-agree", 10, "riesz-criteria-agree", "synthesis-kernel")
    witness = KHatVector(([1.0], [-1.0]))
    assert synthesis_kernel_test(theta_family, witness)
    assert not riesz_check(theta_family).is_riesz_type


def test_criterion_11_perturbation_criterion(identity_family):
    _suite("criterion-11 perturbation-criterion", 11, "perturbation-transfer")

    def scaled(factor):
        return GFrameFamily.from_rows(
            identity_family.space, factor * identity_family.rows, identity_family.block_dims
        )

    small = perturbation_riesz_transfer(identity_family, scaled(1.1))
    large = perturbation_riesz_transfer(identity_family, scaled(3.0))
    assert small.lambda_gap == pytest.approx(0.1, rel=REL_EPS)
    assert small.criterion_met and small.equivalence_verified
    assert large.lambda_gap == pytest.approx(2.0, rel=REL_EPS)
    assert not large.criterion_met


def test_criterion_12_cli_contract(tmp_path, capsys):
    pair_doc = os.path.join(SAMPLES, "pair.json")
    with open(pair_doc, encoding="utf-8") as handle:
        doc = parse_document(handle.read())
    round_trip = parse_document(serialize_document(doc)) == doc

    args = ["verify", "--seed", "7", "--cases", "5", "--format", "json"]
    rc_first = run_command(args)
    first = capsys.readouterr().out
    rc_second = run_command(args)
    second = capsys.readouterr().out
    deterministic = rc_first == rc_second == 0 and first == second

    rc_pass = run_command(["analyze", pair_doc, "identity"])
    capsys.readouterr()
    rc_fail = run_command(
        ["construct", pair_doc, "sum-strong", "lam", "theta", "-o", str(tmp_path / "x.json")]
    )
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc_usage = run_command(["analyze", str(bad), "x"])
    capsys.readouterr()
    rc_unknown = run_command(["analyze", pair_doc, "missing"])
    capsys.readouterr()

    statuses = (rc_pass, rc_fail, rc_usage, rc_unknown)
    ok = round_trip and deterministic and statuses == (0, 1, 2, 2)
    _verdict(
        "criterion-12 cli-contract",
        ok,
        f"round_trip={round_trip} deterministic={deterministic} statuses={statuses}",
    )
