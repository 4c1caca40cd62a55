"""End-to-end CLI behavior on the shipped sample documents."""

import json
import os

import pytest

from gframes import is_dual_pair, load_document
from gframes.cli import run_command

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
PAIR_DOC = os.path.join(SAMPLES, "pair.json")
LIFT_DOC = os.path.join(SAMPLES, "lift.json")


def test_analyze_identity_family(capsys):
    assert run_command(["analyze", PAIR_DOC, "identity"]) == 0
    out = capsys.readouterr().out
    assert "is_parseval=True" in out
    assert "is_riesz_type=True" in out
    assert "overall: PASS" in out


def test_analyze_reports_numbers_with_verdicts(capsys):
    assert run_command(["analyze", PAIR_DOC, "theta", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    frame_check = next(c for c in payload["checks"] if c["name"] == "is-frame")
    assert frame_check["passed"] is True
    assert frame_check["lower_bound"] == pytest.approx(2.0)


def test_analyze_non_frame_family_exits_one(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "measure_space": {"weights": [1.0]},
        "families": {
            "flat": {
                "domain_dim": 2,
                "block_dims": [1],
                "blocks": [[[[1.0, 0.0], [1.0, 0.0]]]],
            }
        },
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    assert run_command(["analyze", str(path), "flat"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_unknown_family_is_usage_error(capsys):
    assert run_command(["analyze", PAIR_DOC, "missing"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_malformed_document_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert run_command(["analyze", str(path), "x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_disjoint_cross_checks_pass(capsys):
    assert run_command(["disjoint", PAIR_DOC, "lam", "theta"]) == 0
    out = capsys.readouterr().out
    assert "strongly_disjoint=False" in out
    assert "disjoint=True" in out
    assert "check pair-family-frame-iff-disjoint: PASS" in out


def test_construct_canonical_dual_writes_document(tmp_path, capsys):
    out_path = tmp_path / "dual.json"
    code = run_command(
        ["construct", PAIR_DOC, "canonical-dual", "theta", "-o", str(out_path)]
    )
    assert code == 0
    produced = load_document(str(out_path))
    original = load_document(PAIR_DOC)
    assert is_dual_pair(produced.families["canonical_dual"], original.families["theta"])


def test_construct_sum_strong_with_operator_flags(tmp_path, capsys):
    out_path = tmp_path / "sum.json"
    code = run_command(
        [
            "construct",
            PAIR_DOC,
            "sum-strong",
            "lam",
            "ortho",
            "--l1",
            "[[[3, 0]]]",
            "--l2",
            "[[[4, 0]]]",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "scale=25" in out
    assert load_document(str(out_path)).families["sum"].domain_dim == 1


def test_construct_delta_recipe(tmp_path, capsys):
    out_path = tmp_path / "delta.json"
    assert run_command(["construct", PAIR_DOC, "delta", "lam", "ortho", "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "check parseval-when-strongly-disjoint: PASS" in out
    assert "delta" in load_document(str(out_path)).families


def test_construct_parseval_recipe(tmp_path, capsys):
    out_path = tmp_path / "parseval.json"
    assert run_command(["construct", PAIR_DOC, "parseval", "theta", "-o", str(out_path)]) == 0
    assert "check is-parseval: PASS" in capsys.readouterr().out


def test_construct_failed_hypothesis_exits_one(tmp_path, capsys):
    code = run_command(
        ["construct", PAIR_DOC, "sum-strong", "lam", "theta", "-o", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert "strongly disjoint" in capsys.readouterr().err


def test_construct_bad_operator_flag_is_usage_error(tmp_path, capsys):
    code = run_command(
        [
            "construct",
            PAIR_DOC,
            "sum-strong",
            "lam",
            "ortho",
            "--l1",
            "[[3]]",
            "-o",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == 2


def test_construct_lift_example(tmp_path, capsys):
    out_path = tmp_path / "lifted.json"
    assert run_command(["construct", LIFT_DOC, "lift-example", "f", "g", "-o", str(out_path)]) == 0
    produced = load_document(str(out_path))
    assert set(produced.families) == {
        "lifted_lambda",
        "lifted_theta",
        "lifted_phi",
        "lifted_psi",
    }
    assert all(d == 2 for d in produced.families["lifted_lambda"].block_dims)


def test_generate_frame_round_trips(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    args = [
        "generate",
        "--kind",
        "frame",
        "--seed",
        "5",
        "--block-dims",
        "1,2",
        "--domain-dim",
        "2",
        "-o",
        str(out_path),
    ]
    assert run_command(args) == 0
    first = load_document(str(out_path))
    assert run_command(args) == 0
    assert load_document(str(out_path)) == first


def test_verify_is_deterministic_and_passes(capsys):
    args = ["verify", "--seed", "7", "--cases", "5", "--format", "json"]
    assert run_command(args) == 0
    first = capsys.readouterr().out
    assert run_command(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert len(payload["checks"]) >= 20


def test_json_reports_of_disjoint_and_delta_parse(tmp_path, capsys):
    assert run_command(["disjoint", PAIR_DOC, "lam", "theta", "--format", "json"]) == 0
    relations = json.loads(capsys.readouterr().out)["reports"]["relations"]
    assert relations["strongly_disjoint"] is False
    out_path = str(tmp_path / "delta.json")
    args = ["construct", PAIR_DOC, "delta", "lam", "theta", "-o", out_path, "--format", "json"]
    assert run_command(args) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "missing.json", "lam"],
        ["construct", PAIR_DOC, "canonical-dual", "theta", "-o", "no/such/dir/out.json"],
        ["analyze", PAIR_DOC, "theta", "--tol", "0"],
        ["analyze", PAIR_DOC, "theta", "--tol", "nan"],
        ["analyze", PAIR_DOC, "theta", "--rank-factor", "inf"],
        ["verify", "--cases", "-3"],
    ],
)
def test_bad_input_or_option_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
