"""End-to-end CLI behavior on the shipped sample documents."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes import (
    FrameDocument,
    GFrameError,
    GFrameFamily,
    MeasureSpace,
    PreconditionError,
    SingularOperatorError,
    classify,
    frame_bounds,
    is_dual_pair,
    load_document,
    save_document,
)
from gframes import cli
from gframes.cli import run_command

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
PAIR_DOC = os.path.join(SAMPLES, "pair.json")
LIFT_DOC = os.path.join(SAMPLES, "lift.json")
NEAR_CUTOFF_DOC = os.path.join(SAMPLES, "near_cutoff.json")


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


def test_analyze_near_cutoff_sample_is_a_frame(capsys):
    # sigma(A) = (1, 1e-8) clears the singular-value cutoff; S = diag(1, 1e-16)
    assert run_command(["analyze", NEAR_CUTOFF_DOC, "near"]) == 0
    out = capsys.readouterr().out
    assert "is_frame=True" in out and "analysis_rank=2" in out


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
    assert "check hierarchy: PASS" in out


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


def test_lift_example_of_wider_blocks_is_usage_error(tmp_path, capsys):
    space = MeasureSpace([1.0, 1.0])
    wide = GFrameFamily(space=space, domain_dim=1, blocks=([[1.0], [0.0]], [[0.0], [1.0]]))
    doc_path = str(tmp_path / "wide.json")
    save_document(FrameDocument(space, {"f": wide, "g": wide}), doc_path)
    out_path = str(tmp_path / "lifted.json")
    assert run_command(["construct", doc_path, "lift-example", "f", "g", "-o", out_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out_path)
    assert captured.err == "error: first continuous frame has blocks of dims (2, 2), not 1\n"


_GOLDEN = ((3.0 - 5.0**0.5) / 2.0, (3.0 + 5.0**0.5) / 2.0)


def _bounds(lower, upper, tight=True, parseval=False):
    return {
        "lower_bound": lower, "upper_bound": upper,
        "is_frame": True, "is_tight": tight, "is_parseval": parseval,
    }


# argv after "construct", families written, (check, passed) in order, and the
# numbers of each report and check by its name
_RECIPE_CASES = {
    "canonical-dual": (
        [PAIR_DOC, "canonical-dual", "theta"], ["canonical_dual"], [("dual-pairing", True)],
        {"result": _bounds(0.5, 0.5), "dual-pairing": {"identity_defect": 0.0}},
    ),
    "parseval": (
        [PAIR_DOC, "parseval", "theta"], ["parseval"], [("is-parseval", True)],
        {"is-parseval": _bounds(1.0, 1.0, parseval=True)},
    ),
    "gamma": (
        [PAIR_DOC, "gamma", "lam", "theta"], ["gamma"],
        [("hierarchy", True)],
        {
            "result": _bounds(*_GOLDEN, tight=False),
            "hierarchy": {"strongly_disjoint": False, "disjoint": True, "weakly_disjoint": True},
        },
    ),
    "delta": (
        [PAIR_DOC, "delta", "lam", "ortho"], ["delta"],
        [("parseval-when-strongly-disjoint", True)],
        {
            "result": _bounds(1.0, 1.0, parseval=True),
            "parseval-when-strongly-disjoint": {"strongly_disjoint": True, "is_parseval": True},
        },
    ),
    "sum-disjoint": (
        [PAIR_DOC, "sum-disjoint", "lam", "theta"], ["sum"],
        [("is-frame", True), ("certificate-sandwich", True)],
        {
            "result": _bounds(5.0, 5.0),
            "is-frame": _bounds(5.0, 5.0),
            "certificate-sandwich": {
                "certified_lower": _GOLDEN[0], "certified_upper": 2.0 * _GOLDEN[1],
                "lower_bound": 5.0, "upper_bound": 5.0,
            },
        },
    ),
    "sum-strong": (
        [PAIR_DOC, "sum-strong", "lam", "ortho", "--l1", "[[[3, 0]]]", "--l2", "[[[4, 0]]]"],
        ["sum"],
        [("lower-bound-guarantee", True), ("tight-with-hypothesis-scale", True)],
        {
            "result": {**_bounds(25.0, 25.0), "scale": 25.0},
            "lower-bound-guarantee": {"lower_bound": 25.0, "guaranteed": 25.0},
            "tight-with-hypothesis-scale": {"is_tight": True, "bound": 25.0, "scale": 25.0},
        },
    ),
    "pseudo-dual": (
        [PAIR_DOC, "pseudo-dual", "lam", "ortho"], ["pseudo_dual", "single", "sum"],
        [("dual-of-sum", True), ("dual-of-single", True)],
        {"dual-of-sum": {"identity_defect": 0.0}, "dual-of-single": {"identity_defect": 0.0}},
    ),
    "lift-example": (
        [LIFT_DOC, "lift-example", "f", "g"],
        ["lifted_lambda", "lifted_phi", "lifted_psi", "lifted_theta"],
        [("glued-dual-pair", True)],
        {"glued-dual-pair": {"identity_defect": 0.0}},
    ),
}


@pytest.mark.parametrize("recipe", sorted(_RECIPE_CASES))
def test_construct_recipe_report(recipe, tmp_path, capsys):
    argv, families, checks, numbers = _RECIPE_CASES[recipe]
    out_path = str(tmp_path / "out.json")
    assert run_command(["construct", *argv, "-o", out_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == checks
    reports = payload["reports"]
    assert reports.pop("output") == {"path": out_path, "families": families}
    assert sorted(load_document(out_path).families) == families
    actual = {
        **reports,
        **{c["name"]: {k: v for k, v in c.items() if k not in ("name", "passed")}
           for c in payload["checks"]},
    }
    assert actual.keys() == numbers.keys()
    for name, expected in numbers.items():
        # the absolute floor of approx (1e-12) absorbs round-off in zero defects
        assert actual[name] == pytest.approx(expected, rel=1e-12), name


def _relations(strong, disjoint, complementary, cross_norm, intersection, sum_dim):
    return {
        "strongly_disjoint": strong, "disjoint": disjoint, "weakly_disjoint": disjoint,
        "complementary_pair": complementary,
        "strongly_complementary_pair": strong and complementary,
        "cross_operator_norm": cross_norm, "range_intersection_dim": intersection,
        "range_sum_dim": sum_dim, "khat_dim": 2,
    }


# sample pair: relations and pair family bounds
_DISJOINT_CASES = {
    ("lam", "theta"): (_relations(False, True, True, 1.0, 0, 2), _bounds(*_GOLDEN, tight=False)),
    ("lam", "ortho"): (_relations(True, True, True, 0.0, 0, 2), _bounds(1.0, 1.0, parseval=True)),
    ("theta", "theta"): (_relations(False, False, False, 2.0, 1, 1),
                         {**_bounds(0.0, 4.0, tight=False), "is_frame": False}),
    ("identity", "identity"): (_relations(False, False, False, 1.0, 2, 2),
                               {**_bounds(0.0, 2.0, tight=False), "is_frame": False}),
}

# every check of the disjoint report, in order, with the names of its numbers: the
# one pair theorem whose sides come from two computations (cross norm, rank [A|B])
_DISJOINT_CHECKS = (("hierarchy", ("strongly_disjoint", "disjoint", "weakly_disjoint")),)


def _human_numbers(text: str) -> list[tuple[str, str]]:
    return [tuple(item.split("=", 1)) for item in text.split()]


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("pair", sorted(_DISJOINT_CASES))
def test_disjoint_report(pair, fmt, capsys):
    relations, pair_family = _DISJOINT_CASES[pair]
    reports = {"relations": relations, "pair_family": pair_family}
    checks = [(name, {key: relations[key] for key in keys}) for name, keys in _DISJOINT_CHECKS]
    assert run_command(["disjoint", PAIR_DOC, *pair, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["reports"].keys() == reports.keys()
        for name, expected in reports.items():
            assert payload["reports"][name] == pytest.approx(expected, rel=1e-12), name
        assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
            (name, True) for name, _ in checks
        ]
        for check, (_, expected) in zip(payload["checks"], checks):
            assert {k: v for k, v in check.items() if k not in ("name", "passed")} == expected
        return

    def rendered(numbers):
        return [(k, f"{v:.12g}" if type(v) is float else str(v)) for k, v in numbers.items()]

    lines = out.splitlines()
    assert lines[-1] == "overall: PASS"
    report_lines = [line for line in lines if line.startswith("report ")]
    assert [line.split(":", 1)[0] for line in report_lines] == [f"report {n}" for n in reports]
    for line, expected in zip(report_lines, reports.values()):
        assert _human_numbers(line.split(": ", 1)[1]) == rendered(expected)
    check_lines = [line for line in lines if line.startswith("check ")]
    assert len(check_lines) == len(checks)
    for line, (name, expected) in zip(check_lines, checks):
        head, body = line.split(" (", 1)
        assert head == f"check {name}: PASS"
        assert _human_numbers(body.rstrip(")")) == rendered(expected)


def test_a_pair_that_is_not_disjoint_prints_its_one_check(tmp_path, capsys):
    # theta theta: the pair family is no frame, and the one printed check holds
    hierarchy = {
        "name": "hierarchy", "passed": True,
        "strongly_disjoint": False, "disjoint": False, "weakly_disjoint": False,
    }
    out_path = str(tmp_path / "gamma.json")
    for argv in (
        ["disjoint", PAIR_DOC, "theta", "theta"],
        ["construct", PAIR_DOC, "gamma", "theta", "theta", "-o", out_path],
    ):
        assert run_command([*argv, "--format", "json"]) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True and payload["checks"] == [hierarchy], argv
    assert not frame_bounds(load_document(out_path).families["gamma"]).is_frame


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


def test_generate_strongly_disjoint_pair_round_trips(tmp_path, capsys):
    out_path = tmp_path / "pair.json"
    args = [
        "generate", "--kind", "strongly-disjoint-pair", "--seed", "5", "--block-dims", "1,1,2",
        "--dim-first", "2", "--dim-second", "2", "-o", str(out_path), "--format", "json",
    ]
    assert run_command(args) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(check["name"], check["passed"]) for check in checks] == [
        ("strongly-disjoint", True), ("parseval", True)
    ]
    doc = load_document(str(out_path))
    first, second = doc.families["first"], doc.families["second"]
    assert frame_bounds(first).is_parseval and frame_bounds(second).is_parseval
    assert classify(first, second).strongly_disjoint
    assert run_command(args) == 0
    assert load_document(str(out_path)) == doc


def test_tall_constructions_report_the_bounds_that_analyze_reads_back(tmp_path, capsys):
    # 5,000 atoms of block dim 2, taller than one row chunk: a construct report's
    # bounds come from d x d algebra, and analyze streams them from the written rows
    def passed_reports(argv):
        assert run_command([*argv, "--format", "json"]) == 0, argv
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert err == "" and payload["passed"] is True, argv
        return payload["reports"]

    dims = ",".join(["2"] * 5000)
    frame_doc, pair_doc = str(tmp_path / "tall.json"), str(tmp_path / "tall-pair.json")
    passed_reports(["generate", "--kind", "frame", "--seed", "11", "--block-dims", dims,
                    "--domain-dim", "8", "-o", frame_doc])
    passed_reports(["generate", "--kind", "strongly-disjoint-pair", "--seed", "13",
                    "--block-dims", dims, "--dim-first", "4", "--dim-second", "4",
                    "-o", pair_doc])
    # recipe, its document and families, and the family it writes that analyze reads
    compared = []
    for recipe, argv, written in (
        ("canonical-dual", [frame_doc, "frame"], "canonical_dual"),
        ("parseval", [frame_doc, "frame"], "parseval"),
        ("sum-strong", [pair_doc, "first", "second"], "sum"),
        ("sum-disjoint", [pair_doc, "first", "second"], "sum"),
        ("pseudo-dual", [pair_doc, "first", "second"], None),
    ):
        out_path = str(tmp_path / f"{recipe}.json")
        reports = passed_reports(["construct", argv[0], recipe, *argv[1:], "-o", out_path])
        if written is None:
            continue
        frame = passed_reports(["analyze", out_path, written])["frame"]
        if "result" in reports:
            for key in ("lower_bound", "upper_bound"):
                assert reports["result"][key] == pytest.approx(frame[key], rel=1e-9), recipe
            compared.append(recipe)
    assert compared == ["canonical-dual", "sum-strong", "sum-disjoint"]


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
    assert run_command(args[:-2]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")


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
        *(
            ["construct", PAIR_DOC, "sum-strong", "lam", "ortho", "--l1", flag, "-o", "x.json"]
            for flag in (
                "[[[NaN, 0]]]", "[[[0, -Infinity]]]", "[[[1e400, 0]]]", f"[[[1{'0' * 400}, 0]]]",
                "[" * 100_000, "1" * 5000,
            )
        ),
        ["verify", "--seed", "-1", "--cases", "1"],
        *(
            ["generate", "--kind", *kind, "--block-dims", "1,1", *extra, "-o", "x.json"]
            for kind in (
                ["frame", "--domain-dim", "1"],
                ["strongly-disjoint-pair", "--dim-first", "1", "--dim-second", "1"],
            )
            for extra in (
                ["--seed", "-1"], ["--weight-low", "nan"], ["--weight-high", "inf"],
                ["--weight-low", "2", "--weight-high", "1"],
                ["--weight-low", "0", "--weight-high", "0"],
            )
        ),
        # operators given to a recipe that takes none
        ["construct", PAIR_DOC, "gamma", "lam", "theta", "--l1", "xx", "-o", "g.json"],
        ["construct", PAIR_DOC, "delta", "lam", "theta", "--l2", "[[[1, 0]]]", "-o", "x.json"],
        ["construct", PAIR_DOC, "canonical-dual", "theta", "--l1", "[[[1, 0]]]", "-o", "x.json"],
        ["construct", PAIR_DOC, "parseval", "theta", "--l2", "xx", "-o", "x.json"],
        ["construct", LIFT_DOC, "lift-example", "f", "g", "--l1", "[[[1, 0]]]", "-o", "x.json"],
        # a recipe given the wrong number of family names
        ["construct", PAIR_DOC, "gamma", "lam", "-o", "x.json"],
        # unparsable block dims, and a generated kind without its dimensions
        ["generate", "--kind", "frame", "--block-dims", "1,x", "--domain-dim", "1",
         "-o", "x.json"],
        ["generate", "--kind", "frame", "--block-dims", "1,1", "-o", "x.json"],
        ["generate", "--kind", "strongly-disjoint-pair", "--block-dims", "1,1", "-o", "x.json"],
        # block dims below 1 for a generated pair
        *(
            ["generate", "--kind", "strongly-disjoint-pair", *dims, "--dim-first", "1",
             "--dim-second", "1", "-o", "x.json"]
            for dims in (["--block-dims", "0,2"], ["--block-dims=-1,3"])
        ),
        # L1^H L1 + L2^H L2 overflows; the dual candidate's frame operator underflows
        ["construct", PAIR_DOC, "sum-strong", "lam", "ortho", "--l1", "[[[1e155,0]]]", "-o", "x.json"],
        ["construct", PAIR_DOC, "pseudo-dual", "lam", "ortho", "--l1", "[[[1e200,0]]]", "-o", "x.json"],
        # a frame whose frame operator cannot be inverted in floating point
        ["construct", NEAR_CUTOFF_DOC, "canonical-dual", "near", "-o", "x.json"],
        ["construct", NEAR_CUTOFF_DOC, "parseval", "near", "-o", "x.json"],
        # an operator flag without a row
        ["construct", PAIR_DOC, "sum-strong", "lam", "ortho", "--l1", "[]", "-o", "x.json"],
        # an overflowing operator
        ["construct", PAIR_DOC, "sum-disjoint", "lam", "theta", "--l1", "[[[1e200,0]]]",
         "-o", "x.json"],
        # a 1x2 operator over the 1-dim samples breaks the square rule of sum-strong
        # and the adjoint rule of sum-disjoint and pseudo-dual
        *(
            ["construct", PAIR_DOC, recipe, *names, "--l1", "[[[1,0],[0,0]]]", "-o", "x.json"]
            for recipe, names in (("sum-strong", ("lam", "ortho")),
                                  ("sum-disjoint", ("lam", "theta")),
                                  ("pseudo-dual", ("lam", "ortho")))
        ),
    ],
)
@pytest.mark.filterwarnings("error")  # a warning beside the error line breaks the contract
def test_bad_input_or_option_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: gframes ") and err == ""


def test_generated_non_frame_is_a_failed_check(tmp_path, capsys):
    # the rank cutoff of --rank-factor 1e300 rejects every draw; the draw is
    # written and reported, not redrawn
    out_path = tmp_path / "gen.json"
    argv = ["generate", "--kind", "frame", "--seed", "3", "--block-dims", "1,1,2",
            "--domain-dim", "3", "--rank-factor", "1e300", "-o", str(out_path)]
    assert run_command(argv) == 1
    out, err = capsys.readouterr()
    assert err == "" and "check is-frame: FAIL (" in out and out.endswith("overall: FAIL\n")
    assert load_document(str(out_path)).families["frame"].domain_dim == 3


@pytest.mark.parametrize("size", ["99999999999999999999", "9223372036854775807"])
@pytest.mark.parametrize(
    "kind",
    [
        ["frame", "--domain-dim", "1"],
        ["strongly-disjoint-pair", "--dim-first", "1", "--dim-second", "1"],
    ],
    ids=["frame", "pair"],
)
def test_an_oversized_generate_request_is_a_usage_error(size, kind, tmp_path, capsys):
    # numpy rejects each of these sizes before it allocates anything
    argv = ["generate", "--kind", *kind, "--block-dims", size, "-o", str(tmp_path / "x.json")]
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: requested ") and err.count("\n") == 1
    assert size in err and not (tmp_path / "x.json").exists()


def test_every_package_error_is_a_usage_error(monkeypatch, capsys):
    class NewFault(GFrameError):
        pass

    def command(args, tol):
        raise NewFault("a fault of a new kind")

    monkeypatch.setitem(cli._COMMANDS, "analyze", command)
    assert run_command(["analyze", PAIR_DOC, "lam"]) == 2
    assert capsys.readouterr() == ("", "error: a fault of a new kind\n")


def test_singular_frame_operator_is_a_failed_hypothesis(tmp_path, monkeypatch, capsys):
    assert issubclass(SingularOperatorError, PreconditionError)
    monkeypatch.chdir(tmp_path)
    space = MeasureSpace([1.0, 2.0])
    flat = GFrameFamily(space, 2, ([[1.0, 0.0]], [[2.0, 0.0]]))  # no frame: rank 1 < 2
    save_document(FrameDocument(space, {"flat": flat}), "flat.json")
    assert run_command(["construct", "flat.json", "canonical-dual", "flat", "-o", "x.json"]) == 1
    err = "error: failed hypothesis: family is not a frame (min eigenvalue 0.000e+00)\n"
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("error")  # a warning beside the error line breaks the contract
def test_tiny_surjective_first_operator_is_a_range_error_naming_it(tmp_path, monkeypatch, capsys):
    # sigma(L1) = 1e-320 clears the rank cutoff, but its reciprocal is past the float range
    monkeypatch.chdir(tmp_path)
    argv = ["construct", PAIR_DOC, "pseudo-dual", "lam", "ortho", "--l1", "[[[1e-320,0]]]",
            "-o", "x.json"]
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: L1 cannot be inverted in floating point (sigma 1.000e-320)\n"
    assert not (tmp_path / "x.json").exists()


# the recipes that take --l1/--l2, with a sample pair that meets their hypotheses
_OPERATOR_RECIPES = {"sum-disjoint": ("lam", "theta"), "sum-strong": ("lam", "ortho"),
                     "pseudo-dual": ("lam", "ortho")}


@settings(max_examples=150, deadline=None)
@given(
    recipe=st.sampled_from(sorted(_OPERATOR_RECIPES)),
    flag=st.sampled_from(["--l1", "--l2"]),
    entry=st.builds(
        "{}{!r}e{}".format,
        st.sampled_from(["", "-"]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-323, 308),
    ),
)
@example(recipe="sum-disjoint", flag="--l1", entry="1e200")
@example(recipe="sum-disjoint", flag="--l1", entry="1e-200")
@example(recipe="sum-disjoint", flag="--l1", entry="1e-320")
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy warnings break the contract
def test_operator_magnitudes_keep_the_exit_contract(recipe, flag, entry, tmp_path_factory):
    out_path = str(tmp_path_factory.getbasetemp() / "operator-magnitudes.json")
    argv = ["construct", PAIR_DOC, recipe, *_OPERATOR_RECIPES[recipe],
            flag, f"[[[{entry}, 0]]]", "-o", out_path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
    assert (out.getvalue() == "") == (lines != [])  # a report or the error line, not both


def _document(weights, blocks) -> str:
    family = {"domain_dim": 1, "block_dims": [1] * len(weights), "blocks": blocks}
    return json.dumps(
        {"format_version": "1", "measure_space": {"weights": weights}, "families": {"a": family}}
    )


@pytest.mark.parametrize(
    "content",
    [
        _document([1e308, 1e308], [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]).encode(),
        _document([1.0, 1.0], [[[[1e200, 0.0]]], [[[1.0, 0.0]]]]).encode(),
        b"\xff\xfe{}",
        b"[" * 100_000,
        b"1" * 5000,
    ],
    ids=["weights-overflow", "entries-overflow", "not-utf8", "nesting", "long-integer"],
)
@pytest.mark.parametrize(
    "command", [["analyze", "doc.json", "a"], ["disjoint", "doc.json", "a", "a"]]
)
def test_unusable_document_is_usage_error(content, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_bytes(content)
    assert run_command(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_import_leaves_the_verify_suite_unloaded():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, gframes.cli\n"
        "assert 'gframes.verification' not in sys.modules, 'verification loaded'\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded'\n"
        "import gframes\n"
        "from gframes import SuiteReport\n"
        "assert gframes.run_suite.__module__ == 'gframes.verification'\n"
        "assert SuiteReport.__module__ == 'gframes.verification'\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_unknown_package_attribute_is_an_attribute_error():
    import gframes

    with pytest.raises(AttributeError, match="no_such_name"):
        gframes.no_such_name


EXPECTED = os.path.join(SAMPLES, "expected")
GOLDEN_RUNS = [
    *((f"analyze-{name}.json", ["analyze", "samples/pair.json", name]) for name in
      ("identity", "lam", "theta", "ortho")),
    ("analyze-near.json", ["analyze", "samples/near_cutoff.json", "near"]),
    *((f"disjoint-lam-{name}.json", ["disjoint", "samples/pair.json", "lam", name]) for name in
      ("theta", "ortho")),
    ("verify-seed0-cases20.json", ["verify", "--seed", "0", "--cases", "20"]),
    *((f"verify-seed{seed}-cases50.json", ["verify", "--seed", str(seed), "--cases", "50"])
      for seed in (0, 7, 101)),
]


@pytest.mark.parametrize("expected, argv", GOLDEN_RUNS, ids=[name for name, _ in GOLDEN_RUNS])
def test_json_reports_match_the_golden_outputs_byte_for_byte(expected, argv, capsys, monkeypatch):
    # the reports echo their argv, so the documents are named as from the repository root
    monkeypatch.chdir(os.path.join(SAMPLES, ".."))
    assert run_command([*argv, "--format", "json"]) == 0
    with open(os.path.join(EXPECTED, expected), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


GOLDEN_CONSTRUCTIONS = [
    (
        ["construct", "samples/pair.json", "gamma", "lam", "theta", "--format", "json",
         "-o", "gamma.json"],
        {"construct-gamma.json": None, "construct-gamma-document.json": "gamma.json"},
    ),
    (
        ["construct", "samples/pair.json", "sum-strong", "lam", "ortho",
         "--l1", "[[[3,0]]]", "--l2", "[[[4,0]]]", "-o", "sum.json"],
        {"construct-sum-strong-document.json": "sum.json"},
    ),
]


@pytest.mark.parametrize(
    "argv, goldens", GOLDEN_CONSTRUCTIONS, ids=[argv[2] for argv, _ in GOLDEN_CONSTRUCTIONS]
)
def test_constructions_match_the_golden_outputs_byte_for_byte(
    argv, goldens, tmp_path, capsys, monkeypatch
):
    # the report echoes its argv and the output path, so both are named as from a
    # directory holding samples/pair.json; None stands for the report itself
    (tmp_path / "samples").mkdir()
    shutil.copy(PAIR_DOC, tmp_path / "samples")
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 0
    report = capsys.readouterr().out
    for expected, path in goldens.items():
        actual = report if path is None else (tmp_path / path).read_text(encoding="utf-8")
        with open(os.path.join(EXPECTED, expected), encoding="utf-8") as handle:
            assert actual == handle.read(), expected
