"""Self-tests of the benchmark's output checks and closed-form oracles.

    python3 -m pytest -q perfbench/selftest.py      # or: python3 perfbench/selftest.py

Every check must reject a deliberately corrupted output, and every
closed-form oracle must agree with ``gframes`` at a tiny size.  The file is
not named ``test_*.py`` so the package's own test run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gframes as g  # noqa: E402
import gframes.cli  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(HERE, "work", "selftest")


def _fresh_dir(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _scaled(fam, atom: int = 0, factor: float = 1.01):
    blocks = list(fam.blocks)
    blocks[atom] = blocks[atom] * factor
    return g.GFrameFamily(space=fam.space, domain_dim=fam.domain_dim, blocks=tuple(blocks))


def _tiny_atoms():
    wl = workloads.Atoms()
    wl.g = g
    wl.DOMAIN_DIM = 3
    inst = wl._instance(np.random.default_rng(5), 40)
    return wl, inst


# ---------------------------------------------------------------------------
# oracles agree with gframes
# ---------------------------------------------------------------------------


def test_fourier_family_is_parseval_and_pair_strongly_disjoint():
    pair = oracles.fourier_pair(np.random.default_rng(1), 30, 3)
    space = g.MeasureSpace(pair.weights)
    lam = g.GFrameFamily(space=space, domain_dim=3, blocks=pair.blocks1)
    theta = g.GFrameFamily(space=space, domain_dim=3, blocks=pair.blocks2)
    assert g.frame_bounds(lam).is_parseval
    assert g.classify(lam, theta).strongly_disjoint
    assert g.frame_bounds(g.gamma_family(lam, theta)).is_parseval


def test_toeplitz_oracle_matches_frame_operator():
    pair = oracles.fourier_pair(np.random.default_rng(2), 30, 3)
    varied = g.GFrameFamily(space=g.MeasureSpace(pair.varied_weights), domain_dim=3, blocks=pair.blocks1)
    toeplitz = oracles.toeplitz_frame_operator(pair.t, pair.varied_weights, pair.k1)
    assert oracles.close(g.frame_operator(varied), toeplitz)
    assert not oracles.close(g.frame_operator(varied), np.eye(3))


def test_hand_values_oracle_accepts_gframes_and_rejects_changes():
    problems = oracles.Problems()
    values = workloads.hand_values(g)
    oracles.check_hand_values(problems, *values)
    assert problems == []
    for i, wrong in enumerate((2.5, False, 0.4, True)):
        problems = oracles.Problems()
        oracles.check_hand_values(problems, *(values[:i] + (wrong,) + values[i + 1 :]))
        assert problems, f"hand value {i} corrupted to {wrong} was accepted"


def test_document_reader_and_writer_agree_with_gframes():
    work = _fresh_dir("documents")
    pair = oracles.fourier_pair(np.random.default_rng(3), 20, 2)
    ours = os.path.join(work, "ours.json")
    oracles.write_document(ours, pair.weights, {"lam": (2, pair.blocks1)})
    doc = g.load_document(ours)
    assert oracles.close(oracles.stack(doc.families["lam"].blocks), oracles.stack(pair.blocks1), 0.0)
    theirs = os.path.join(work, "theirs.json")
    g.save_document(doc, theirs)
    fam = oracles.read_family(theirs, "lam")
    assert oracles.close(oracles.stack(fam.blocks), oracles.stack(pair.blocks1), 0.0)
    assert oracles.close(fam.embedded(), g.analysis_matrix(doc.families["lam"]), 1e-15)


def test_human_report_parser_reads_gframes_output(capsys):
    path = os.path.join(_fresh_dir("human"), "pair.json")
    one = np.ones((1, 1))
    oracles.write_document(path, [1.0, 1.0], {"lam": (1, [one, 0 * one]), "ortho": (1, [0 * one, one])})
    assert g.cli.run_command(["disjoint", path, "lam", "ortho"]) == 0
    reports = workloads.parse_human_report(capsys.readouterr().out)
    assert reports["relations"]["strongly_disjoint"] == "True"
    assert reports["relations"]["khat_dim"] == "2"
    assert reports["overall"] == "PASS"


# ---------------------------------------------------------------------------
# checks reject corrupted outputs
# ---------------------------------------------------------------------------


def test_atoms_checks_accept_gframes_and_reject_corruptions():
    wl, inst = _tiny_atoms()
    out = wl._pass(inst)
    assert wl._check(inst, out)[2] == []
    corruptions = {
        "dual block scaled": {"dual": _scaled(out["dual"])},
        "gamma block scaled": {"gamma": _scaled(out["gamma"], atom=7)},
        "parseval block scaled": {"varied_parseval": _scaled(out["varied_parseval"])},
        "sum block scaled": {"sum": dataclasses.replace(out["sum"], family=_scaled(out["sum"].family))},
        "mixed block scaled": {"mixed": dataclasses.replace(out["mixed"], family=_scaled(out["mixed"].family))},
        "strong verdict flipped": {"classify": dataclasses.replace(out["classify"], strongly_disjoint=False)},
        "complementary flipped": {"classify": dataclasses.replace(out["classify"], complementary_pair=True)},
        "riesz flipped": {"riesz": dataclasses.replace(out["riesz"], is_riesz_type=True)},
        "sandwich flipped": {"mixed": dataclasses.replace(out["mixed"], sandwich_ok=False)},
        "parseval flipped": {"frame_bounds": dataclasses.replace(out["frame_bounds"], is_parseval=False)},
        "toeplitz mismatch": {
            "varied_bounds": dataclasses.replace(
                out["varied_bounds"], frame_operator=out["varied_bounds"].frame_operator * 1.001
            )
        },
        "bound off": {"gamma_bounds": dataclasses.replace(out["gamma_bounds"], lower_bound=0.999)},
    }
    for label, change in corruptions.items():
        assert wl._check(inst, {**out, **change})[2], f"atoms check accepted: {label}"


def test_suite_check_rejects_a_failed_check():
    wl = workloads.Suite()
    wl.build(0)
    report, hand = wl._pass(1, 1)
    assert wl.check(0, (report, hand))[2] == []
    broken = dataclasses.replace(report.results[0], failures=("case 0: corrupted",))
    report = dataclasses.replace(report, results=(broken, *report.results[1:]))
    assert wl.check(0, (report, hand))[2]


def _rewrite_json(path: str, edit) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        root = json.load(handle)
    edit(root)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(root, handle)


def _scale_first_block(name: str):
    def edit(root):
        block = root["families"][name]["blocks"][0]
        root["families"][name]["blocks"][0] = [[[1.01 * x for x in z] for z in row] for row in block]

    return edit


def test_cli_checks_accept_gframes_and_reject_corruptions():
    wl = workloads.Cli(_fresh_dir("cli"))
    wl.build(0)
    inst = wl.small
    outputs = {o["kind"]: o for o in wl._run_all(inst, None)}
    assert tuple(outputs) == tracing.CLI_INVOCATIONS
    attempted, failed, problems = wl._check(inst, list(outputs.values()))
    assert problems == []
    assert attempted == 8
    for kind, item in outputs.items():
        ok = item["check"](inst, item["proc"], oracles.Problems())
        assert ok or kind in ("disjoint_json_hand", "missing_input"), f"{kind} failed"

    def rejected(kind, proc=None):
        found = oracles.Problems()
        ok = outputs[kind]["check"](inst, proc or outputs[kind]["proc"], found)
        return (not ok) or bool(found)

    def with_stdout(kind, text):
        proc = outputs[kind]["proc"]
        return subprocess.CompletedProcess(proc.args, proc.returncode, text, proc.stderr)

    analyze = json.loads(outputs["analyze"]["proc"].stdout)
    analyze["reports"]["riesz"]["is_riesz_type"] = True
    assert rejected("analyze", with_stdout("analyze", json.dumps(analyze)))
    assert rejected("analyze", subprocess.CompletedProcess([], 1, outputs["analyze"]["proc"].stdout, ""))
    human = outputs["disjoint"]["proc"].stdout.replace("strongly_disjoint=True", "strongly_disjoint=False", 1)
    assert rejected("disjoint", with_stdout("disjoint", human))
    assert rejected("missing_input", subprocess.CompletedProcess([], 1, "", "Traceback ..."))

    out = inst["out"]
    _rewrite_json(os.path.join(out, "dual.json"), _scale_first_block("canonical_dual"))
    assert rejected("construct_canonical_dual")
    _rewrite_json(os.path.join(out, "sum.json"), _scale_first_block("sum"))
    assert rejected("construct_sum_strong")
    _rewrite_json(os.path.join(out, "generated.json"), _scale_first_block("first"))
    assert rejected("generate")
    gamma = os.path.join(out, "gamma.json")
    with open(gamma, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(gamma, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])
    assert rejected("construct_gamma")


# ---------------------------------------------------------------------------
# the benchmark itself
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        assert json.load(handle) == run.spec()


def test_refuses_to_run_without_the_sources():
    bare = _fresh_dir("bare")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
