"""The three workloads: what one pass runs and how its outputs are checked.

Each workload has

* ``build(seed)``: make the inputs from the seed (part of set-up);
* ``warm_up()``: one pass over the same operations on a small instance,
  returning the problems its checks found;
* ``run_pass(k)``: the timed pass ``k``, returning the raw outputs;
* ``check(k, outputs)``: ``(attempted, failed, problems)`` for that pass.

``gframes`` is imported lazily through ``import gframes as g`` and every call
goes through the package namespace, so the tracer's patches are seen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import oracles
from oracles import Problems
from tracing import CLI_INVOCATIONS, TRACE_PASSES, merge, summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def _pass_seed(seed: int, tag: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, tag, k]).generate_state(1)[0])


def quadrature_instance(rng, atoms: int, domain_dim: int) -> dict:
    """A Fourier quadrature pair plus the operators ``c1 U1``, ``c2 U2`` of its strong sum."""
    pair = oracles.fourier_pair(rng, atoms, domain_dim)
    c1, c2 = rng.uniform(0.5, 2.0, 2)
    return {
        "pair": pair,
        "c1": float(c1),
        "c2": float(c2),
        "u1": oracles.random_unitary(rng, domain_dim),
        "u2": oracles.random_unitary(rng, domain_dim),
    }


def hand_values(g) -> tuple:
    """The README example computed by gframes."""
    space = g.MeasureSpace([1.0, 1.0])
    lam = g.GFrameFamily(space=space, domain_dim=1, blocks=([1.0], [0.0]))
    theta = g.GFrameFamily(space=space, domain_dim=1, blocks=([1.0], [1.0]))
    return (
        g.frame_bounds(theta).upper_bound,
        g.classify(lam, theta).disjoint,
        g.frame_bounds(g.gamma_family(lam, theta)).lower_bound,
        g.riesz_check(theta).is_riesz_type,
    )


class Suite:
    """``run_suite``, the engine behind ``gframes verify``, at its default 50 cases."""

    name = "suite"
    in_process = True
    CASES = 50
    WARM_CASES = 2

    def build(self, seed: int) -> None:
        import gframes

        self.g = gframes
        self.seed = seed

    def warm_up(self) -> list[str]:
        return self.check(-1, self._pass(_pass_seed(self.seed, 0, 0), self.WARM_CASES))[2]

    def _pass(self, master_seed: int, cases: int):
        return self.g.run_suite(master_seed, cases), hand_values(self.g)

    def run_pass(self, k: int):
        return self._pass(_pass_seed(self.seed, 1, k), self.CASES)

    def check(self, k: int, outputs):
        report, hand = outputs
        problems = Problems()
        for result in report.results:
            problems.expect(result.passed, f"suite check {result.name}: {list(result.failures)[:1]}")
        problems.expect(len(report.results) == 24, f"suite ran {len(report.results)} checks, not 24")
        oracles.check_hand_values(problems, *hand)
        return len(report.results) + len(hand), 0, problems


class Atoms:
    """Midpoint-quadrature Fourier families: the continuous setting made finite."""

    name = "atoms"
    in_process = True
    ATOMS = 8000
    WARM_ATOMS = 256
    DOMAIN_DIM = 24

    def build(self, seed: int) -> None:
        import gframes

        self.g = gframes
        self.full = self._instance(np.random.default_rng([seed, 2]), self.ATOMS)
        self.small = self._instance(np.random.default_rng([seed, 2, 0]), self.WARM_ATOMS)

    def _instance(self, rng, atoms: int) -> dict:
        inst = quadrature_instance(rng, atoms, self.DOMAIN_DIM)
        pair = inst["pair"]
        inst["a"] = float(rng.uniform(0.5, 2.0))
        inst["toeplitz"] = oracles.toeplitz_frame_operator(pair.t, pair.varied_weights, pair.k1)
        return inst

    def warm_up(self) -> list[str]:
        return self._check(self.small, self._pass(self.small))[2]

    def _pass(self, inst: dict) -> dict:
        g, pair = self.g, inst["pair"]
        d = pair.domain_dim
        space = g.MeasureSpace(pair.weights)
        lam = g.GFrameFamily(space=space, domain_dim=d, blocks=pair.blocks1)
        theta = g.GFrameFamily(space=space, domain_dim=d, blocks=pair.blocks2)
        varied = g.GFrameFamily(space=g.MeasureSpace(pair.varied_weights), domain_dim=d, blocks=pair.blocks1)
        u1, a = inst["u1"], inst["a"]
        gamma = g.gamma_family(lam, theta)
        return {
            "frame_bounds": g.frame_bounds(lam),
            "varied_bounds": g.frame_bounds(varied),
            "riesz": g.riesz_check(lam),
            "classify": g.classify(lam, theta),
            "gamma": gamma,
            "gamma_bounds": g.frame_bounds(gamma),
            "dual": g.canonical_dual(lam),
            "varied_parseval": g.parseval_normalize(varied),
            "sum": g.strongly_disjoint_sum(
                lam, theta, g.OperatorPair(inst["c1"] * u1, inst["c2"] * inst["u2"])
            ),
            "mixed": g.mixed_construction(lam, lam, a * u1, u1 / a),
        }

    def run_pass(self, k: int) -> dict:
        return self._pass(self.full)

    def check(self, k: int, outputs: dict):
        return self._check(self.full, outputs)

    @staticmethod
    def _check(inst: dict, out: dict):
        p = Problems()
        pair = inst["pair"]
        d = pair.domain_dim
        khat = int(pair.dims.sum())
        lam = oracles.stack(pair.blocks1)
        theta = oracles.stack(pair.blocks2)
        u1, u2, c1, c2, a = inst["u1"], inst["u2"], inst["c1"], inst["c2"], inst["a"]

        oracles.check_parseval(p, "frame_bounds(lam)", out["frame_bounds"])

        toeplitz = inst["toeplitz"]
        rep = out["varied_bounds"]
        p.expect(oracles.close(rep.frame_operator, toeplitz), "varied weights: frame operator != Toeplitz sums")
        evals = np.linalg.eigvalsh(toeplitz)
        oracles.check_bounds(p, "varied weights", rep.lower_bound, rep.upper_bound, evals[0], evals[-1])

        riesz = out["riesz"]
        p.expect(not riesz.is_riesz_type, "riesz_check: Parseval family with d < N reported Riesz-type")
        p.expect(riesz.analysis_rank == d, f"riesz_check: rank {riesz.analysis_rank} != {d}")
        p.expect(riesz.khat_dim == khat, f"riesz_check: khat_dim {riesz.khat_dim} != {khat}")
        p.expect(oracles.near(riesz.synthesis_upper_bound, 1.0), "riesz_check: synthesis upper bound != 1")
        p.expect(riesz.synthesis_lower_bound == 0.0, "riesz_check: synthesis lower bound != 0")

        rel = out["classify"]
        p.expect(bool(rel.strongly_disjoint), "classify: disjoint frequency sets not strongly disjoint")
        p.expect(bool(rel.disjoint) and bool(rel.weakly_disjoint), "classify: pair not disjoint")
        p.expect(not rel.complementary_pair, "classify: pair reported complementary")
        p.expect(not rel.strongly_complementary_pair, "classify: pair reported strongly complementary")
        p.expect(rel.cross_operator_norm <= oracles.REL, f"classify: cross norm {rel.cross_operator_norm}")
        p.expect(
            (rel.range_intersection_dim, rel.range_sum_dim, rel.khat_dim) == (0, 2 * d, khat),
            "classify: dimensions differ from (0, 2d, N)",
        )

        gamma = out["gamma"]
        p.expect(gamma.domain_dim == 2 * d, "gamma_family: domain is not 2d")
        p.expect(oracles.close(oracles.stack(gamma.blocks), np.hstack([lam, theta])), "gamma_family: blocks")
        oracles.check_parseval(p, "frame_bounds(gamma)", out["gamma_bounds"])

        p.expect(oracles.close(oracles.stack(out["dual"].blocks), lam), "canonical_dual of a Parseval family")

        inv_root = oracles.hermitian_power(toeplitz, -0.5)
        p.expect(
            oracles.close(oracles.stack(out["varied_parseval"].blocks), lam @ inv_root),
            "parseval_normalize: blocks != block @ T^(-1/2)",
        )

        strong = out["sum"]
        scale = c1**2 + c2**2
        p.expect(oracles.near(strong.scale, scale), f"strongly_disjoint_sum: scale {strong.scale} != {scale}")
        oracles.check_bounds(p, "strongly_disjoint_sum", strong.report.lower_bound, strong.report.upper_bound, scale, scale)
        p.expect(bool(strong.report.is_tight), "strongly_disjoint_sum: not tight")
        p.expect(
            oracles.close(oracles.stack(strong.family.blocks), c1 * lam @ u1 + c2 * theta @ u2),
            "strongly_disjoint_sum: blocks",
        )

        mixed = out["mixed"]
        bound = (a + 1.0 / a) ** 2
        oracles.check_bounds(p, "mixed_construction", mixed.lower_bound, mixed.upper_bound, bound, bound)
        p.expect(oracles.near(mixed.upper_certificate, bound), "mixed_construction: certificate")
        p.expect(bool(mixed.sandwich_ok) and bool(mixed.criteria_agree), "mixed_construction: verdicts")
        p.expect(not mixed.riesz_report.is_riesz_type, "mixed_construction: reported Riesz-type")
        p.expect(
            oracles.close(oracles.stack(mixed.family.blocks), (a + 1.0 / a) * lam @ u1), "mixed_construction: blocks"
        )
        return len(out), 0, p


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _matrix_flag(matrix: np.ndarray) -> str:
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in matrix])


def parse_human_report(text: str) -> dict:
    """``report NAME: k=v ...`` lines of the human format, plus ``overall``."""
    reports = {}
    for line in text.splitlines():
        if line.startswith("report "):
            name, _, body = line[len("report ") :].partition(": ")
            reports[name] = dict(item.split("=", 1) for item in body.split())
        elif line.startswith("overall: "):
            reports["overall"] = line.split(": ", 1)[1]
    return reports


class Cli:
    """Whole ``gframes`` invocations, one child process each, as a user runs them.

    Every invocation goes through ``launch.py``, which calls
    ``gframes.cli.main`` and, in a traced run, installs the tracer first.
    Two invocations fail on every pass because of known faults, on inputs
    that do not depend on the seed: ``disjoint --format json`` on the README
    pair (its report holds a ``numpy.bool_``), and a missing input file
    (documented exit status 2).
    """

    name = "cli"
    in_process = False
    ATOMS = 2500
    WARM_ATOMS = 40
    DOMAIN_DIM = 4

    def __init__(self, work: str):
        self.work = work
        self.trace_dir = None
        self.child_spans = []  # raw spans of every traced child, written out at the end
        self.traced_passes = []  # per traced pass: (child seconds by kind, span summary)

    def build(self, seed: int) -> None:
        self.full = self._instance(np.random.default_rng([seed, 3]), self.ATOMS, "pass")
        self.small = self._instance(np.random.default_rng([seed, 3, 0]), self.WARM_ATOMS, "warm")
        self.hand = os.path.join(self.work, "hand.json")
        one = np.ones((1, 1))
        oracles.write_document(
            self.hand, [1.0, 1.0], {"lam": (1, [one, 0 * one]), "theta": (1, [one, one])}
        )

    def _instance(self, rng, atoms: int, tag: str) -> dict:
        inst = quadrature_instance(rng, atoms, self.DOMAIN_DIM)
        pair = inst["pair"]
        inst["generate_seed"] = int(rng.integers(0, 2**31))
        inst["doc"] = os.path.join(self.work, f"{tag}-pair.json")
        inst["out"] = os.path.join(self.work, tag)
        os.makedirs(inst["out"], exist_ok=True)
        oracles.write_document(
            inst["doc"], pair.weights, {"lam": (pair.domain_dim, pair.blocks1), "theta": (pair.domain_dim, pair.blocks2)}
        )
        return inst

    def invocations(self, inst: dict) -> list[tuple]:
        """``(kind, gframes arguments, checker)`` in the order one pass runs them."""
        pair, doc, out = inst["pair"], inst["doc"], inst["out"]
        d = str(pair.domain_dim)
        return [
            ("generate", ["generate", "--kind", "strongly-disjoint-pair", "--seed", str(inst["generate_seed"]),
                          "--block-dims", ",".join(str(int(b)) for b in pair.dims),
                          "--dim-first", d, "--dim-second", d, "-o", os.path.join(out, "generated.json"),
                          "--format", "json"], self._check_generate),
            ("analyze", ["analyze", doc, "lam", "--format", "json"], self._check_analyze),
            ("disjoint", ["disjoint", doc, "lam", "theta"], self._check_disjoint),
            ("construct_canonical_dual", ["construct", doc, "canonical-dual", "lam",
                                          "-o", os.path.join(out, "dual.json"), "--format", "json"],
             self._check_canonical_dual),
            ("construct_gamma", ["construct", doc, "gamma", "lam", "theta",
                                 "-o", os.path.join(out, "gamma.json"), "--format", "json"], self._check_gamma),
            ("construct_sum_strong", ["construct", doc, "sum-strong", "lam", "theta",
                                      "--l1", _matrix_flag(inst["c1"] * inst["u1"]),
                                      "--l2", _matrix_flag(inst["c2"] * inst["u2"]),
                                      "-o", os.path.join(out, "sum.json"), "--format", "json"],
             self._check_sum_strong),
            ("disjoint_json_hand", ["disjoint", self.hand, "lam", "theta", "--format", "json"],
             self._check_disjoint_hand),
            ("missing_input", ["analyze", os.path.join(self.work, "missing.json"), "lam", "--format", "json"],
             self._check_missing_input),
        ]

    def _run_all(self, inst: dict, trace_tag: str | None) -> list[dict]:
        results = []
        for kind, argv, check in self.invocations(inst):
            cmd = [sys.executable, os.path.join(HERE, "launch.py")]
            trace_file = None
            if trace_tag is not None:
                trace_file = os.path.join(self.trace_dir, f"{trace_tag}-{kind}.json")
                cmd += ["--trace-out", trace_file]
            start = time.perf_counter()
            proc = subprocess.run(cmd + argv, capture_output=True, text=True, timeout=120)
            seconds = time.perf_counter() - start
            results.append({"kind": kind, "proc": proc, "seconds": seconds, "trace": trace_file, "check": check})
        return results

    def warm_up(self) -> list[str]:
        return self._check(self.small, self._run_all(self.small, None))[2]

    def run_pass(self, k: int) -> list[dict]:
        traced = self.trace_dir is not None and k < TRACE_PASSES
        return self._run_all(self.full, f"pass{k}" if traced else None)

    def check(self, k: int, outputs: list[dict]):
        if outputs and outputs[0]["trace"]:
            summary = {}
            for item in outputs:
                with open(item["trace"], "r", encoding="utf-8") as handle:
                    spans = json.load(handle)
                self.child_spans.append({"pass": k, "kind": item["kind"], **spans})
                merge(summary, summarize(spans["names"], spans["spans"]))
            self.traced_passes.append(({o["kind"]: o["seconds"] for o in outputs}, summary))
        return self._check(self.full, outputs)

    def _check(self, inst: dict, outputs: list[dict]):
        problems = Problems()
        failed = 0
        for item in outputs:
            failed += 0 if item["check"](inst, item["proc"], problems) else 1
        return len(outputs), failed, problems

    # Each checker returns False when the invocation failed (wrong exit status
    # or no report); wrong content in a completed invocation goes to problems.

    def _json_report(self, proc, problems, label):
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return None
        try:
            return json.loads(proc.stdout)
        except json.JSONDecodeError:
            problems.append(f"{label}: exit 0 without a JSON report")
            return None

    def _check_generate(self, inst, proc, problems):
        report = self._json_report(proc, problems, "generate")
        if report is None:
            return False
        problems.expect(report.get("passed") is True, "generate: report not passed")
        pair = inst["pair"]
        path = os.path.join(inst["out"], "generated.json")
        try:
            first = oracles.read_family(path, "first")
            second = oracles.read_family(path, "second")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"generate: cannot re-read {path}: {exc}")
            return True
        d = pair.domain_dim
        problems.expect(first.block_dims == [int(b) for b in pair.dims], "generate: block dims differ")
        problems.expect(first.domain_dim == d and second.domain_dim == d, "generate: domain dims differ")
        problems.expect(bool(np.all((first.weights >= 0.5) & (first.weights <= 2.0))), "generate: weights out of range")
        a, b = first.embedded(), second.embedded()
        problems.expect(oracles.close(a.conj().T @ a, np.eye(d)), "generate: first family not Parseval")
        problems.expect(oracles.close(b.conj().T @ b, np.eye(d)), "generate: second family not Parseval")
        problems.expect(oracles.close(a.conj().T @ b, np.zeros((d, d))), "generate: pair not strongly disjoint")
        return True

    def _check_analyze(self, inst, proc, problems):
        report = self._json_report(proc, problems, "analyze")
        if report is None:
            return False
        pair = inst["pair"]
        frame = report.get("reports", {}).get("frame", {})
        riesz = report.get("reports", {}).get("riesz", {})
        problems.expect(report.get("passed") is True, "analyze: report not passed")
        oracles.check_bounds(problems, "analyze", frame.get("lower_bound", 0), frame.get("upper_bound", 0), 1.0, 1.0)
        problems.expect(frame.get("is_parseval") is True, "analyze: not Parseval")
        problems.expect(riesz.get("is_riesz_type") is False, "analyze: reported Riesz-type")
        problems.expect(riesz.get("analysis_rank") == pair.domain_dim, "analyze: analysis rank")
        problems.expect(riesz.get("khat_dim") == int(pair.dims.sum()), "analyze: khat dim")
        return True

    def _check_disjoint(self, inst, proc, problems):
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return False
        pair = inst["pair"]
        reports = parse_human_report(proc.stdout)
        rel = reports.get("relations", {})
        expected = {
            "strongly_disjoint": "True",
            "disjoint": "True",
            "weakly_disjoint": "True",
            "complementary_pair": "False",
            "strongly_complementary_pair": "False",
            "range_intersection_dim": "0",
            "range_sum_dim": str(2 * pair.domain_dim),
            "khat_dim": str(int(pair.dims.sum())),
        }
        for key, value in expected.items():
            problems.expect(rel.get(key) == value, f"disjoint: {key}={rel.get(key)}, expected {value}")
        problems.expect(reports.get("pair_family", {}).get("is_parseval") == "True", "disjoint: pair family not Parseval")
        problems.expect(reports.get("overall") == "PASS", "disjoint: overall not PASS")
        return True

    def _construct(self, inst, proc, problems, label, scale):
        report = self._json_report(proc, problems, label)
        if report is None:
            return None
        problems.expect(report.get("passed") is True, f"{label}: report not passed")
        result = report.get("reports", {}).get("result", {})
        oracles.check_bounds(problems, label, result.get("lower_bound", 0), result.get("upper_bound", 0), scale, scale)
        return report

    def _check_canonical_dual(self, inst, proc, problems):
        if self._construct(inst, proc, problems, "construct canonical-dual", 1.0) is None:
            return False
        pair = inst["pair"]
        path = os.path.join(inst["out"], "dual.json")
        oracles.check_document_family(problems, path, "canonical_dual", pair.weights, pair.blocks1)
        return True

    def _check_gamma(self, inst, proc, problems):
        if self._construct(inst, proc, problems, "construct gamma", 1.0) is None:
            return False
        pair = inst["pair"]
        path = os.path.join(inst["out"], "gamma.json")
        expected = [np.hstack([x, y]) for x, y in zip(pair.blocks1, pair.blocks2)]
        oracles.check_document_family(problems, path, "gamma", pair.weights, expected)
        return True

    def _check_sum_strong(self, inst, proc, problems):
        scale = inst["c1"] ** 2 + inst["c2"] ** 2
        report = self._construct(inst, proc, problems, "construct sum-strong", scale)
        if report is None:
            return False
        problems.expect(
            oracles.near(report.get("reports", {}).get("result", {}).get("scale", 0), scale),
            "construct sum-strong: scale",
        )
        pair = inst["pair"]
        l1, l2 = inst["c1"] * inst["u1"], inst["c2"] * inst["u2"]
        expected = [x @ l1 + y @ l2 for x, y in zip(pair.blocks1, pair.blocks2)]
        fam = oracles.check_document_family(
            problems, os.path.join(inst["out"], "sum.json"), "sum", pair.weights, expected
        )
        if fam is not None:
            a = fam.embedded()
            problems.expect(oracles.close(a.conj().T @ a, scale * np.eye(a.shape[1])), "sum.json: not tight at scale")
        return True

    def _check_disjoint_hand(self, inst, proc, problems):
        report = self._json_report(proc, problems, "disjoint --format json")
        if report is None:
            return False
        rel = report.get("reports", {}).get("relations", {})
        expected = {
            "strongly_disjoint": False,
            "disjoint": True,
            "weakly_disjoint": True,
            "complementary_pair": True,
            "strongly_complementary_pair": False,
            "range_intersection_dim": 0,
            "range_sum_dim": 2,
            "khat_dim": 2,
        }
        for key, value in expected.items():
            problems.expect(rel.get(key) == value, f"disjoint --format json: {key}={rel.get(key)}")
        problems.expect(oracles.near(rel.get("cross_operator_norm", 0), 1.0), "disjoint --format json: cross norm")
        problems.expect(report.get("passed") is True, "disjoint --format json: report not passed")
        return True

    def _check_missing_input(self, inst, proc, problems):
        return proc.returncode == 2 and "Traceback" not in proc.stderr and proc.stderr.startswith("error:")

    def traced_layers(self) -> tuple[dict, dict]:
        """Summed spans and per-kind child seconds over the traced passes."""
        summary, seconds = {}, {kind: 0.0 for kind in CLI_INVOCATIONS}
        for kinds, spans in self.traced_passes:
            merge(summary, spans)
            for kind, value in kinds.items():
                seconds[kind] += value
        return summary, seconds


def make(name: str, work: str):
    if name == "suite":
        return Suite()
    if name == "atoms":
        return Atoms()
    return Cli(work)

