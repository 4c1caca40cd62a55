"""Command line interface: analyze, disjoint, construct, generate, verify.

Every command emits a run report (human-readable lines or ``--format json``)
in which each boolean verdict is accompanied by the numbers it was derived
from.  Exit status: 0 when all verdicts pass, 1 on a failed check or failed
hypothesis (``PreconditionError``), 2 on any other error (``GFrameError``, ``OSError``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import _linalg
from .analysis import (
    canonical_dual,
    dual_check,
    frame_bounds,
    frame_check,
    parseval_check,
    parseval_normalize,
)
from .constructions import (
    direct_sum_duals,
    disjoint_sum_family,
    lift_continuous_frame,
    pseudo_dual,
    random_gframe,
    random_strongly_disjoint_parseval_pair,
    strongly_disjoint_sum,
)
from .disjointness import classify, normalized_pair, pair_equivalences
from .documents import FrameDocument, load_document, parse_matrix, save_document
from .errors import GFrameError, PreconditionError
from .model import GFrameFamily, OperatorPair
from .riesz import riesz_check


class UsageError(GFrameError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageErrors, so that a bad command
    line ends on one ``error:`` line like every other usage error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gframes",
        description="Numerical workbench for g-frame families over finite weighted measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("analyze", help="frame bounds and Riesz-type report for one family")
    p.add_argument("file")
    p.add_argument("family")
    common(p)

    p = sub.add_parser("disjoint", help="disjointness relations of a family pair, with cross-checks")
    p.add_argument("file")
    p.add_argument("family_a")
    p.add_argument("family_b")
    common(p)

    p = sub.add_parser("construct", help="run a construction recipe and write the result document")
    p.add_argument("file")
    p.add_argument("recipe", choices=tuple(_RECIPES))
    p.add_argument("families", nargs="+", help="family names from the input document")
    p.add_argument("--l1", help="operator as JSON rows of [re, im] entries")
    p.add_argument("--l2", help="operator as JSON rows of [re, im] entries")
    p.add_argument("-o", "--output", required=True, help="output document path")
    common(p)

    p = sub.add_parser("generate", help="write a document with generated families")
    p.add_argument("--kind", choices=("frame", "strongly-disjoint-pair"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block-dims", required=True, help="comma-separated, e.g. 1,1,2")
    p.add_argument("--domain-dim", type=int, help="for --kind frame")
    p.add_argument("--dim-first", type=int, help="for --kind strongly-disjoint-pair")
    p.add_argument("--dim-second", type=int, help="for --kind strongly-disjoint-pair")
    p.add_argument("-o", "--output", required=True)
    common(p)

    p = sub.add_parser("verify", help="run the full randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    common(p)

    return parser


def _family(doc: FrameDocument, name: str) -> GFrameFamily:
    if name not in doc.families:
        known = ", ".join(sorted(doc.families)) or "(none)"
        raise UsageError(f"unknown family '{name}'; document has: {known}")
    return doc.families[name]


def _operator_pair(args, dim: int) -> OperatorPair:
    """The --l1/--l2 operators, each defaulting to the identity on ``dim``."""
    eye = np.eye(dim)
    l1 = eye if args.l1 is None else parse_matrix(args.l1, "--l1")
    l2 = eye if args.l2 is None else parse_matrix(args.l2, "--l2")
    return OperatorPair(l1, l2)


def _check(name: str, passed: bool, **numbers) -> dict:
    return {"name": name, "passed": bool(passed), **numbers}


def _checks(checks) -> list[dict]:
    """Report entries of library ``(name, passed, numbers)`` checks."""
    return [_check(name, passed, **numbers) for name, passed, numbers in checks]


def _write_document(path: str, families: dict[str, GFrameFamily]) -> dict:
    """Save ``families`` as one document over their shared space; the output report."""
    space = next(iter(families.values())).space
    save_document(FrameDocument(space, families), path)
    return {"path": path, "families": sorted(families)}


def _cmd_analyze(args) -> dict:
    doc = load_document(args.file)
    fam = _family(doc, args.family)
    rep = frame_bounds(fam)
    reports = {"frame": rep.numbers()}
    if rep.is_frame:
        reports["riesz"] = asdict(riesz_check(fam))
    return {"reports": reports, "checks": _checks([frame_check(fam)])}


def _cmd_disjoint(args) -> dict:
    doc = load_document(args.file)
    lam, theta = _family(doc, args.family_a), _family(doc, args.family_b)
    relations, gamma, checks = pair_equivalences(lam, theta)
    reports = {"relations": asdict(relations), "pair_family": frame_bounds(gamma).numbers()}
    return {"reports": reports, "checks": _checks(checks)}


# Construction recipes.  Each takes the first and the last named family (one
# and the same for one-family recipes) and returns the families to write, the
# frame numbers of the result (or None) and the checks its construction returns.


def _recipe_gamma(lam, theta, args):
    _, gamma, checks = pair_equivalences(lam, theta)
    return {"gamma": gamma}, frame_bounds(gamma).numbers(), checks


def _recipe_delta(lam, theta, args):
    delta, check = normalized_pair(lam, theta)
    return {"delta": delta}, frame_bounds(delta).numbers(), [check]


def _recipe_sum_disjoint(lam, theta, args):
    result = disjoint_sum_family(lam, theta, _operator_pair(args, lam.domain_dim))
    return {"sum": result.family}, result.report.numbers(), result.checks


def _recipe_sum_strong(lam, theta, args):
    result = strongly_disjoint_sum(lam, theta, _operator_pair(args, lam.domain_dim))
    numbers = {**result.report.numbers(), "scale": result.scale}
    return {"sum": result.family}, numbers, result.checks


def _recipe_pseudo_dual(lam, theta, args):
    result = pseudo_dual(lam, theta, _operator_pair(args, lam.domain_dim))
    families = {
        "pseudo_dual": result.dual_candidate,
        "sum": result.sum_family,
        "single": result.single_family,
    }
    return families, None, result.checks


def _recipe_canonical_dual(lam, theta, args):
    dual = canonical_dual(lam)
    check = dual_check("dual-pairing", dual, lam)
    return {"canonical_dual": dual}, frame_bounds(dual).numbers(), [check]


def _recipe_parseval(lam, theta, args):
    normalized = parseval_normalize(lam)
    return {"parseval": normalized}, None, [parseval_check(normalized)]


def _recipe_lift_example(lam, theta, args):
    lifted = lift_continuous_frame(lam, theta)
    families = {
        "lifted_lambda": lifted.lam,
        "lifted_theta": lifted.theta,
        "lifted_phi": lifted.phi,
        "lifted_psi": lifted.psi,
    }
    glued = direct_sum_duals(lifted.lam, lifted.theta, lifted.psi, lifted.phi)
    return families, None, glued.checks


# recipe name: (number of family names, recipe, takes --l1/--l2), in the order --help lists them
_RECIPES = {
    "gamma": (2, _recipe_gamma, False),
    "delta": (2, _recipe_delta, False),
    "sum-disjoint": (2, _recipe_sum_disjoint, True),
    "sum-strong": (2, _recipe_sum_strong, True),
    "pseudo-dual": (2, _recipe_pseudo_dual, True),
    "canonical-dual": (1, _recipe_canonical_dual, False),
    "parseval": (1, _recipe_parseval, False),
    "lift-example": (2, _recipe_lift_example, False),
}


def _cmd_construct(args) -> dict:
    doc = load_document(args.file)
    arity, recipe, takes_operators = _RECIPES[args.recipe]
    names = args.families
    if len(names) != arity:
        raise UsageError(f"recipe '{args.recipe}' needs exactly {arity} family name(s)")
    if not takes_operators and (args.l1 is not None or args.l2 is not None):
        raise UsageError(f"recipe '{args.recipe}' takes no --l1/--l2 operators")
    families, result, checks = recipe(_family(doc, names[0]), _family(doc, names[-1]), args)
    reports = {} if result is None else {"result": result}
    reports["output"] = _write_document(args.output, families)
    return {"reports": reports, "checks": _checks(checks)}


def _cmd_generate(args) -> dict:
    try:
        dims = tuple(int(part) for part in args.block_dims.split(","))
    except ValueError:
        raise UsageError("--block-dims must be comma-separated integers") from None
    checks = []
    if args.kind == "frame":
        if args.domain_dim is None:
            raise UsageError("--kind frame requires --domain-dim")
        fam = random_gframe(args.seed, dims, args.domain_dim)
        families = {"frame": fam}
        checks += _checks([frame_check(fam)])
    else:
        if args.dim_first is None or args.dim_second is None:
            raise UsageError("--kind strongly-disjoint-pair requires --dim-first and --dim-second")
        first, second = random_strongly_disjoint_parseval_pair(
            args.seed, dims, args.dim_first, args.dim_second
        )
        families = {"first": first, "second": second}
        report = classify(first, second)
        checks.append(
            _check(
                "strongly-disjoint",
                report.strongly_disjoint,
                cross_operator_norm=report.cross_operator_norm,
            )
        )
        rep_first, rep_second = frame_bounds(first), frame_bounds(second)
        checks.append(
            _check(
                "parseval",
                rep_first.is_parseval and rep_second.is_parseval,
                first_lower=rep_first.lower_bound,
                first_upper=rep_first.upper_bound,
                second_lower=rep_second.lower_bound,
                second_upper=rep_second.upper_bound,
            )
        )
    return {
        "seed": args.seed,
        "reports": {"output": _write_document(args.output, families)},
        "checks": checks,
    }


def _cmd_verify(args) -> dict:
    if args.cases < 1:
        raise UsageError(f"--cases must be >= 1, got {args.cases}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    from .verification import run_suite  # only this command loads the suite

    suite = run_suite(args.seed, args.cases)
    checks = [
        _check(result.name, result.passed, cases=result.cases, failures=list(result.failures))
        for result in suite.results
    ]
    return {"seed": suite.seed, "reports": {"suite": {"cases": suite.cases}}, "checks": checks}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "disjoint": _cmd_disjoint,
    "construct": _cmd_construct,
    "generate": _cmd_generate,
    "verify": _cmd_verify,
}


def _render_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        if value and all(isinstance(v, str) for v in value) and len(value) <= 8:
            return ",".join(value)
        return f"[{len(value)} items]" if value else "[]"
    return str(value)


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print("command:", " ".join(report["command"]))
    policy = report["tolerance"]
    print(f"tolerance: rel_eps={policy['rel_eps']:g} rank_eps_factor={policy['rank_eps_factor']:g}")
    if "seed" in report:
        print(f"seed: {report['seed']}")
    for name, numbers in report.get("reports", {}).items():
        rendered = " ".join(f"{k}={_render_value(v)}" for k, v in numbers.items())
        print(f"report {name}: {rendered}")
    for check in report.get("checks", []):
        body = " ".join(
            f"{k}={_render_value(v)}" for k, v in check.items() if k not in ("name", "passed")
        )
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"check {check['name']}: {verdict}" + (f" ({body})" if body else ""))
        if not check["passed"]:
            for failure in check.get("failures", [])[:5]:
                print(f"  - {failure}")
    print("overall:", "PASS" if report["passed"] else "FAIL")


def run_command(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        # an overflow ends the command with NumericalRangeError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            body = _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help; the parser's errors are UsageErrors
        return int(exc.code) if exc.code else 0
    except PreconditionError as exc:
        print(f"error: failed hypothesis: {exc}", file=sys.stderr)
        return 1
    except (GFrameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": list(argv),
        "tolerance": {"rel_eps": _linalg.REL_EPS, "rank_eps_factor": _linalg.RANK_EPS_FACTOR},
        **body,
    }
    report["passed"] = all(check["passed"] for check in report.get("checks", []))
    try:
        _print_report(report, args.format)
        sys.stdout.flush()
    except OSError as exc:  # such as a reader that closed the pipe early
        # what is left in the buffer goes nowhere, so the exit flush cannot fail again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["passed"] else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
