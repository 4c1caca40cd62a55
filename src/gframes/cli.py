"""Command line interface: analyze, disjoint, construct, generate, verify.

Every command emits a run report (human-readable lines or ``--format json``)
in which each boolean verdict is accompanied by the numbers it was derived
from.  Exit status: 0 when all verdicts pass, 1 on a failed check or failed
construction hypothesis, 2 on usage or document errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from ._linalg import operator_norm
from .analysis import (
    canonical_dual,
    cross_operator,
    frame_bounds,
    is_dual_pair,
    parseval_normalize,
)
from .constructions import (
    ContinuousFrameSpec,
    OperatorPair,
    direct_sum_duals,
    disjoint_sum_family,
    lift_continuous_frame,
    pseudo_dual,
    random_gframe,
    random_strongly_disjoint_parseval_pair,
    strongly_disjoint_sum,
)
from .disjointness import classify, delta_family, gamma_family, kernel_triviality
from .documents import FORMAT_VERSION, FrameDocument, load_document, save_document
from .errors import (
    DocumentError,
    FamilyValidationError,
    GenerationError,
    GFrameError,
    PreconditionError,
    ShapeError,
    SingularOperatorError,
)
from .model import DEFAULT_TOL, GFrameFamily, TolerancePolicy
from .riesz import riesz_check
from .verification import run_suite


class UsageError(GFrameError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gframes",
        description="Numerical workbench for g-frame families over finite weighted measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL.rel_eps,
                       help="relative tolerance (default 1e-9)")
        p.add_argument("--rank-factor", type=float, default=DEFAULT_TOL.rank_eps_factor,
                       help="SVD rank cutoff factor (default 10)")
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
    p.add_argument(
        "recipe",
        choices=(
            "gamma",
            "delta",
            "sum-disjoint",
            "sum-strong",
            "pseudo-dual",
            "canonical-dual",
            "parseval",
            "lift-example",
        ),
    )
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
    p.add_argument("--weight-low", type=float, default=0.5)
    p.add_argument("--weight-high", type=float, default=2.0)
    p.add_argument("-o", "--output", required=True)
    common(p)

    p = sub.add_parser("verify", help="run the full randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    common(p)

    return parser


def _tolerance(args) -> TolerancePolicy:
    try:
        return TolerancePolicy(rel_eps=args.tol, rank_eps_factor=args.rank_factor)
    except ValueError as exc:
        raise UsageError(f"--tol/--rank-factor: {exc}") from None


def _family(doc: FrameDocument, name: str) -> GFrameFamily:
    if name not in doc.families:
        known = ", ".join(sorted(doc.families)) or "(none)"
        raise UsageError(f"unknown family '{name}'; document has: {known}")
    return doc.families[name]


def _parse_matrix_flag(text: str | None, name: str, default: np.ndarray) -> np.ndarray:
    if text is None:
        return default
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--{name} is not valid JSON: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise UsageError(f"--{name} must be a JSON array of rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            raise UsageError(f"--{name} row {i} must be a non-empty array")
        entries = []
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
            ):
                raise UsageError(f"--{name} entry [{i}][{j}] must be a [re, im] pair")
            entries.append(complex(entry[0], entry[1]))
        rows.append(entries)
    if len({len(r) for r in rows}) != 1:
        raise UsageError(f"--{name} rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def _operator_pair(args, dim: int) -> OperatorPair:
    """The --l1/--l2 operators, each defaulting to the identity on ``dim``."""
    eye = np.eye(dim)
    return OperatorPair(
        _parse_matrix_flag(args.l1, "l1", eye), _parse_matrix_flag(args.l2, "l2", eye)
    )


def _frame_numbers(rep) -> dict:
    return {k: v for k, v in asdict(rep).items() if k != "frame_operator"}


def _check(name: str, passed: bool, **numbers) -> dict:
    return {"name": name, "passed": bool(passed), **numbers}


def _pairing_defect(theta: GFrameFamily, lam: GFrameFamily) -> float:
    """Distance of the mixed pairing from the identity (Frobenius)."""
    eye = np.eye(lam.domain_dim)
    return float(np.linalg.norm(cross_operator(theta, lam) - eye))


def _cmd_analyze(args, tol) -> dict:
    doc = load_document(args.file)
    fam = _family(doc, args.family)
    rep = frame_bounds(fam, tol)
    reports = {"frame": _frame_numbers(rep)}
    checks = [_check("is-frame", rep.is_frame, **_frame_numbers(rep))]
    if rep.is_frame:
        reports["riesz"] = asdict(riesz_check(fam, tol))
    return {"reports": reports, "checks": checks}


def _cmd_disjoint(args, tol) -> dict:
    doc = load_document(args.file)
    lam = _family(doc, args.family_a)
    theta = _family(doc, args.family_b)
    report = classify(lam, theta, tol)
    gamma = gamma_family(lam, theta)
    gamma_rep = frame_bounds(gamma, tol)
    gamma_riesz = gamma_rep.is_frame and riesz_check(gamma, tol).is_riesz_type
    kernel_trivial = kernel_triviality(gamma, tol)
    reports = {"relations": asdict(report), "pair_family": _frame_numbers(gamma_rep)}
    checks = [
        _check(
            "pair-family-frame-iff-disjoint",
            report.disjoint == gamma_rep.is_frame,
            disjoint=report.disjoint,
            pair_family_is_frame=gamma_rep.is_frame,
        ),
        _check(
            "complementary-iff-pair-riesz",
            report.complementary_pair == gamma_riesz,
            complementary_pair=report.complementary_pair,
            pair_family_riesz=gamma_riesz,
        ),
        _check(
            "strongly-complementary-decomposition",
            report.strongly_complementary_pair == (report.strongly_disjoint and gamma_riesz),
            strongly_complementary_pair=report.strongly_complementary_pair,
            strongly_disjoint=report.strongly_disjoint,
            pair_family_riesz=gamma_riesz,
        ),
        _check(
            "weak-iff-trivial-kernel",
            report.weakly_disjoint == kernel_trivial,
            weakly_disjoint=report.weakly_disjoint,
            kernel_trivial=kernel_trivial,
        ),
        _check(
            "hierarchy",
            (not report.strongly_disjoint or report.disjoint)
            and (not report.disjoint or report.weakly_disjoint),
            strongly_disjoint=report.strongly_disjoint,
            disjoint=report.disjoint,
            weakly_disjoint=report.weakly_disjoint,
        ),
    ]
    return {"reports": reports, "checks": checks}


def _spec_from_family(fam: GFrameFamily, name: str) -> ContinuousFrameSpec:
    if any(d != 1 for d in fam.block_dims):
        raise UsageError(
            f"family '{name}' must have all block dims equal to 1 to act as a vector frame"
        )
    return ContinuousFrameSpec(space=fam.space, dim=fam.domain_dim, vectors=fam.rows.conj())


def _cmd_construct(args, tol) -> dict:
    doc = load_document(args.file)
    recipe = args.recipe
    names = args.families
    expected = 1 if recipe in ("canonical-dual", "parseval") else 2
    if len(names) != expected:
        raise UsageError(f"recipe '{recipe}' needs exactly {expected} family name(s)")
    # the first and the last named family: one and the same for one-family recipes
    lam, theta = _family(doc, names[0]), _family(doc, names[-1])

    checks = []
    reports = {}
    out_families: dict[str, GFrameFamily] = {}

    if recipe == "canonical-dual":
        dual = canonical_dual(lam, tol)
        out_families["canonical_dual"] = dual
        checks.append(
            _check(
                "dual-pairing",
                is_dual_pair(dual, lam, tol),
                identity_defect=_pairing_defect(dual, lam),
            )
        )
        reports["result"] = _frame_numbers(frame_bounds(dual, tol))
    elif recipe == "parseval":
        normalized = parseval_normalize(lam, tol)
        rep = frame_bounds(normalized, tol)
        out_families["parseval"] = normalized
        checks.append(_check("is-parseval", rep.is_parseval, **_frame_numbers(rep)))
    elif recipe == "gamma":
        gamma = gamma_family(lam, theta)
        rep = frame_bounds(gamma, tol)
        out_families["gamma"] = gamma
        reports["result"] = _frame_numbers(rep)
        disjoint = classify(lam, theta, tol).disjoint
        checks.append(
            _check(
                "pair-family-frame-iff-disjoint",
                disjoint == rep.is_frame,
                disjoint=disjoint,
                is_frame=rep.is_frame,
            )
        )
    elif recipe == "delta":
        delta = delta_family(lam, theta, tol)
        rep = frame_bounds(delta, tol)
        out_families["delta"] = delta
        reports["result"] = _frame_numbers(rep)
        strongly = classify(lam, theta, tol).strongly_disjoint
        checks.append(
            _check(
                "parseval-when-strongly-disjoint",
                (not strongly) or rep.is_parseval,
                strongly_disjoint=strongly,
                is_parseval=rep.is_parseval,
            )
        )
    elif recipe == "sum-disjoint":
        result = disjoint_sum_family(lam, theta, _operator_pair(args, lam.domain_dim), tol)
        out_families["sum"] = result.family
        reports["result"] = _frame_numbers(result.report)
        checks.append(_check("is-frame", result.report.is_frame, **_frame_numbers(result.report)))
        checks.append(
            _check(
                "certificate-sandwich",
                result.certificate_ok,
                certified_lower=result.certified_lower,
                certified_upper=result.certified_upper,
                lower_bound=result.report.lower_bound,
                upper_bound=result.report.upper_bound,
            )
        )
    elif recipe == "sum-strong":
        result = strongly_disjoint_sum(lam, theta, _operator_pair(args, lam.domain_dim), tol)
        out_families["sum"] = result.family
        reports["result"] = {**_frame_numbers(result.report), "scale": result.scale}
        rep_l, rep_t = frame_bounds(lam, tol), frame_bounds(theta, tol)
        guaranteed = result.scale * min(rep_l.lower_bound, rep_t.lower_bound)
        checks.append(
            _check(
                "lower-bound-guarantee",
                result.report.lower_bound >= guaranteed * (1.0 - tol.rel_eps),
                lower_bound=result.report.lower_bound,
                guaranteed=guaranteed,
            )
        )
        if rep_l.is_parseval and rep_t.is_parseval:
            checks.append(
                _check(
                    "tight-with-hypothesis-scale",
                    result.report.is_tight
                    and abs(result.report.upper_bound - result.scale)
                    <= tol.rel_eps * max(1.0, result.scale),
                    is_tight=result.report.is_tight,
                    bound=result.report.upper_bound,
                    scale=result.scale,
                )
            )
    elif recipe == "pseudo-dual":
        result = pseudo_dual(lam, theta, _operator_pair(args, lam.domain_dim), tol)
        out_families["pseudo_dual"] = result.dual_candidate
        out_families["sum"] = result.sum_family
        out_families["single"] = result.single_family
        checks.append(
            _check(
                "dual-of-sum",
                result.dual_of_sum,
                identity_defect=_pairing_defect(result.dual_candidate, result.sum_family),
            )
        )
        checks.append(
            _check(
                "dual-of-single",
                result.dual_of_single,
                identity_defect=_pairing_defect(result.dual_candidate, result.single_family),
            )
        )
    elif recipe == "lift-example":
        f_spec = _spec_from_family(lam, names[0])
        g_spec = _spec_from_family(theta, names[1])
        lifted = lift_continuous_frame(f_spec, g_spec, tol)
        out_families.update(
            {
                "lifted_lambda": lifted.lam,
                "lifted_theta": lifted.theta,
                "lifted_phi": lifted.phi,
                "lifted_psi": lifted.psi,
            }
        )
        checks.append(
            _check(
                "first-dual-pair",
                is_dual_pair(lifted.theta, lifted.lam, tol),
                identity_defect=_pairing_defect(lifted.theta, lifted.lam),
            )
        )
        checks.append(
            _check(
                "second-dual-pair",
                is_dual_pair(lifted.psi, lifted.phi, tol),
                identity_defect=_pairing_defect(lifted.psi, lifted.phi),
            )
        )
        checks.append(
            _check(
                "cross-strong-disjointness",
                classify(lifted.lam, lifted.phi, tol).strongly_disjoint
                and classify(lifted.theta, lifted.psi, tol).strongly_disjoint,
                first_cross_norm=operator_norm(cross_operator(lifted.phi, lifted.lam)),
                second_cross_norm=operator_norm(cross_operator(lifted.psi, lifted.theta)),
            )
        )
        glued = direct_sum_duals(lifted.lam, lifted.theta, lifted.psi, lifted.phi, tol)
        checks.append(
            _check(
                "glued-dual-pair",
                glued.dual_verified,
                identity_defect=_pairing_defect(glued.gamma, glued.delta),
            )
        )

    out_doc = FrameDocument(
        format_version=FORMAT_VERSION, space=next(iter(out_families.values())).space,
        families=out_families,
    )
    save_document(out_doc, args.output)
    reports["output"] = {"path": args.output, "families": sorted(out_families)}
    return {"reports": reports, "checks": checks}


def _cmd_generate(args, tol) -> dict:
    try:
        dims = tuple(int(part) for part in args.block_dims.split(","))
    except ValueError:
        raise UsageError("--block-dims must be comma-separated integers") from None
    weight_range = (args.weight_low, args.weight_high)
    checks = []
    if args.kind == "frame":
        if args.domain_dim is None:
            raise UsageError("--kind frame requires --domain-dim")
        fam = random_gframe(args.seed, dims, args.domain_dim, weight_range=weight_range, tol=tol)
        rep = frame_bounds(fam, tol)
        families = {"frame": fam}
        checks.append(_check("is-frame", rep.is_frame, **_frame_numbers(rep)))
    else:
        if args.dim_first is None or args.dim_second is None:
            raise UsageError("--kind strongly-disjoint-pair requires --dim-first and --dim-second")
        first, second = random_strongly_disjoint_parseval_pair(
            args.seed, dims, args.dim_first, args.dim_second, weight_range=weight_range
        )
        families = {"first": first, "second": second}
        report = classify(first, second, tol)
        checks.append(
            _check(
                "strongly-disjoint",
                report.strongly_disjoint,
                cross_operator_norm=report.cross_operator_norm,
            )
        )
        rep_first, rep_second = frame_bounds(first, tol), frame_bounds(second, tol)
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
    doc = FrameDocument(
        format_version=FORMAT_VERSION,
        space=next(iter(families.values())).space,
        families=families,
    )
    save_document(doc, args.output)
    return {
        "seed": args.seed,
        "reports": {"output": {"path": args.output, "families": sorted(families)}},
        "checks": checks,
    }


def _cmd_verify(args, tol) -> dict:
    if args.cases < 1:
        raise UsageError(f"--cases must be >= 1, got {args.cases}")
    suite = run_suite(args.seed, args.cases, tol)
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
    tol = report["tolerance"]
    print(f"tolerance: rel_eps={tol['rel_eps']:g} rank_eps_factor={tol['rank_eps_factor']:g}")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        tol = _tolerance(args)
        body = _COMMANDS[args.command](args, tol)
    except (
        UsageError, DocumentError, GenerationError, ShapeError, FamilyValidationError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, SingularOperatorError) as exc:
        print(f"error: failed hypothesis: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": list(argv),
        "tolerance": {"rel_eps": tol.rel_eps, "rank_eps_factor": tol.rank_eps_factor},
        **body,
    }
    report["passed"] = all(check["passed"] for check in report.get("checks", []))
    _print_report(report, args.format)
    return 0 if report["passed"] else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
