"""End-to-end and per-layer benchmark of ``gframes``.

    python3 perfbench/run.py                       # all workloads, one process each, table
    python3 perfbench/run.py --workload atoms --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

With ``--workload`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The program
under test is always the ``src/gframes`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import CLI_INVOCATIONS, TRACE_PASSES, Tracer, layer_values, per_layer_metrics, summarize
from workloads import make

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

RUN_SECONDS = 30
SETUP_ROUNDS = 3
MIN_PASSES = TRACE_PASSES

WORKLOADS = {
    "suite": "verify engine at 50 cases: thousands of 2-6 atom families, so per-call overhead dominates",
    "atoms": "8000-atom quadrature family, domain dim 24, blocks 1-4: per-atom loops and tall SVDs dominate",
    "cli": "whole gframes runs in child processes on a 2500-atom pair document: import, documents, exit codes",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.12},
]


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_metrics(),
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports gframes and exits."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import gframes"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(args, wl, tracer, imports: list[float], pass_times: list[float]) -> dict:
    """Per-layer metrics of a traced run; also writes its spans out."""
    if tracer:
        summary = summarize(tracer.names, tracer.spans)
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"))
        child_seconds = {}
    else:
        summary, child_seconds = wl.traced_layers()
        with open(os.path.join(WORK, f"trace-cli-seed{args.seed}.json"), "w", encoding="utf-8") as handle:
            json.dump(wl.child_spans, handle)
    values = layer_values(summary, TRACE_PASSES)
    for kind in CLI_INVOCATIONS:
        values[f"cli.{kind}.s"] = child_seconds.get(kind, 0.0) / TRACE_PASSES
    values["cli.import_s"] = statistics.median(imports)
    values["trace.pass_s"] = statistics.median(pass_times[:TRACE_PASSES])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer_metrics()}


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = make(args.workload, work)
        problems: list[str] = []

        setups, imports = [], []
        for _ in range(SETUP_ROUNDS):
            gc.collect()
            start = time.perf_counter()
            imports.append(import_seconds())
            wl.build(args.seed)
            problems += [f"warm-up: {msg}" for msg in wl.warm_up()]
            setups.append(time.perf_counter() - start)
        if wl.in_process:
            import gframes

            if os.path.commonpath([os.path.abspath(gframes.__file__), SRC]) != SRC:
                print(f"error: imported gframes from {gframes.__file__}, not {SRC}", file=sys.stderr)
                return 2

        tracer = None
        if args.trace:
            if wl.in_process:
                tracer = Tracer()
                tracer.install()
            else:
                wl.trace_dir = work
        pass_times: list[float] = []
        attempted = failed = 0
        begin = time.perf_counter()
        while len(pass_times) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
            k = len(pass_times)
            gc.collect()
            start = time.perf_counter()
            outputs = wl.run_pass(k)
            pass_times.append(time.perf_counter() - start)
            if k == 0:
                # ru_maxrss never falls, so read it before any check of a
                # timed pass can raise it with arrays of its own.
                peak = peak_rss_mb(wl.in_process)
            if tracer and k == TRACE_PASSES - 1:
                tracer.uninstall()
            n, f, found = wl.check(k, outputs)
            attempted += n
            failed += f
            problems += [f"pass {k}: {msg}" for msg in found]
            del outputs

        if args.trace:
            metrics = layer_metrics(args, wl, tracer, imports, pass_times)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
                "peak_rss_mb": {"value": peak, "unit": "MB"},
            }
        for msg in problems[:20]:
            print(f"check failed: {msg}", file=sys.stderr)
        print(
            f"{args.workload}: {len(pass_times)} passes {[round(t, 3) for t in pass_times]}, "
            f"set-up rounds {[round(t, 3) for t in setups]}, "
            f"peak RSS {peak:.1f} MB after pass 0, {peak_rss_mb(wl.in_process):.1f} MB at the end",
            file=sys.stderr,
        )
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gframes", "__init__.py")):
        print(f"error: no gframes sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(spec(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
