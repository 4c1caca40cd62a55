"""Layer spans recorded from outside ``gframes``.

A :class:`Tracer` replaces each listed public function with a timing wrapper
in every ``gframes`` module namespace that bound it (the modules import each
other with ``from .x import y``, so patching only the defining module would
miss most calls).  ``GFrameFamily`` is traced through its ``__init__`` so that
``isinstance`` checks keep working, and the ``numpy.linalg`` boundary is
traced only for calls made directly from ``gframes`` code, so the benchmark's
own closed-form checks never count.

Spans are kept in memory as ``[name, start, end, parent, bytes]`` and written
out once at the end; self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "model": (
        "validate_family",
        "analysis_matrix",
        "family_from_analysis_matrix",
        "right_compose",
        "GFrameFamily",
    ),
    "lapack": ("svd", "eigh", "eigvalsh", "qr", "pinv", "inv"),
    "analysis": (
        "frame_operator",
        "frame_bounds",
        "cross_operator",
        "canonical_dual",
        "parseval_normalize",
        "is_dual_pair",
    ),
    "disjointness": (
        "classify",
        "gamma_family",
        "delta_family",
        "kernel_triviality",
        "strong_disjointness_converse_check",
    ),
    "riesz": (
        "riesz_check",
        "synthesis_matrix",
        "riesz_criteria",
        "mixed_construction",
        "perturbation_riesz_transfer",
    ),
    "constructions": (
        "random_gframe",
        "random_strongly_disjoint_parseval_pair",
        "strongly_disjoint_sum",
        "disjoint_sum_family",
        "pseudo_dual",
        "lift_continuous_frame",
    ),
    "documents": ("parse_document", "serialize_document", "load_document", "save_document"),
}

# The 24 names of gframes.verification.CHECKS, fixed here so that the metric
# list does not depend on the code under test.
CHECK_NAMES = (
    "embedding-isometry",
    "analysis-blockwise",
    "defining-inequality",
    "reconstruction-identity",
    "synthesis-norm-bound",
    "frame-operator-gram",
    "canonical-dual",
    "pair-parseval",
    "pair-frame-iff-disjoint",
    "pair-riesz-equivalences",
    "pair-bound-sandwich",
    "riesz-criteria-agree",
    "synthesis-kernel",
    "cross-surjectivity",
    "perturbation-transfer",
    "mixed-construction",
    "disjoint-sum",
    "strong-sum-bounds",
    "strong-sum-tightness",
    "direct-sum-duals",
    "pseudo-dual",
    "lift-pipeline",
    "pseudo-inverse",
    "document-roundtrip",
)

# Per-layer figures come from this many timed passes, whatever the run length,
# so that call counts repeat exactly between traced runs of one seed.
TRACE_PASSES = 3

# Invocation kinds of the cli workload, in the order one pass runs them.
CLI_INVOCATIONS = (
    "generate",
    "analyze",
    "disjoint",
    "construct_canonical_dual",
    "construct_gamma",
    "construct_sum_strong",
    "disjoint_json_hand",
    "missing_input",
)


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            out.append({"name": f"{layer}.{name}.self_s", "unit": "s", "better": "lower"})
            out.append({"name": f"{layer}.{name}.calls", "unit": "count", "better": "lower"})
    out.append({"name": "documents.bytes_read", "unit": "bytes", "better": "lower"})
    out.append({"name": "documents.bytes_written", "unit": "bytes", "better": "lower"})
    for check in CHECK_NAMES:
        out.append({"name": f"verification.{check}.s", "unit": "s", "better": "lower"})
    for kind in CLI_INVOCATIONS:
        out.append({"name": f"cli.{kind}.s", "unit": "s", "better": "lower"})
    out.append({"name": "cli.import_s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.pass_s", "unit": "s", "better": "lower"})
    return out


def _text_bytes(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs.get("text", ""))


def _result_bytes(args, kwargs, result) -> int:
    return len(result)


_BYTE_COUNTERS = {
    "documents.parse_document": _text_bytes,
    "documents.serialize_document": _result_bytes,
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._index: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, only_from_gframes: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        ident = self._name_id(name)
        count_bytes = _BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_from_gframes and not sys._getframe(1).f_globals.get(
                "__name__", ""
            ).startswith("gframes"):
                return fn(*args, **kwargs)
            record = [ident, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count_bytes is not None:
                record[4] = count_bytes(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every listed name in every loaded ``gframes`` module."""
        import numpy.linalg

        import gframes
        import gframes.verification

        modules = [m for n, m in list(sys.modules.items()) if n == "gframes" or n.startswith("gframes.")]
        for layer, names in LAYERS.items():
            for fname in names:
                label = f"{layer}.{fname}"
                if layer == "lapack":
                    original = getattr(numpy.linalg, fname)
                    self._patch(numpy.linalg, fname, self.wrap(label, original, only_from_gframes=True))
                    continue
                owner = sys.modules.get(f"gframes.{layer}")
                original = getattr(owner, fname, None) if owner else None
                if original is None:
                    continue
                if isinstance(original, type):
                    self._patch(original, "__init__", self.wrap(label, original.__init__))
                    continue
                wrapper = self.wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        checks = getattr(gframes.verification, "CHECKS", ())
        self._patch(
            gframes.verification,
            "CHECKS",
            tuple((name, self.wrap(f"verification.{name}", fn)) for name, fn in checks),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def summarize(names: list[str], spans: list[list]) -> dict:
    """Per span name: self seconds, wall seconds, calls, bytes."""
    child_time = {}
    for record in spans:
        parent = record[3]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (record[2] - record[1])
    out: dict[str, dict] = {}
    for i, (ident, start, end, _, nbytes) in enumerate(spans):
        entry = out.setdefault(names[ident], {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "bytes": 0})
        entry["self_s"] += (end - start) - child_time.get(i, 0.0)
        entry["wall_s"] += end - start
        entry["calls"] += 1
        entry["bytes"] += nbytes
    return out


def merge(into: dict, other: dict) -> None:
    for name, entry in other.items():
        target = into.setdefault(name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "bytes": 0})
        for key, value in entry.items():
            target[key] += value


def layer_values(summary: dict, passes: int) -> dict:
    """Per-pass values of the span-derived per-layer metrics."""
    values = {}
    for layer, names in LAYERS.items():
        for fname in names:
            entry = summary.get(f"{layer}.{fname}", {})
            values[f"{layer}.{fname}.self_s"] = entry.get("self_s", 0.0) / passes
            values[f"{layer}.{fname}.calls"] = entry.get("calls", 0) / passes
    values["documents.bytes_read"] = summary.get("documents.parse_document", {}).get("bytes", 0) / passes
    values["documents.bytes_written"] = (
        summary.get("documents.serialize_document", {}).get("bytes", 0) / passes
    )
    for check in CHECK_NAMES:
        values[f"verification.{check}.s"] = (
            summary.get(f"verification.{check}", {}).get("wall_s", 0.0) / passes
        )
    return values
