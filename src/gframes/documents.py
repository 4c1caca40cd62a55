"""Strict JSON file format for measure spaces and operator families.

A document carries one measure space and any number of named families that
share it (and share block dimensions); complex entries are two-element
[re, im] arrays, never strings.  Parsing is strict: unknown or duplicate
fields, non-finite numbers (including the NaN/Infinity literals) and shape
inconsistencies are rejected with the path of the offending element.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DocumentError
from .model import GFrameFamily, MeasureSpace

FORMAT_VERSION = "1"


@dataclass(frozen=True, eq=False)
class FrameDocument:
    format_version: str
    space: MeasureSpace
    families: dict[str, GFrameFamily]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FrameDocument)
            and self.format_version == other.format_version
            and self.space == other.space
            and set(self.families) == set(other.families)
            and all(self.families[k] == other.families[k] for k in self.families)
        )


class _JSONObject(dict):
    """A parsed JSON object; ``duplicate`` is a key it held more than once."""

    duplicate = None


def _json_object(pairs) -> _JSONObject:
    obj = _JSONObject(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        obj.duplicate = next(key for key in keys if keys.count(key) > 1)
    return obj


def _require_object(obj, path):
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    if getattr(obj, "duplicate", None) is not None:
        raise DocumentError(f"{path}.{obj.duplicate}", "duplicate key")


def _require_keys(obj, allowed, required, path):
    _require_object(obj, path)
    for key in obj:
        if key not in allowed:
            raise DocumentError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise DocumentError(path, f"missing required field '{key}'")


def _as_number(value, path) -> float:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DocumentError(path, f"expected a finite number, got {number}")
    return number


def _as_positive_int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DocumentError(path, f"expected a positive integer, got {value!r}")
    return value


def _as_complex(value, path) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(path, "complex entries must be two-element [re, im] arrays")
    return complex(_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _parse_space(obj, path) -> MeasureSpace:
    _require_keys(obj, {"weights"}, {"weights"}, path)
    weights = obj["weights"]
    if not isinstance(weights, list) or not weights:
        raise DocumentError(f"{path}.weights", "expected a non-empty array")
    parsed = []
    for i, w in enumerate(weights):
        value = _as_number(w, f"{path}.weights[{i}]")
        if not (np.isfinite(value) and value > 0):
            raise DocumentError(f"{path}.weights[{i}]", f"weight must be > 0, got {value}")
        parsed.append(value)
    return MeasureSpace(np.array(parsed))


def _parse_family(name, obj, space, shared_dims, path) -> GFrameFamily:
    _require_keys(
        obj, {"domain_dim", "block_dims", "blocks"}, {"domain_dim", "block_dims", "blocks"}, path
    )
    domain_dim = _as_positive_int(obj["domain_dim"], f"{path}.domain_dim")
    dims_obj = obj["block_dims"]
    if not isinstance(dims_obj, list):
        raise DocumentError(f"{path}.block_dims", "expected an array")
    dims = tuple(
        _as_positive_int(d, f"{path}.block_dims[{i}]") for i, d in enumerate(dims_obj)
    )
    if len(dims) != space.atom_count:
        raise DocumentError(
            f"{path}.block_dims",
            f"{len(dims)} block dims for {space.atom_count} atoms",
        )
    if shared_dims is not None and dims != shared_dims:
        raise DocumentError(
            f"{path}.block_dims",
            f"families must share block dims; expected {list(shared_dims)}, got {list(dims)}",
        )
    blocks_obj = obj["blocks"]
    if not isinstance(blocks_obj, list) or len(blocks_obj) != space.atom_count:
        raise DocumentError(
            f"{path}.blocks",
            f"expected {space.atom_count} blocks (one per atom)",
        )
    blocks = []
    for i, block_obj in enumerate(blocks_obj):
        block_path = f"{path}.blocks[{i}]"
        if not isinstance(block_obj, list) or len(block_obj) != dims[i]:
            raise DocumentError(
                block_path,
                f"family '{name}' atom {i}: expected {dims[i]} rows",
            )
        rows = []
        for j, row_obj in enumerate(block_obj):
            row_path = f"{block_path}[{j}]"
            if not isinstance(row_obj, list) or len(row_obj) != domain_dim:
                raise DocumentError(
                    row_path,
                    f"family '{name}' atom {i}: expected {domain_dim} columns",
                )
            rows.append([_as_complex(e, f"{row_path}[{k}]") for k, e in enumerate(row_obj)])
        blocks.append(np.array(rows, dtype=complex).reshape(dims[i], domain_dim))
    return GFrameFamily(space=space, domain_dim=domain_dim, blocks=tuple(blocks))


def parse_document(text: str) -> FrameDocument:
    """Parse and fully validate a frame document; raises DocumentError with a
    path to the first offending element."""
    try:
        root = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"not valid JSON: {exc}") from None
    _require_keys(
        root,
        {"format_version", "measure_space", "families"},
        {"format_version", "measure_space", "families"},
        "$",
    )
    version = root["format_version"]
    if version != FORMAT_VERSION:
        raise DocumentError("$.format_version", f"unrecognized version {version!r}")
    space = _parse_space(root["measure_space"], "$.measure_space")
    families_obj = root["families"]
    _require_object(families_obj, "$.families")
    families: dict[str, GFrameFamily] = {}
    shared_dims = None
    for name, fam_obj in families_obj.items():
        fam = _parse_family(name, fam_obj, space, shared_dims, f"$.families.{name}")
        shared_dims = fam.block_dims
        families[name] = fam
    return FrameDocument(format_version=version, space=space, families=families)


def _complex_entry(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def serialize_document(doc: FrameDocument) -> str:
    families = {}
    for name, fam in doc.families.items():
        families[name] = {
            "domain_dim": int(fam.domain_dim),
            "block_dims": [int(d) for d in fam.block_dims],
            "blocks": [
                [[_complex_entry(e) for e in row] for row in block]
                for block in fam.blocks
            ],
        }
    payload = {
        "format_version": doc.format_version,
        "measure_space": {"weights": [float(w) for w in doc.space.weights]},
        "families": families,
    }
    return json.dumps(payload, indent=2)


def load_document(path: str) -> FrameDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def save_document(doc: FrameDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_document(doc))
        handle.write("\n")
