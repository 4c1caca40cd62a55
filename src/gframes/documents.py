"""Strict JSON file format for measure spaces and operator families.

A document carries one measure space and any number of named families that
share it (and share block dimensions); complex entries are two-element
[re, im] arrays, never strings.  Parsing is strict: unknown or duplicate
fields, non-finite numbers (including the NaN/Infinity literals) and shape
inconsistencies are rejected with the path of the offending element.
Each family's blocks are read and written as one array; the writer puts each
block on a line of its own, and any whitespace layout parses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DocumentError, ShapeError
from .model import GFrameFamily, MeasureSpace

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class FrameDocument:
    """A measure space and named families over it, in format ``FORMAT_VERSION``."""

    space: MeasureSpace
    families: dict[str, GFrameFamily]


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


def _require_keys(obj, keys: tuple, path):  # names the first missing key in ``keys`` order
    _require_object(obj, path)
    for key in obj:
        if key not in keys:
            raise DocumentError(f"{path}.{key}", "unknown field")
    for key in keys:
        if key not in obj:
            raise DocumentError(path, f"missing required field '{key}'")


_NUMBER_TYPES = {float, int}  # bool is a type of its own, so it is not among them


def _float_or_inf(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        return math.inf


def _as_floats(values: list, path_of, positive: bool = False) -> np.ndarray:
    """JSON numbers as one float array.

    Raises DocumentError at ``path_of(k)`` for the first value ``k`` that is
    not a number, is not finite (an integer literal beyond the float range
    counts as infinite) or, with ``positive``, is not > 0.
    """
    count = len(values)
    if not set(map(type, values)) <= _NUMBER_TYPES:
        count = next(k for k, t in enumerate(map(type, values)) if t not in _NUMBER_TYPES)
    numbers = values[:count]
    try:
        array = np.array(numbers, dtype=float)
    except OverflowError:
        array = np.array(list(map(_float_or_inf, numbers)), dtype=float)
    good = np.isfinite(array)
    if positive:
        good &= array > 0
    if not good.all():
        k = int(np.argmin(good))
        value = float(array[k])
        if not math.isfinite(value):
            raise DocumentError(path_of(k), f"expected a finite number, got {value}")
        raise DocumentError(path_of(k), f"weight must be > 0, got {value}")
    if count < len(values):
        raise DocumentError(path_of(count), f"expected a number, got {values[count]!r}")
    return array


def _as_positive_int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DocumentError(path, f"expected a positive integer, got {value!r}")
    return value


def _parse_space(obj, path) -> MeasureSpace:
    _require_keys(obj, ("weights",), path)
    weights = obj["weights"]
    if not isinstance(weights, list) or not weights:
        raise DocumentError(f"{path}.weights", "expected a non-empty array")
    return MeasureSpace(_as_floats(weights, lambda k: f"{path}.weights[{k}]", positive=True))


def _fitting(items: list, lengths: list[int]) -> list:
    """The leading items that are arrays of the matching ``lengths``; all of
    them, without a copy, when every item fits (checked at C speed)."""
    if set(map(type, items)) <= {list} and list(map(len, items)) == lengths:
        return items
    fits = (type(item) is list and len(item) == n for item, n in zip(items, lengths))
    return items[: next(k for k, fit in enumerate(fits) if not fit)]


def _block_rows(blocks, dims, domain_dim, block_path, label) -> np.ndarray:
    """The blocks stacked in atom order as one complex row matrix.

    Blocks, rows and [re, im] entries are checked as arrays of the right
    length, then every number at once.  Each check stops at its first misfit
    and the next looks only at what precedes it, so the fault reported is
    the first in document order.  ``block_path(atom)`` is the path of a block
    and ``label(atom)`` the start of a message about it.
    """

    def locate(row: int) -> tuple[int, int]:
        ends = np.cumsum(dims)
        atom = int(np.searchsorted(ends, row, side="right"))
        return atom, row - int(ends[atom]) + dims[atom]

    def entry_path(entry: int) -> str:
        atom, j = locate(entry // domain_dim)
        return f"{block_path(atom)}[{j}][{entry % domain_dim}]"

    good_blocks = _fitting(blocks, list(dims))
    rows = list(chain.from_iterable(good_blocks))
    good_rows = _fitting(rows, [domain_dim] * len(rows))
    entries = list(chain.from_iterable(good_rows))
    good_entries = _fitting(entries, [2] * len(entries))
    numbers = _as_floats(
        list(chain.from_iterable(good_entries)), lambda k: f"{entry_path(k // 2)}[{k % 2}]"
    )
    if len(good_entries) < len(entries):
        raise DocumentError(
            entry_path(len(good_entries)), "complex entries must be two-element [re, im] arrays"
        )
    if len(good_rows) < len(rows):
        atom, j = locate(len(good_rows))
        raise DocumentError(
            f"{block_path(atom)}[{j}]", f"{label(atom)}expected {domain_dim} columns"
        )
    if len(good_blocks) < len(blocks):
        atom = len(good_blocks)
        raise DocumentError(block_path(atom), f"{label(atom)}expected {dims[atom]} rows")
    return numbers.view(complex).reshape(-1, domain_dim)


def parse_matrix(text: str, name: str) -> np.ndarray:
    """A matrix given as JSON rows of [re, im] entries, read by the rules of
    the document format; raises DocumentError at ``name[i][j]`` for the first
    offending entry."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(name, f"not valid JSON: {exc}") from None
    if not (isinstance(raw, list) and raw and isinstance(raw[0], list) and raw[0]):
        raise DocumentError(name, "expected a non-empty array of non-empty rows")
    return _block_rows([raw], (len(raw),), len(raw[0]), lambda atom: name, lambda atom: "")


def _parse_family(name, obj, space, shared_dims, path) -> GFrameFamily:
    _require_keys(obj, ("domain_dim", "block_dims", "blocks"), path)
    domain_dim = _as_positive_int(obj["domain_dim"], f"{path}.domain_dim")
    dims_obj = obj["block_dims"]
    if not isinstance(dims_obj, list):
        raise DocumentError(f"{path}.block_dims", "expected an array")
    if not (set(map(type, dims_obj)) <= {int} and min(dims_obj, default=1) >= 1):
        i = next(i for i, d in enumerate(dims_obj) if type(d) is not int or d < 1)
        raise DocumentError(
            f"{path}.block_dims[{i}]", f"expected a positive integer, got {dims_obj[i]!r}"
        )
    dims = tuple(dims_obj)
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
    rows = _block_rows(
        blocks_obj,
        dims,
        domain_dim,
        lambda atom: f"{path}.blocks[{atom}]",
        lambda atom: f"family '{name}' atom {atom}: ",
    )
    return GFrameFamily.from_rows(space, rows, dims)


def parse_document(text: str) -> FrameDocument:
    """Parse and fully validate a frame document; raises DocumentError with a
    path to the first offending element."""
    try:
        root = json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal longer
        # than the interpreter converts; RecursionError, nesting too deep
        raise DocumentError("$", f"not valid JSON: {exc}") from None
    _require_keys(root, ("format_version", "measure_space", "families"), "$")
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
    return FrameDocument(space=space, families=families)


def _family_json(name: str, fam: GFrameFamily, space: MeasureSpace, shared_dims) -> str:
    """One family as indented JSON, each block on one line."""
    if fam.space != space:
        raise ShapeError(f"family '{name}' lives over another measure space than the document")
    if fam.block_dims != shared_dims:
        raise ShapeError(
            f"family '{name}' has block dims {list(fam.block_dims)}, not the first family's "
            f"{list(shared_dims)}: families must share block dims"
        )
    # one %s per number in a layout of nested arrays; repr is the shortest
    # text that reads back bit-exactly, as in json.dumps
    row = "[" + ", ".join(["[%s, %s]"] * fam.domain_dim) + "]"
    block = {b: "[" + ", ".join([row] * b) + "]" for b in set(fam.block_dims)}
    layout = ",\n        ".join([block[b] for b in fam.block_dims])
    blocks = layout % tuple(map(repr, fam.rows.view(float).ravel().tolist()))
    return (
        f'{{\n      "domain_dim": {fam.domain_dim},\n'
        f'      "block_dims": {json.dumps(fam.block_dims)},\n'
        f'      "blocks": [\n        {blocks}\n      ]\n    }}'
    )


def serialize_document(doc: FrameDocument) -> str:
    """The document as strict JSON, indented, with each block on one line.

    Raises ShapeError for a family over another measure space than the
    document's, or with other block dims than the first family's, since the
    text would not read back as the document.
    """
    shared_dims = next((fam.block_dims for fam in doc.families.values()), None)
    members = ",\n".join(
        f"    {json.dumps(name)}: {_family_json(name, fam, doc.space, shared_dims)}"
        for name, fam in doc.families.items()
    )
    families = f"{{\n{members}\n  }}" if members else "{}"
    return (
        f'{{\n  "format_version": {json.dumps(FORMAT_VERSION)},\n'
        f'  "measure_space": {{"weights": {json.dumps(doc.space.weights.tolist())}}},\n'
        f'  "families": {families}\n}}'
    )


def load_document(path: str) -> FrameDocument:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DocumentError("$", f"not UTF-8 text: {exc}") from None
    return parse_document(text)


def save_document(doc: FrameDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_document(doc))
        handle.write("\n")
