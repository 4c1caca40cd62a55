"""Strict document parsing and exact serialization round trips."""

import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gframes import (
    DocumentError,
    FamilyValidationError,
    FORMAT_VERSION,
    FrameDocument,
    GFrameFamily,
    MeasureSpace,
    ShapeError,
    parse_document,
    serialize_document,
)
from gframes import documents

MINIMAL = """
{
  "format_version": "1",
  "measure_space": {"weights": [1.0]},
  "families": {
    "lone": {"domain_dim": 1, "block_dims": [1], "blocks": [[[[1.0, 0.0]]]]}
  }
}
"""


def test_parse_minimal_document():
    doc = parse_document(MINIMAL)
    assert doc.space.atom_count == 1
    fam = doc.families["lone"]
    assert fam.domain_dim == 1
    assert np.allclose(fam.blocks[0], [[1.0]])


def test_parse_rejects_invalid_json():
    with pytest.raises(DocumentError) as err:
        parse_document("{not json")
    assert err.value.path == "$"


def test_parse_rejects_zero_weight():
    text = MINIMAL.replace('"weights": [1.0]', '"weights": [0]')
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.path == "$.measure_space.weights[0]"


def test_parse_rejects_wrong_column_count():
    text = MINIMAL.replace("[[[[1.0, 0.0]]]]", "[[[[1.0, 0.0], [2.0, 0.0]]]]")
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "lone" in str(err.value)
    assert "atom 0" in str(err.value)


def test_parse_rejects_unknown_field():
    text = MINIMAL.replace('"format_version"', '"surprise": 1, "format_version"')
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "unknown field" in str(err.value)


def test_parse_rejects_unknown_version():
    text = MINIMAL.replace('"format_version": "1"', '"format_version": "99"')
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.path == "$.format_version"


def test_parse_rejects_string_complex_entry():
    text = MINIMAL.replace("[1.0, 0.0]", '"1+0j"')
    with pytest.raises(DocumentError):
        parse_document(text)


def test_parse_rejects_boolean_number():
    text = MINIMAL.replace("[1.0, 0.0]", "[true, 0.0]")
    with pytest.raises(DocumentError):
        parse_document(text)


def test_parse_rejects_mismatched_family_dims():
    text = """
    {
      "format_version": "1",
      "measure_space": {"weights": [1.0, 2.0]},
      "families": {
        "a": {"domain_dim": 1, "block_dims": [1, 1],
              "blocks": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]},
        "b": {"domain_dim": 1, "block_dims": [2, 1],
              "blocks": [[[[1.0, 0.0]], [[0.0, 0.0]]], [[[1.0, 0.0]]]]}
      }
    }
    """
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "share block dims" in str(err.value)


def test_round_trip_is_exact():
    rng = np.random.default_rng(12)
    space = MeasureSpace(rng.uniform(0.3, 3.0, 3))
    families = {
        name: GFrameFamily(
            space=space,
            domain_dim=2,
            blocks=tuple(
                rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
                for d in (1, 2, 1)
            ),
        )
        for name in ("one", "two")
    }
    doc = FrameDocument(space=space, families=families)
    assert parse_document(serialize_document(doc)) == doc


_LONE = ("families", "lone")


@pytest.mark.parametrize(
    "keys, value, path, message",
    [
        ((*_LONE, "domain_dim"), 0, "$.families.lone.domain_dim",
         "expected a positive integer, got 0"),
        ((*_LONE, "domain_dim"), True, "$.families.lone.domain_dim",
         "expected a positive integer, got True"),
        (("measure_space", "weights"), [], "$.measure_space.weights",
         "expected a non-empty array"),
        (("measure_space", "weights"), 1.0, "$.measure_space.weights",
         "expected a non-empty array"),
        ((*_LONE, "block_dims"), 1, "$.families.lone.block_dims", "expected an array"),
        ((*_LONE, "block_dims"), [0], "$.families.lone.block_dims[0]",
         "expected a positive integer, got 0"),
        ((*_LONE, "block_dims"), [1.0], "$.families.lone.block_dims[0]",
         "expected a positive integer, got 1.0"),
        ((*_LONE, "block_dims"), [1, 1], "$.families.lone.block_dims",
         "2 block dims for 1 atoms"),
        ((*_LONE, "blocks"), {}, "$.families.lone.blocks", "expected 1 blocks (one per atom)"),
        ((*_LONE, "blocks"), [], "$.families.lone.blocks", "expected 1 blocks (one per atom)"),
    ],
)
def test_structural_faults_name_their_path(keys, value, path, message):
    payload = json.loads(MINIMAL)
    *outer, last = keys
    target = payload
    for key in outer:
        target = target[key]
    target[last] = value
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(payload))
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


@pytest.mark.parametrize("text", ["[]", "[[]]", "[1]", "{}", "3"])
def test_matrix_flag_must_be_non_empty_rows(text):
    with pytest.raises(DocumentError) as err:
        documents.parse_matrix(text, "--l1")
    assert str(err.value) == "--l1: expected a non-empty array of non-empty rows"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_non_finite_literals(literal):
    text = MINIMAL.replace("[1.0, 0.0]", f"[{literal}, 0.0]")
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.path == "$.families.lone.blocks[0][0][0][0]"


def test_parse_rejects_duplicate_keys():
    lone = '"lone": {"domain_dim": 1, "block_dims": [1], "blocks": [[[[1.0, 0.0]]]]}'
    text = MINIMAL.replace(lone, lone + ", " + lone.replace("1.0, 0.0", "2.0, 0.0"))
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.path == "$.families.lone"
    with pytest.raises(DocumentError) as err:
        parse_document(MINIMAL.replace('"weights": [1.0]', '"weights": [1.0], "weights": [2.0]'))
    assert err.value.path == "$.measure_space.weights"


def test_serialize_writes_one_block_per_line_and_old_layout_still_parses():
    doc = parse_document(MINIMAL.replace("[[[[1.0, 0.0]]]]", "[[[[1.0, -0.0]]]]"))
    text = serialize_document(doc)
    assert '        [[[1.0, -0.0]]]\n' in text
    assert json.loads(text) == json.loads(MINIMAL.replace("[1.0, 0.0]", "[1.0, -0.0]"))
    indented = json.dumps(json.loads(text), indent=2)
    assert indented != text and parse_document(indented) == doc


# An invalid family or measure space cannot be built, so no document holding
# one reaches the serializer.


def test_serialize_rejects_invalid_family():
    with pytest.raises(FamilyValidationError, match="block 1 has 3 columns"):
        GFrameFamily(MeasureSpace([1, 1]), 2, ([1, 0], [0, 1, 5]))


def test_serialize_rejects_invalid_measure_space():
    with pytest.raises(FamilyValidationError) as err:
        MeasureSpace([0.0, -1.0])
    assert err.value.violations == ["weights[0] = 0.0 not > 0", "weights[1] = -1.0 not > 0"]


def test_serialize_rejects_family_over_another_space():
    fam = GFrameFamily(MeasureSpace([2.0, 3.0]), 1, ([1.0], [1.0]))
    space = MeasureSpace([1.0, 1.0])
    doc = FrameDocument(space=space, families={"x": fam})
    with pytest.raises(ShapeError, match="family 'x'"):
        serialize_document(doc)


# ---------------------------------------------------------------------------
# The per-entry parser that whole-array parsing replaced, kept as the
# reference for every fault's path and message.
# ---------------------------------------------------------------------------


def _reference_number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise DocumentError(path, f"expected a finite number, got {number}")
    return number


def _reference_complex(value, path) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(path, "complex entries must be two-element [re, im] arrays")
    return complex(
        _reference_number(value[0], f"{path}[0]"), _reference_number(value[1], f"{path}[1]")
    )


def _reference_space(obj, path) -> MeasureSpace:
    documents._require_keys(obj, ("weights",), path)
    weights = obj["weights"]
    if not isinstance(weights, list) or not weights:
        raise DocumentError(f"{path}.weights", "expected a non-empty array")
    parsed = []
    for i, w in enumerate(weights):
        value = _reference_number(w, f"{path}.weights[{i}]")
        if not value > 0:
            raise DocumentError(f"{path}.weights[{i}]", f"weight must be > 0, got {value}")
        parsed.append(value)
    return MeasureSpace(np.array(parsed))


def _reference_family(name, obj, space, shared_dims, path) -> GFrameFamily:
    keys = ("domain_dim", "block_dims", "blocks")
    documents._require_keys(obj, keys, path)
    domain_dim = documents._as_positive_int(obj["domain_dim"], f"{path}.domain_dim")
    dims_obj = obj["block_dims"]
    if not isinstance(dims_obj, list):
        raise DocumentError(f"{path}.block_dims", "expected an array")
    dims = tuple(
        documents._as_positive_int(d, f"{path}.block_dims[{i}]") for i, d in enumerate(dims_obj)
    )
    if len(dims) != space.atom_count:
        raise DocumentError(
            f"{path}.block_dims", f"{len(dims)} block dims for {space.atom_count} atoms"
        )
    if shared_dims is not None and dims != shared_dims:
        raise DocumentError(
            f"{path}.block_dims",
            f"families must share block dims; expected {list(shared_dims)}, got {list(dims)}",
        )
    blocks_obj = obj["blocks"]
    if not isinstance(blocks_obj, list) or len(blocks_obj) != space.atom_count:
        raise DocumentError(f"{path}.blocks", f"expected {space.atom_count} blocks (one per atom)")
    blocks = []
    for i, block_obj in enumerate(blocks_obj):
        block_path = f"{path}.blocks[{i}]"
        if not isinstance(block_obj, list) or len(block_obj) != dims[i]:
            raise DocumentError(block_path, f"family '{name}' atom {i}: expected {dims[i]} rows")
        rows = []
        for j, row_obj in enumerate(block_obj):
            row_path = f"{block_path}[{j}]"
            if not isinstance(row_obj, list) or len(row_obj) != domain_dim:
                raise DocumentError(
                    row_path, f"family '{name}' atom {i}: expected {domain_dim} columns"
                )
            rows.append([_reference_complex(e, f"{row_path}[{k}]") for k, e in enumerate(row_obj)])
        blocks.append(np.array(rows, dtype=complex).reshape(dims[i], domain_dim))
    return GFrameFamily(space=space, domain_dim=domain_dim, blocks=tuple(blocks))


def reference_parse(text: str) -> FrameDocument:
    root = json.loads(text, object_pairs_hook=documents._json_object)
    keys = ("format_version", "measure_space", "families")
    documents._require_keys(root, keys, "$")
    if root["format_version"] != FORMAT_VERSION:
        raise DocumentError("$.format_version", f"unrecognized version {root['format_version']!r}")
    space = _reference_space(root["measure_space"], "$.measure_space")
    documents._require_object(root["families"], "$.families")
    families = {}
    shared_dims = None
    for name, fam_obj in root["families"].items():
        families[name] = _reference_family(name, fam_obj, space, shared_dims, f"$.families.{name}")
        shared_dims = families[name].block_dims
    return FrameDocument(space=space, families=families)


def _same_bits(first: FrameDocument, second: FrameDocument) -> bool:
    """Equal documents whose numbers agree bit for bit (so -0.0 differs from 0.0)."""
    return (
        first == second
        and first.space.weights.tobytes() == second.space.weights.tobytes()
        and all(
            first.families[k].rows.tobytes() == second.families[k].rows.tobytes()
            for k in first.families
        )
    )


def _outcome(parse, text):
    try:
        return parse(text)
    except DocumentError as exc:
        return exc.path, str(exc)


_EDGE_NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, 0, -7, 2**53 + 1, 10**300]
_NUMBERS = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**300), max_value=10**300),
)
_WEIGHTS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e308, 1, 10**300]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(min_value=1, max_value=10**300),
)


@st.composite
def _payloads(draw):
    """A valid document as plain JSON values."""
    atoms = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=atoms, max_size=atoms))
    weights = draw(st.lists(_WEIGHTS, min_size=atoms, max_size=atoms))
    families = {}
    for f in range(draw(st.integers(0, 3))):
        domain_dim = draw(st.integers(1, 3))
        blocks = [
            [[[draw(_NUMBERS), draw(_NUMBERS)] for _ in range(domain_dim)] for _ in range(b)]
            for b in dims
        ]
        families[f"f{f}"] = {"domain_dim": domain_dim, "block_dims": dims, "blocks": blocks}
    return {"format_version": "1", "measure_space": {"weights": weights}, "families": families}


@settings(max_examples=100, deadline=None)
@given(_payloads())
def test_valid_documents_parse_like_the_reference_and_round_trip_bit_exactly(payload):
    text = json.dumps(payload)
    doc = parse_document(text)
    assert _same_bits(doc, reference_parse(text))
    written = serialize_document(doc)
    assert _same_bits(parse_document(written), doc)
    assert serialize_document(parse_document(written)) == written
    assert parse_document(json.dumps(payload, indent=2)) == doc


_MARK = "@fault@"
# each fault: (where it applies, replacement literal or edit)
_LITERALS = ["true", '"1"', "null", "NaN", "1e400", "-1e400", "9" * 400, "[]", "{}"]


def _faults(draw, payload):
    """Apply one fault to ``payload`` in place; returns the literal that is to
    replace the marker in the dumped text, if the fault placed one."""
    families = payload["families"]
    weights = payload["measure_space"]["weights"]
    kinds = ["weight"] + ["number", "entry", "short-row", "long-row", "extra-row"] * bool(families)
    kind = draw(st.sampled_from(kinds))
    if kind == "weight":
        i = draw(st.integers(0, len(weights) - 1))
        weights[i] = draw(st.sampled_from([0, -1.0, -0.0, _MARK]))
        return draw(st.sampled_from(_LITERALS)) if weights[i] == _MARK else None
    family = families[draw(st.sampled_from(sorted(families)))]
    block = family["blocks"][draw(st.integers(0, len(family["blocks"]) - 1))]
    row = block[draw(st.integers(0, len(block) - 1))]
    # an earlier fault may have emptied the row or replaced an entry
    k = draw(st.integers(0, len(row) - 1)) if row else None
    if kind == "number" and row and isinstance(row[k], list) and len(row[k]) == 2:
        row[k][draw(st.integers(0, 1))] = _MARK
        return draw(st.sampled_from(_LITERALS))
    if kind == "entry" and row:
        row[k] = draw(st.sampled_from([[1.0], [1.0, 2.0, 3.0], 1.0, "1+0j"]))
    elif kind == "short-row" and row:
        row.pop()
    elif kind == "long-row":
        row.append([0.0, 0.0])
    else:
        block.append(copy.deepcopy(row))
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_fault_is_reported_like_the_reference(data):
    payload = data.draw(_payloads())
    literal = _faults(data.draw, payload)
    text = json.dumps(payload)
    if literal is not None:
        text = text.replace(f'"{_MARK}"', literal)
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert (err.value.path, str(err.value)) == _outcome(reference_parse, text)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_first_of_several_faults_is_reported_like_the_reference(data):
    payload = data.draw(_payloads())
    literals = [_faults(data.draw, payload) for _ in range(data.draw(st.integers(2, 4)))]
    text = json.dumps(payload)
    for literal in literals:
        if literal is not None:
            text = text.replace(f'"{_MARK}"', literal, 1)
    expected = _outcome(reference_parse, text)
    got = _outcome(parse_document, text)
    if isinstance(expected, FrameDocument):
        assert _same_bits(got, expected)
    else:
        assert got == expected


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.builds(json.dumps, _JSON_VALUES)))
@example("[" * 100_000)
@example("1" * 5000)
@example('{"a": 1, "a": 2}')
def test_arbitrary_text_raises_only_document_error(text):
    try:
        parse_document(text)
    except DocumentError:
        pass


def test_missing_fields_are_named_in_format_order_under_any_hash_seed():
    # with the keys in a set, the field named depended on the interpreter's hash seed
    code = (
        "import sys, gframes\n"
        "for text in sys.argv[1:]:\n"
        "    try:\n"
        "        gframes.parse_document(text)\n"
        "    except gframes.DocumentError as exc:\n"
        "        print(exc)\n"
    )
    texts = [
        '{"format_version": "1"}',
        '{"format_version": "1", "measure_space": {"weights": [1]}, "families": {"a": {}}}',
    ]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    for seed in ("0", "1", "4"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", code, *texts], env=env, capture_output=True, text=True
        )
        assert done.stdout.splitlines() == [
            "$: missing required field 'measure_space'",
            "$.families.a: missing required field 'domain_dim'",
        ], seed
