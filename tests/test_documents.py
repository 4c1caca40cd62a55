"""Strict document parsing and exact serialization round trips."""

import numpy as np
import pytest

from gframes import (
    DocumentError,
    FORMAT_VERSION,
    FrameDocument,
    GFrameFamily,
    MeasureSpace,
    parse_document,
    serialize_document,
)

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
    doc = FrameDocument(format_version=FORMAT_VERSION, space=space, families=families)
    assert parse_document(serialize_document(doc)) == doc


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
