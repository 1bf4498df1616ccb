"""Strict JSON loading, canonicalization, and the shipped document files."""

import json
import pathlib

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcov.errors import InputFormatError, InvalidInputError
from ramcov.golden import double_cover, identity_cover, power_map_cover
from ramcov.loader import (
    canonical_document,
    dumps_document,
    load_cover_path,
    parse_cover_json,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
SCHEMA = json.loads((ROOT / "docs" / "input_schema.json").read_text())


@pytest.mark.parametrize(
    "builder", [identity_cover, double_cover, lambda: power_map_cover(3, 2)]
)
def test_round_trip_preserves_model(builder):
    base, cover = builder()
    text = dumps_document(base, cover)
    base2, cover2 = parse_cover_json(text)
    assert base2 == base
    assert cover2 == cover
    assert dumps_document(base2, cover2) == text


def test_shuffled_document_canonicalizes_to_same_bytes():
    base, cover = double_cover()
    doc = canonical_document(base, cover)
    doc["base"]["components"].reverse()
    doc["base"]["crossings"].reverse()
    doc["base"]["pair_intersections"].reverse()
    doc["cover"]["points_above"] = dict(
        reversed(list(doc["cover"]["points_above"].items()))
    )
    shuffled_text = json.dumps(doc, indent=4)
    base2, cover2 = parse_cover_json(shuffled_text)
    assert dumps_document(base2, cover2) == dumps_document(base, cover)
    assert (base2, cover2) == (base, cover)


def mutate_identity(**edits):
    base, cover = identity_cover()
    doc = canonical_document(base, cover)
    for dotted, value in edits.items():
        target = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            target = target[key]
        target[leaf] = value
    return json.dumps(doc)


def test_float_literals_rejected():
    for bad in ["2.0", "1e3", "0.5"]:
        text = mutate_identity(**{"cover.degree": 1}).replace('"degree": 1', f'"degree": {bad}')
        with pytest.raises(InputFormatError, match="floating point"):
            parse_cover_json(text)
    text = mutate_identity().replace('"degree": 1', '"degree": NaN')
    with pytest.raises(InputFormatError, match="non-finite"):
        parse_cover_json(text)


def test_duplicate_keys_rejected():
    text = mutate_identity().replace('"degree": 1', '"degree": 1, "degree": 1', 1)
    with pytest.raises(InputFormatError, match="duplicate object key"):
        parse_cover_json(text)


def test_unknown_keys_rejected():
    with pytest.raises(InputFormatError, match="unknown keys"):
        parse_cover_json(mutate_identity(**{"base.euler_Y": 4}))
    with pytest.raises(InputFormatError, match="unknown keys"):
        parse_cover_json(mutate_identity(**{"cover.color": "red"}))
    text = mutate_identity().replace('"e": 1', '"e": 1, "extra": 2', 1)
    with pytest.raises(InputFormatError, match="unknown keys"):
        parse_cover_json(text)


def test_missing_keys_rejected():
    base, cover = identity_cover()
    doc = canonical_document(base, cover)
    del doc["base"]["euler_X"]
    with pytest.raises(InputFormatError, match="missing keys"):
        parse_cover_json(json.dumps(doc))
    doc = canonical_document(base, cover)
    del doc["cover"]
    with pytest.raises(InputFormatError, match="missing keys"):
        parse_cover_json(json.dumps(doc))


def test_noncanonical_points_key_rejected():
    for key in ("01", "+1", " 1", "-0", "0x1"):
        base, cover = identity_cover()
        doc = canonical_document(base, cover)
        pts = doc["cover"]["points_above"]
        pts[key] = pts.pop("1")
        with pytest.raises(InputFormatError, match="canonical decimal|not a decimal"):
            parse_cover_json(json.dumps(doc))


def test_type_errors_are_path_tagged():
    with pytest.raises(InputFormatError, match=r"base\.genus_C"):
        parse_cover_json(mutate_identity(**{"base.genus_C": "zero"}))
    with pytest.raises(InputFormatError, match=r"components\[0\]\.genus"):
        base, cover = identity_cover()
        doc = canonical_document(base, cover)
        doc["base"]["components"][0]["genus"] = None
        parse_cover_json(json.dumps(doc))
    with pytest.raises(InputFormatError, match="generator"):
        base, cover = identity_cover()
        doc = canonical_document(base, cover)
        doc["cover"]["points_above"]["0"][0]["local"] = [[1, 0, 0], [0, 1]]
        parse_cover_json(json.dumps(doc))
    with pytest.raises(InputFormatError, match="not valid JSON"):
        parse_cover_json("{")


def test_local_type_object_form():
    base, cover = identity_cover()
    doc = canonical_document(base, cover)
    doc["cover"]["points_above"]["0"][0]["local"] = {"n": 1, "q": 0, "m1": 1, "m2": 1}
    base2, cover2 = parse_cover_json(json.dumps(doc))
    pt = cover2.points_for(0)[0]
    lt = pt.local_cover_type()
    assert (lt.n, lt.q, lt.m1, lt.m2) == (1, 0, 1, 1)


def test_dangling_reference_is_invalid_input():
    with pytest.raises(InvalidInputError, match="unknown crossing"):
        base, cover = identity_cover()
        doc = canonical_document(base, cover)
        pts = doc["cover"]["points_above"]
        pts["9"] = pts.pop("3")
        parse_cover_json(json.dumps(doc))


def test_shipped_goldens_load_and_match_builders():
    pairs = [
        ("identity.json", identity_cover()),
        ("bidouble.json", double_cover()),
        ("kummer_2_1.json", power_map_cover(2, 1)),
    ]
    for name, (base, cover) in pairs:
        path = COVERS / name
        loaded_base, loaded_cover = load_cover_path(str(path))
        assert (loaded_base, loaded_cover) == (base, cover), name
        assert path.read_text() == dumps_document(base, cover), name


def test_shipped_files_validate_against_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    for path in sorted(COVERS.glob("*.json")):
        validator.validate(json.loads(path.read_text()))
    for name in ("bad_v1.json", "bad_v3.json"):
        validator.validate(json.loads((COVERS / "malformed" / name).read_text()))


def test_malformed_fixtures():
    load_cover_path(str(COVERS / "malformed" / "bad_v1.json"))
    load_cover_path(str(COVERS / "malformed" / "bad_v3.json"))
    with pytest.raises(InputFormatError):
        load_cover_path(str(COVERS / "malformed" / "bad_parse.json"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


def _graft(doc, path, value):
    """Replace the subtree of ``doc`` reached by ``path`` with ``value``.

    Each step picks a child of the current list or object, taken modulo its
    size; the walk stops early at a leaf or an empty container.
    """
    parent, key, node = None, None, doc
    for step in path:
        if isinstance(node, dict) and node:
            key = sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            key = step % len(node)
        else:
            break
        parent, node = node, node[key]
    if parent is None:
        return value
    parent[key] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        JSON_VALUES,
        st.builds(
            lambda path, value: _graft(canonical_document(*double_cover()), path, value),
            st.lists(st.integers(min_value=0, max_value=50), max_size=8),
            JSON_VALUES,
        ),
    )
)
def test_parse_arbitrary_json_returns_or_raises_input_errors(value):
    try:
        parse_cover_json(json.dumps(value))
    except (InputFormatError, InvalidInputError):
        pass
