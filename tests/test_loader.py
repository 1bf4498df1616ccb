"""Strict JSON loading, canonicalization, and the shipped document files."""

import gc
import json
import marshal
import pathlib
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcov import invariants, loader, model
from ramcov.cli import main
from ramcov.errors import InputFormatError, InvalidInputError
from ramcov.golden import double_cover, power_map_cover, ruled_cyclic_cover
from ramcov.loader import load_cover_path, parse_cover_json
from ramcov.invariants import examine
from ramcov.local_cover import LatticeSubgroup, LocalCoverType, local_type
from ramcov.model import PointAbove, RamSheet, check_references
from ramcov.report import ReportDocument, canonical_document, dumps_document
from report_reference import reference_document
from ruled_documents import grid_document, ruled_cover
from rebuild import replace
from twins import twin

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
DOCUMENTS = ROOT / "tests" / "fixtures" / "documents"
FIXTURES = ROOT / "tests" / "fixtures" / "invariants"
SCHEMA = json.loads((ROOT / "docs" / "input_schema.json").read_text())


def _loads(path: pathlib.Path) -> bool:
    try:
        load_cover_path(str(path))
    except (InputFormatError, InvalidInputError):
        return False
    return True


def _grid(k: int):
    """The double cover of the square grid of k fibres and k sections."""
    return parse_cover_json(json.dumps(grid_document(k)))


def _grid_with_self_ints():
    """grid(6) with the self-intersections -3 to 8: (R,R) sums all twelve."""
    doc = grid_document(6)
    for k, component in enumerate(doc["base"]["components"]):
        component["self_int"] = k - 3
    return parse_cover_json(json.dumps(doc))


# Every shipped and fixture document that loads, whatever its findings.
_LOADABLE = [
    p
    for p in sorted([*COVERS.glob("*.json"), *COVERS.glob("malformed/*.json"), *DOCUMENTS.glob("*.json")])
    if _loads(p)
]


@pytest.mark.parametrize(
    "builder",
    [
        lambda: power_map_cover(1, 1),
        double_cover,
        lambda: power_map_cover(3, 2),
        lambda: _grid(12),
        *(lambda p=p: load_cover_path(str(p)) for p in _LOADABLE),
    ],
    ids=[
        "identity", "double", "power_3_2", "grid_12",
        *(f"{p.parent.name}/{p.name}" for p in _LOADABLE),
    ],
)
def test_round_trip_preserves_model(builder):
    # The parser shares no code with the report's echo writer.
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


def _identity_with(path=None, value=None):
    """The identity document as JSON text with the node at ``path`` replaced.

    ``path`` is a tuple of object keys and list indices from the top; the
    empty path replaces the whole document, and no path leaves it as it is.
    """
    doc = canonical_document(*power_map_cover(1, 1))
    if path is None:
        return json.dumps(doc)
    if not path:
        return json.dumps(value)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


def test_float_literals_rejected():
    for bad, got in [("2.0", "2.0"), ("1e3", "1000.0"), ("0.5", "0.5"), ("NaN", "nan")]:
        text = _identity_with().replace('"degree": 1', f'"degree": {bad}')
        with pytest.raises(InputFormatError) as info:
            parse_cover_json(text)
        assert str(info.value) == f"cover.degree: expected an integer (got {got})"


_KEYED_BY_ID = {"cover.ramification", "cover.points_above"}


def _leaves(node, path=""):
    """Each leaf of a decoded document: its route of keys and indices, and the loader's path."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            if isinstance(node, list) or path in _KEYED_BY_ID:
                sub = f"{path}[{key!r}]"
            else:
                sub = f"{path}.{key}" if path else key
            for route, leaf in _leaves(child, sub):
                yield (key, *route), leaf
    else:
        yield (), path


IDENTITY_TEXT = (COVERS / "identity.json").read_text()


def _with_literal(route, literal: str) -> str:
    """``identity.json`` with the literal text ``literal`` at ``route``."""
    doc = json.loads(IDENTITY_TEXT)
    target = doc
    for key in route[:-1]:
        target = target[key]
    target[route[-1]] = "\0"
    return json.dumps(doc).replace(json.dumps("\0"), literal)


NON_INTEGER_LITERALS = [("1.5", "1.5"), ("NaN", "nan"), ("-Infinity", "-inf"), ("1e400", "inf")]
by_literal = pytest.mark.parametrize(
    "literal,got", NON_INTEGER_LITERALS, ids=[lit for lit, _ in NON_INTEGER_LITERALS]
)


@by_literal
def test_a_non_integer_literal_in_any_leaf_is_refused_by_its_path(literal, got):
    leaves = list(_leaves(json.loads(IDENTITY_TEXT)))
    assert len(leaves) == 81
    wrong = []
    for route, path in leaves:
        with pytest.raises(InputFormatError) as info:
            parse_cover_json(_with_literal(route, literal))
        expected = "a string" if route[-1] == "id" or "pair" in route else "an integer"
        if str(info.value) != f"{path}: expected {expected} (got {got})":
            wrong.append(str(info.value))
    assert wrong == []


@by_literal
def test_a_non_integer_literal_ends_the_command_with_one_line(literal, got, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_with_literal(("cover", "points_above", "3", 0, "local", 1, 0), literal))
    assert main(["invariants", str(path)]) == 2
    out, err = capsys.readouterr()
    leaf = "cover.points_above['3'][0].local[1][0]"
    assert (out, err) == ("", f"error: {leaf}: expected an integer (got {got})\n")


def test_duplicate_keys_rejected():
    text = _identity_with().replace('"degree": 1', '"degree": 1, "degree": 1', 1)
    with pytest.raises(InputFormatError, match="duplicate object key"):
        parse_cover_json(text)


def test_unknown_keys_rejected():
    with pytest.raises(InputFormatError, match="unknown keys"):
        parse_cover_json(_identity_with(("base", "euler_Y"), 4))
    with pytest.raises(InputFormatError, match="unknown keys"):
        parse_cover_json(_identity_with(("cover", "color"), "red"))
    text = _identity_with().replace('"e": 1', '"e": 1, "extra": 2', 1)
    with pytest.raises(InputFormatError, match="unknown keys"):
        parse_cover_json(text)


def test_missing_keys_rejected():
    base, cover = power_map_cover(1, 1)
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
        base, cover = power_map_cover(1, 1)
        doc = canonical_document(base, cover)
        pts = doc["cover"]["points_above"]
        pts[key] = pts.pop("1")
        with pytest.raises(InputFormatError, match="canonical decimal|not a decimal"):
            parse_cover_json(json.dumps(doc))


def test_type_errors_are_path_tagged():
    with pytest.raises(InputFormatError, match=r"base\.genus_C"):
        parse_cover_json(_identity_with(("base", "genus_C"), "zero"))
    with pytest.raises(InputFormatError, match=r"components\[0\]\.genus"):
        base, cover = power_map_cover(1, 1)
        doc = canonical_document(base, cover)
        doc["base"]["components"][0]["genus"] = None
        parse_cover_json(json.dumps(doc))
    with pytest.raises(InputFormatError, match="generator"):
        base, cover = power_map_cover(1, 1)
        doc = canonical_document(base, cover)
        doc["cover"]["points_above"]["0"][0]["local"] = [[1, 0, 0], [0, 1]]
        parse_cover_json(json.dumps(doc))
    with pytest.raises(InputFormatError, match="not valid JSON"):
        parse_cover_json("{")


def test_local_type_object_form():
    base, cover = power_map_cover(1, 1)
    doc = canonical_document(base, cover)
    doc["cover"]["points_above"]["0"][0]["local"] = {"n": 1, "q": 0, "m1": 1, "m2": 1}
    base2, cover2 = parse_cover_json(json.dumps(doc))
    pt = cover2.points_for(0)[0]
    lt = pt.local_cover_type()
    assert (lt.n, lt.q, lt.m1, lt.m2) == (1, 0, 1, 1)


def test_dangling_reference_is_invalid_input():
    with pytest.raises(InvalidInputError, match="unknown crossing"):
        base, cover = power_map_cover(1, 1)
        doc = canonical_document(base, cover)
        pts = doc["cover"]["points_above"]
        pts["9"] = pts.pop("3")
        parse_cover_json(json.dumps(doc))


def test_shipped_goldens_load_and_match_builders():
    pairs = [
        ("identity.json", power_map_cover(1, 1)),
        ("bidouble.json", double_cover()),
        ("kummer_2_1.json", power_map_cover(2, 1)),
        ("cyclic_5_1_4_2_3.json", ruled_cyclic_cover(0, 5, {"D1": 1, "D2": 4}, {"D3": 2, "D4": 3})),
        ("elliptic_5_1_4_1_1_3.json",
         ruled_cyclic_cover(1, 5, {"F0": 1, "F1": 4}, {"S0": 1, "S1": 1, "S2": 3})),
    ]
    for name, (base, cover) in pairs:
        path = COVERS / name
        loaded_base, loaded_cover = load_cover_path(str(path))
        assert (loaded_base, loaded_cover) == (base, cover), name
        assert path.read_text() == dumps_document(base, cover), name


def test_grid_4_is_the_builders_double_cover_without_declared_pairs():
    base, cover = ruled_cover(0, 2, [1] * 4, [1] * 4)
    expected = (replace(base, pair_counts=()), cover)
    assert load_cover_path(str(DOCUMENTS / "grid_4.json")) == expected


def test_shipped_files_validate_against_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    for path in sorted(COVERS.glob("*.json")):
        validator.validate(json.loads(path.read_text()))
    for name in ("bad_v1.json", "bad_v3.json"):
        validator.validate(json.loads((COVERS / "malformed" / name).read_text()))


@pytest.mark.parametrize(
    "name,table",
    [
        ("component", loader._COMPONENT),
        ("crossing", loader._CROSSING),
        ("pair_intersection", loader._PAIR_DECLARATION),
        ("sheet", loader._SHEET),
        ("point", loader._POINT),
        ("local_type", loader._LOCAL_TYPE),
    ],
)
def test_schema_records_match_the_loader_tables(name, table):
    record = SCHEMA["$defs"][name]
    assert list(record["properties"]) == list(table)
    assert record["required"] == list(table)


def test_schema_top_level_keys_match_the_loader():
    base, cover = SCHEMA["$defs"]["base"], SCHEMA["$defs"]["cover"]
    assert set(base["properties"]) == loader._BASE_KEYS
    assert set(base["required"]) == loader._BASE_REQUIRED
    assert loader._BASE_KEYS - loader._BASE_REQUIRED == {"pair_intersections"}
    assert set(cover["properties"]) == set(cover["required"]) == loader._COVER_KEYS


def test_malformed_fixtures():
    load_cover_path(str(COVERS / "malformed" / "bad_v1.json"))
    load_cover_path(str(COVERS / "malformed" / "bad_v3.json"))
    with pytest.raises(InputFormatError):
        load_cover_path(str(COVERS / "malformed" / "bad_parse.json"))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "name,loads", [("bidouble.json", True), ("malformed/bad_parse.json", False)],
    ids=["loaded", "refused"],
)
def test_a_load_leaves_the_collector_as_it_found_it(enabled, name, loads):
    # The load pauses the cyclic collector and restores its state on entry.
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert _loads(COVERS / name) is loads
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


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


_PT = ("cover", "points_above", "1", 0)
_PT_MSG = "cover.points_above['1'][0]"

# (node path, replacement value, the whole message of the InputFormatError)
_DIAGNOSTICS = [
    ((), [], "document: expected an object (got list)"),
    ((), {"base": {}, "cover": {}, "zeta": 1, "alpha": 2},
     "document: unknown keys ['alpha', 'zeta']"),
    ((), {}, "document: missing keys ['base', 'cover']"),
    (("base",), "flat", "base: expected an object (got str)"),
    (("base", "euler_Y"), 4, "base: unknown keys ['euler_Y']"),
    (("base", "genus_C"), "zero", "base.genus_C: expected an integer (got 'zero')"),
    (("base", "KX_sq"), True, "base.KX_sq: expected an integer (got True)"),
    (("base", "euler_X"), None, "base.euler_X: expected an integer (got None)"),
    (("base", "KX_dot_F"), [1], "base.KX_dot_F: expected an integer (got [1])"),
    (("base", "components"), {}, "base.components: expected a list (got dict)"),
    (("base", "components", 0), 3, "base.components[0]: expected an object (got int)"),
    (("base", "components", 2), {"id": "D3"},
     "base.components[2]: missing keys ['KX_dot', 'fiber_deg', 'genus', 'self_int']"),
    (("base", "components", 1, "id"), 5, "base.components[1].id: expected a string (got 5)"),
    (("base", "components", 0, "genus"), None,
     "base.components[0].genus: expected an integer (got None)"),
    (("base", "components", 3, "self_int"), False,
     "base.components[3].self_int: expected an integer (got False)"),
    (("base", "components", 1, "KX_dot"), "-2",
     "base.components[1].KX_dot: expected an integer (got '-2')"),
    (("base", "components", 2, "fiber_deg"), {},
     "base.components[2].fiber_deg: expected an integer (got {})"),
    (("base", "crossings"), "x", "base.crossings: expected a list (got str)"),
    (("base", "crossings", 1), [], "base.crossings[1]: expected an object (got list)"),
    (("base", "crossings", 2, "index"), "2",
     "base.crossings[2].index: expected an integer (got '2')"),
    (("base", "crossings", 0, "pair"), "D1", "base.crossings[0].pair: expected a list (got str)"),
    (("base", "crossings", 0, "pair"), ["D1"],
     "base.crossings[0].pair: expected exactly two component ids"),
    (("base", "crossings", 3, "pair", 0), None,
     "base.crossings[3].pair[0]: expected a string (got None)"),
    (("base", "crossings", 0, "pair", 1), 3,
     "base.crossings[0].pair[1]: expected a string (got 3)"),
    (("base", "pair_intersections"), {},
     "base.pair_intersections: expected a list (got dict)"),
    (("base", "pair_intersections", 1), None,
     "base.pair_intersections[1]: expected an object (got NoneType)"),
    (("base", "pair_intersections", 1, "count"), "1",
     "base.pair_intersections[1].count: expected an integer (got '1')"),
    (("base", "pair_intersections", 2, "pair"), ["D2", "D3", "D4"],
     "base.pair_intersections[2].pair: expected exactly two component ids"),
    (("base", "pair_intersections", 0, "pair"), 7,
     "base.pair_intersections[0].pair: expected a list (got int)"),
    (("base", "pair_intersections", 0, "pair", 0), 1,
     "base.pair_intersections[0].pair[0]: expected a string (got 1)"),
    (("base", "pair_intersections", 3, "pair", 1), True,
     "base.pair_intersections[3].pair[1]: expected a string (got True)"),
    (("cover",), 1, "cover: expected an object (got int)"),
    (("cover", "color"), "red", "cover: unknown keys ['color']"),
    (("cover", "degree"), "1", "cover.degree: expected an integer (got '1')"),
    (("cover", "degree"), True, "cover.degree: expected an integer (got True)"),
    (("cover", "ramification"), [], "cover.ramification: expected an object keyed by component id"),
    (("cover", "ramification", "D2"), {},
     "cover.ramification['D2']: expected a list (got dict)"),
    (("cover", "ramification", "D2", 0), "e=1",
     "cover.ramification['D2'][0]: expected an object (got str)"),
    (("cover", "ramification", "D2", 0), {"e": 1},
     "cover.ramification['D2'][0]: missing keys ['f']"),
    (("cover", "ramification", "D3", 0), {"e": 1, "f": 1, "g": 1, "h": 1},
     "cover.ramification['D3'][0]: unknown keys ['g', 'h']"),
    (("cover", "ramification", "D2", 0, "e"), "x",
     "cover.ramification['D2'][0].e: expected an integer (got 'x')"),
    (("cover", "ramification", "D4", 0, "f"), True,
     "cover.ramification['D4'][0].f: expected an integer (got True)"),
    (("cover", "points_above"), [],
     "cover.points_above: expected an object keyed by crossing index"),
    (("cover", "points_above", "x"), [],
     "cover.points_above: key 'x' is not a decimal crossing index"),
    (("cover", "points_above", "01"), [],
     "cover.points_above: key '01' is not in canonical decimal form"),
    (("cover", "points_above", "1"), {}, "cover.points_above['1']: expected a list (got dict)"),
    (_PT, 0, f"{_PT_MSG}: expected an object (got int)"),
    (_PT, {"j": 0, "jp": 0}, f"{_PT_MSG}: missing keys ['local']"),
    (_PT + ("j",), "0", f"{_PT_MSG}.j: expected an integer (got '0')"),
    (_PT + ("jp",), False, f"{_PT_MSG}.jp: expected an integer (got False)"),
    (_PT + ("local",), "x",
     f"{_PT_MSG}.local: local data must be a 2x2 generator list or an n/q/m1/m2 object"),
    (_PT + ("local",), [[1, 0]], f"{_PT_MSG}.local: lattice form needs exactly two generator rows"),
    (_PT + ("local",), [5, [0, 1]], f"{_PT_MSG}.local[0]: expected a list (got int)"),
    (_PT + ("local",), [[1, 0], [0, 1, 2]],
     f"{_PT_MSG}.local[1]: generator must have two coordinates"),
    (_PT + ("local",), [[1, "0"], [0, 1]], f"{_PT_MSG}.local[0][1]: expected an integer (got '0')"),
    (_PT + ("local",), [[1, 0], [True, 1]],
     f"{_PT_MSG}.local[1][0]: expected an integer (got True)"),
    (_PT + ("local",), [[None, 0], [0, 1]],
     f"{_PT_MSG}.local[0][0]: expected an integer (got None)"),
    (_PT + ("local",), [[1, 0], [0, []]], f"{_PT_MSG}.local[1][1]: expected an integer (got [])"),
    (_PT + ("local",), {"n": 1, "q": 0, "m1": 1}, f"{_PT_MSG}.local: missing keys ['m2']"),
    (_PT + ("local",), {"n": 1, "q": 0, "m1": 1, "m2": 1, "d": 1},
     f"{_PT_MSG}.local: unknown keys ['d']"),
    (_PT + ("local",), {"n": "1", "q": 0, "m1": 1, "m2": 1},
     f"{_PT_MSG}.local.n: expected an integer (got '1')"),
    (_PT + ("local",), {"n": 1, "q": None, "m1": 1, "m2": 1},
     f"{_PT_MSG}.local.q: expected an integer (got None)"),
    (_PT + ("local",), {"n": 1, "q": 0, "m1": True, "m2": 1},
     f"{_PT_MSG}.local.m1: expected an integer (got True)"),
    (_PT + ("local",), {"n": 1, "q": 0, "m1": 1, "m2": [2]},
     f"{_PT_MSG}.local.m2: expected an integer (got [2])"),
    # Several faults in one item: the first field checked names the message.
    (("base", "components", 0), {"id": 1, "genus": "g", "self_int": 0, "KX_dot": 0, "fiber_deg": 0},
     "base.components[0].id: expected a string (got 1)"),
    (("base", "crossings", 0), {"index": "0", "pair": ["D1"]},
     "base.crossings[0].index: expected an integer (got '0')"),
    (("base", "crossings", 0), {"index": "0", "pair": [1, 2]},
     "base.crossings[0].index: expected an integer (got '0')"),
    (("base", "pair_intersections", 0), {"count": "1", "pair": ["D1", 2]},
     "base.pair_intersections[0].pair[1]: expected a string (got 2)"),
    (("cover", "ramification", "D1", 0), {"e": "x", "f": "y"},
     "cover.ramification['D1'][0].e: expected an integer (got 'x')"),
    (_PT, {"j": "0", "jp": "0", "local": "x"}, f"{_PT_MSG}.j: expected an integer (got '0')"),
    (_PT + ("local",), [["a", "b"], 7], f"{_PT_MSG}.local[0][0]: expected an integer (got 'a')"),
    (_PT + ("local",), {"n": "1", "q": "x", "m1": 1, "m2": 1},
     f"{_PT_MSG}.local.n: expected an integer (got '1')"),
    (("base",), {"components": 1, "crossings": 2, "genus_C": "x", "KX_sq": 0, "euler_X": 0,
                 "KX_dot_F": 0},
     "base.components: expected a list (got int)"),
]


@pytest.mark.parametrize(
    "path,value,message",
    _DIAGNOSTICS,
    ids=[
        f"{i:02d}-{'/'.join(map(str, path)) or 'document'}"
        for i, (path, _, _) in enumerate(_DIAGNOSTICS)
    ],
)
def test_loader_diagnostic_is_exact(path, value, message):
    with pytest.raises(InputFormatError) as info:
        parse_cover_json(_identity_with(path, value))
    assert str(info.value) == message


_AT = "base.crossings[1]"
_SELF = "components must be distinct (transversal self-intersections are not modelled)"


@pytest.mark.parametrize(
    "record,error,message",
    [
        ({"index": True, "pair": ["D1", "D4"]}, InputFormatError,
         f"{_AT}.index: expected an integer (got True)"),
        ({"index": 1.0, "pair": ["D1", "D4"]}, InputFormatError,
         f"{_AT}.index: expected an integer (got 1.0)"),
        ({"index": -1, "pair": ["D1", "D4"]}, InvalidInputError,
         f"{_AT}: crossing index must be >= 0 (got -1)"),
        ({"index": "1", "pair": ["D1", "D4"]}, InputFormatError,
         f"{_AT}.index: expected an integer (got '1')"),
        ({"index": 1, "pair": ["D4", "D4"]}, InvalidInputError, f"{_AT}: crossing 1: {_SELF}"),
        ({"index": 1, "pair": ["D1"]}, InputFormatError,
         f"{_AT}.pair: expected exactly two component ids"),
        ({"index": 1, "pair": ["D1", "D4", "D1"]}, InputFormatError,
         f"{_AT}.pair: expected exactly two component ids"),
        ({"index": 1, "pair": ["D1", 4]}, InputFormatError,
         f"{_AT}.pair[1]: expected a string (got 4)"),
        ({"index": 1, "pair": [1, "D4"]}, InputFormatError,
         f"{_AT}.pair[0]: expected a string (got 1)"),
        ({"index": 1, "pair": ["D1", "D4"], "at": 0}, InputFormatError,
         f"{_AT}: unknown keys ['at']"),
        ({"index": 1}, InputFormatError, f"{_AT}: missing keys ['pair']"),
        ({"pair": ["D1", "D4"]}, InputFormatError, f"{_AT}: missing keys ['index']"),
        ({"index": 1.0, "pair": ["D1"]}, InputFormatError,
         f"{_AT}.index: expected an integer (got 1.0)"),
        ({"index": True, "pair": ["D1", 4]}, InputFormatError,
         f"{_AT}.index: expected an integer (got True)"),
        ({"index": 1, "pair": ["D1", "D9"]}, InvalidInputError,
         "crossing 1 references unknown component 'D9'"),
        # A string or an object of two ids is not a pair, though either
        # makes a tuple of two strings.
        ({"index": 1, "pair": "D4"}, InputFormatError, f"{_AT}.pair: expected a list (got str)"),
        ({"index": 1, "pair": {"D1": 0, "D4": 1}}, InputFormatError,
         f"{_AT}.pair: expected a list (got dict)"),
    ],
    ids=["bool", "float", "negative", "string", "equal-pair", "one-id", "three-ids", "int-id",
         "int-first-id", "extra-key", "no-pair", "no-index", "float-and-short-pair",
         "bool-and-int-id", "unknown-id", "string-pair", "object-pair"],
)
def test_a_malformed_crossing_record_is_refused_by_its_path(record, error, message):
    # Exact records are built with no per-field call; every other record is
    # judged field by field, in the order and with the messages of the
    # field checks.
    with pytest.raises(error) as info:
        parse_cover_json(_identity_with(("base", "crossings", 1), record))
    assert type(info.value) is error and str(info.value) == message


_COMP = "base.components[1]"
_D2 = {"KX_dot": -2, "fiber_deg": 0, "genus": 0, "id": "D2", "self_int": 0}


@pytest.mark.parametrize(
    "record,error,message",
    [
        ({**_D2, "id": 2}, InputFormatError, f"{_COMP}.id: expected a string (got 2)"),
        ({**_D2, "id": ""}, InvalidInputError,
         f"{_COMP}: component id must be a non-empty string (got '')"),
        ({**_D2, "id": "D\x012"}, InvalidInputError,
         f"{_COMP}: component id must be printable text (got 'D\\x012')"),
        ({**_D2, "genus": True}, InputFormatError,
         f"{_COMP}.genus: expected an integer (got True)"),
        ({**_D2, "genus": 0.0}, InputFormatError, f"{_COMP}.genus: expected an integer (got 0.0)"),
        ({**_D2, "genus": -1}, InvalidInputError,
         f"{_COMP}: component 'D2': genus must be >= 0 (got -1)"),
        ({**_D2, "fiber_deg": -1}, InvalidInputError,
         f"{_COMP}: component 'D2': fiber_deg must be >= 0 (got -1)"),
        ({**_D2, "self_int": "0"}, InputFormatError,
         f"{_COMP}.self_int: expected an integer (got '0')"),
        ({**_D2, "KX_dot": None}, InputFormatError,
         f"{_COMP}.KX_dot: expected an integer (got None)"),
        ({**_D2, "at": 0}, InputFormatError, f"{_COMP}: unknown keys ['at']"),
        ({key: value for key, value in _D2.items() if key != "genus"}, InputFormatError,
         f"{_COMP}: missing keys ['genus']"),
        # A negative genus before a float: every field's type is judged
        # before any range.
        ({**_D2, "genus": -1, "fiber_deg": 1.0}, InputFormatError,
         f"{_COMP}.fiber_deg: expected an integer (got 1.0)"),
    ],
    ids=["int-id", "empty-id", "unprintable-id", "bool", "float", "negative-genus",
         "negative-fiber-deg", "string", "null", "extra-key", "missing-key",
         "negative-and-float"],
)
def test_a_malformed_component_record_is_refused_by_its_path(record, error, message):
    # Exact records are built by BranchComponent alone, with no per-field
    # call; every other record is judged field by field, in the order and
    # with the messages of the field checks.
    with pytest.raises(error) as info:
        parse_cover_json(_identity_with(("base", "components", 1), record))
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"cover": {"x": 1, "y": 2, "y": 3, "x": 4}}', "duplicate object key 'y'"),
        ('{"base": {}, "base": {}}', "duplicate object key 'base'"),
        ('{"a": {"k": 1, "k": 1}, "a": 2}', "duplicate object key 'k'"),
        ('{"base": 2.0, "cover": {}}', "base: expected an object (got float)"),
        ('{"base": -Infinity, "cover": {}}', "base: expected an object (got float)"),
        ("{",
         "not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        ("1" * 5000, "integer literal has too many digits"),
    ],
    ids=["first-duplicate", "duplicate-top", "duplicate-inner", "float", "non-finite", "syntax",
         "digit-limit"],
)
def test_loader_text_diagnostic_is_exact(text, message):
    with pytest.raises(InputFormatError) as info:
        parse_cover_json(text)
    assert str(info.value) == message


# ------------------------------------------------ the counted decode
# parse_cover_json keeps the tree of a decode that only adds up object sizes
# when that total equals the colons in the text; any other text is decoded
# again with loader._no_duplicate_keys on every object, which judges it.


def _hooked(text: str):
    """The reference: the decode with the duplicate-key hook on every object."""
    return json.loads(text, object_pairs_hook=loader._no_duplicate_keys)


def _outcome(decode, text: str):
    """What ``decode(text)`` returns, or the type and message of what it raises."""
    try:
        return decode(text)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def _grid_2_with_raw_type() -> dict:
    """grid(2) with the local data of the point over crossing 3 as a raw local type."""
    doc = grid_document(2)
    doc["cover"]["points_above"]["3"][0]["local"] = {"n": 2, "q": 1, "m1": 1, "m2": 1}
    return doc


def _with_duplicate(doc: dict, route: tuple) -> str:
    """``doc``'s text with the object at ``route`` repeating its first member as its last.

    The repeated member has its first value, so a decode that keeps the last
    value of a key gives the tree of ``doc`` itself.
    """
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in route:
        node = node[step]
    key, value = next(iter(node.items()))
    node["@repeat@"] = 0
    return json.dumps(doc).replace('"@repeat@": 0', f"{json.dumps(key)}: {json.dumps(value)}", 1)


def _colon_ids(doc: dict) -> dict:
    """``doc`` with each component id ``X`` renamed ``X:1`` wherever it is written."""
    text = json.dumps(doc)
    for component in doc["base"]["components"]:
        text = text.replace(json.dumps(component["id"]), json.dumps(component["id"] + ":1"))
    return json.loads(text)


def _objects(node) -> int:
    """The number of JSON objects in the decoded ``node``."""
    if type(node) is dict:
        return 1 + sum(map(_objects, node.values()))
    return sum(map(_objects, node)) if type(node) is list else 0


_OBJECT_ROUTES = {
    "top-level": (),
    "base": ("base",),
    "component": ("base", "components", 1),
    "crossing": ("base", "crossings", 2),
    "ramification": ("cover", "ramification"),
    "sheet": ("cover", "ramification", "S1", 0),
    "points_above": ("cover", "points_above"),
    "point": ("cover", "points_above", "1", 0),
    "raw-local-type": ("cover", "points_above", "3", 0, "local"),
}


@pytest.mark.parametrize("route", _OBJECT_ROUTES.values(), ids=_OBJECT_ROUTES)
def test_a_duplicate_key_in_any_object_is_refused_as_the_hooked_decode_refuses_it(route):
    doc = _grid_2_with_raw_type()
    parse_cover_json(json.dumps(doc))  # it loads without the duplicate
    text = _with_duplicate(doc, route)
    node = doc
    for step in route:
        node = node[step]
    message = f"duplicate object key {next(iter(node))!r}"
    assert _outcome(_hooked, text) == (InputFormatError, message)
    with pytest.raises(InputFormatError) as info:
        parse_cover_json(text)
    assert str(info.value) == message
    # Trailing garbage after it: the plain decode would name the extra data,
    # but the duplicate comes first in the text and is named.
    assert "Extra data" in _outcome(json.loads, text + " x")[1]
    with pytest.raises(InputFormatError) as info:
        parse_cover_json(text + " x")
    assert str(info.value) == message


def test_component_ids_holding_a_colon_load_and_a_duplicate_beside_them_is_refused():
    doc = _colon_ids(grid_document(2))
    assert {c["id"] for c in doc["base"]["components"]} == {"F0:1", "F1:1", "S0:1", "S1:1"}
    base, cover = parse_cover_json(json.dumps(doc))
    assert canonical_document(base, cover) == doc
    assert base.component("S1:1").fiber_deg == 1 and cover.sheets_for("F0:1")
    text = _with_duplicate(doc, ("base", "crossings", 0))
    with pytest.raises(InputFormatError) as info:
        parse_cover_json(text)
    assert str(info.value) == "duplicate object key 'index'" == _outcome(_hooked, text)[1]


def test_the_hooked_decode_runs_only_on_a_text_the_count_does_not_clear(monkeypatch):
    calls = []

    def counted(pairs):
        calls.append(len(pairs))
        return hooked(pairs)

    hooked = loader._no_duplicate_keys
    monkeypatch.setattr(loader, "_no_duplicate_keys", counted)
    clean = grid_document(6)
    assert canonical_document(*parse_cover_json(json.dumps(clean))) == clean
    assert calls == []
    # Colons in its strings: the counts differ, but the colons outside its
    # strings match the members, and the hooked decode does not run.
    colons = _colon_ids(clean)
    assert canonical_document(*parse_cover_json(json.dumps(colons))) == colons
    assert calls == []
    # The top-level object repeating "base" last: neither count clears it,
    # and the hooked decode runs once, one call per object of the text,
    # the top-level one, which raises, last.
    text = _with_duplicate(colons, ())
    with pytest.raises(InputFormatError, match="duplicate object key 'base'"):
        parse_cover_json(text)
    assert len(calls) == _objects(colons) + _objects(colons["base"])


# Texts of a few objects whose keys may repeat or hold a colon, with strings
# that may hold one, sometimes cut short or followed by more text.
_KEYS = st.sampled_from(["a", "b", "a:b", ":", "\\u0061"])
_JSON_TEXTS = st.recursive(
    st.sampled_from(["1", "-2.5", "true", "null", '"x"', '"x:y"', "1e400", "[]"]),
    lambda children: st.lists(children, max_size=3).map(lambda items: f"[{', '.join(items)}]")
    | st.lists(st.tuples(_KEYS, children), max_size=4).map(
        lambda members: "{" + ", ".join(f'"{key}": {value}' for key, value in members) + "}"
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TEXTS, st.sampled_from(["", " ", " x", "]", ": 1"]), st.integers(0, 3))
def test_the_counted_decode_gives_the_hooked_decode_s_tree_or_error(text, tail, cut):
    text = (text + tail)[: len(text + tail) - cut]
    assert _outcome(loader._decode, text) == _outcome(_hooked, text)


@pytest.mark.parametrize(
    "local,message",
    [
        ([[1, 0], [2, 0]], f"{_PT_MSG}.local: "
         "generators must be linearly independent (got (1, 0), (2, 0))"),
        ([[0, 0], [0, 1]], f"{_PT_MSG}.local: "
         "generators must be linearly independent (got (0, 0), (0, 1))"),
    ],
    ids=["parallel", "zero-row"],
)
def test_loader_degenerate_lattice_is_exact(local, message):
    with pytest.raises(InvalidInputError) as info:
        parse_cover_json(_identity_with(_PT + ("local",), local))
    assert str(info.value) == message


_SHEET_MSG = "cover.ramification['D3'][0]"
_POINT_MSG = "cover.points_above['0'][0]"


@pytest.mark.parametrize(
    "path,value,error,message",
    [
        (("cover", "ramification", "D3", 0, "e"), 0, InvalidInputError,
         f"{_SHEET_MSG}: sheet e must be >= 1 (got 0)"),
        (("cover", "ramification", "D3", 0, "f"), 0, InvalidInputError,
         f"{_SHEET_MSG}: sheet f must be >= 1 (got 0)"),
        (("cover", "points_above", "0", 0, "j"), -1, InvalidInputError,
         f"{_POINT_MSG}: point sheet index j must be >= 0 (got -1)"),
        (("cover", "points_above", "0", 0, "jp"), -1, InvalidInputError,
         f"{_POINT_MSG}: point sheet index jp must be >= 0 (got -1)"),
        (("base", "components", 2, "genus"), -1, InvalidInputError,
         "base.components[2]: component 'D3': genus must be >= 0 (got -1)"),
        (("base", "components", 2, "fiber_deg"), -1, InvalidInputError,
         "base.components[2]: component 'D3': fiber_deg must be >= 0 (got -1)"),
        (("base", "components", 2, "id"), "", InvalidInputError,
         "base.components[2]: component id must be a non-empty string (got '')"),
        (("base", "crossings", 1, "index"), -1, InvalidInputError,
         "base.crossings[1]: crossing index must be >= 0 (got -1)"),
        (("base", "crossings", 1, "pair"), ["D1", "D1"], InvalidInputError,
         "base.crossings[1]: crossing 1: components must be distinct "
         "(transversal self-intersections are not modelled)"),
        (("cover", "points_above", "0", 0, "local"), [[2, 0], [4, 0]], InvalidInputError,
         f"{_POINT_MSG}.local: generators must be linearly independent (got (2, 0), (4, 0))"),
        # byte for byte the sheet list of D1, read before it: the loader's
        # memo must not hand back D1's sheets as points
        (("cover", "points_above", "0"), [{"e": 2, "f": 1}], InputFormatError,
         f"{_POINT_MSG}: unknown keys ['e', 'f']"),
    ],
    ids=["sheet-e", "sheet-f", "point-j", "point-jp", "genus", "fiber_deg", "empty-id",
         "crossing-index", "equal-pair", "degenerate-lattice", "points-as-sheets"],
)
def test_constructor_errors_name_their_path(capsys, tmp_path, path, value, error, message):
    doc = json.loads((COVERS / "bidouble.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises((InvalidInputError, InputFormatError)) as info:
        parse_cover_json(json.dumps(doc))
    assert type(info.value) is error
    assert str(info.value) == message
    document = tmp_path / "edited.json"
    document.write_text(json.dumps(doc))
    assert main(["invariants", str(document)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sheet_index_errors_name_the_document_path_or_the_canonical_point():
    # Over crossing 2 of the shuffled document, (j, jp) = (0, 7) is listed
    # second but sorts first: the loader names it by its place in the
    # document, and check_references, for a model built directly, by its
    # place in canonical order.
    shuffled = ROOT / "tests" / "fixtures" / "documents" / "shuffled.json"
    doc = json.loads(shuffled.read_text())
    node = {"n": 2, "q": 1, "m1": 1, "m2": 1}
    doc["cover"]["points_above"]["2"] = [
        {"j": 1, "jp": 1, "local": node}, {"j": 0, "jp": 7, "local": node},
    ]
    with pytest.raises(InvalidInputError) as info:
        parse_cover_json(json.dumps(doc))
    assert str(info.value) == (
        "cover.points_above['2'][1].jp: sheet index 7 out of range for component 'D3' (2 sheets)"
    )
    base, cover = load_cover_path(str(shuffled))
    local = LocalCoverType(**node)
    points = (PointAbove(1, 1, local), PointAbove(0, 7, local))
    bad = replace(cover, points_above=tuple(
        (idx, points if idx == 2 else pts) for idx, pts in cover.points_above
    ))
    with pytest.raises(InvalidInputError) as info:
        check_references(base, bad)
    assert str(info.value) == (
        "crossing 2, point 0: sheet index jp=7 out of range for component 'D3' (2 sheets)"
    )


def test_a_shared_point_list_out_of_range_is_named_at_its_lowest_crossing():
    # One point list with j = 1 under crossings 9 and 6 of grid(4), written
    # with 9 first; every component has one sheet, so both crossings fail and
    # the lower one is named.  check_references checks each crossing's
    # points against its own sheet counts.
    doc = grid_document(4)
    lattice = [[2, 0], [1, 1]]
    bad = [{"j": 0, "jp": 0, "local": lattice}, {"j": 1, "jp": 0, "local": lattice}]
    rest = doc["cover"]["points_above"]
    doc["cover"]["points_above"] = {
        "9": bad, **{key: pts for key, pts in rest.items() if key not in ("6", "9")}, "6": bad,
    }
    with pytest.raises(InvalidInputError) as info:
        parse_cover_json(json.dumps(doc))
    assert str(info.value) == (
        "cover.points_above['6'][1].j: sheet index 1 out of range for component 'F1' (1 sheets)"
    )
    base, cover = _grid(4)
    local = LatticeSubgroup((2, 0), (1, 1))
    shared = (PointAbove(0, 0, local), PointAbove(1, 0, local))
    with_shared = replace(cover, points_above=tuple(
        (idx, shared if idx in (6, 9) else pts) for idx, pts in cover.points_above
    ))
    with pytest.raises(InvalidInputError) as info:
        check_references(base, with_shared)
    assert str(info.value) == (
        "crossing 6, point 1: sheet index j=1 out of range for component 'F1' (1 sheets)"
    )
    # With two sheets on F1, crossing 6 (F1, S2) passes and crossing 9
    # (F2, S1) still fails on the same list.
    sheets = dict(with_shared.ramification)
    two_sheets = replace(with_shared, ramification=tuple(
        (cid, sheets["F1"] * 2 if cid == "F1" else ram) for cid, ram in with_shared.ramification
    ))
    with pytest.raises(InvalidInputError) as info:
        check_references(base, two_sheets)
    assert str(info.value) == (
        "crossing 9, point 1: sheet index j=1 out of range for component 'F2' (1 sheets)"
    )


def test_a_sheet_index_past_the_fewest_sheets_but_in_range_loads():
    # F1 has two sheets, every other component one, and the point over
    # crossing 6 (F1, S2) is on F1's second sheet: no index reaches past the
    # fewest sheets of either component of its crossing, so it loads, to
    # the model built from the same lists.
    doc = grid_document(4)
    sheet, lattice = {"e": 2, "f": 1}, [[2, 0], [1, 1]]
    doc["cover"]["ramification"]["F1"] = [sheet, sheet]
    doc["cover"]["points_above"]["6"] = [{"j": 1, "jp": 0, "local": lattice}]
    base, cover = parse_cover_json(json.dumps(doc))
    expected_base, grid = _grid(4)
    point = (PointAbove(1, 0, LatticeSubgroup((2, 0), (1, 1))),)
    expected = replace(
        grid,
        ramification=tuple(
            (cid, (RamSheet(2, 1),) * (2 if cid == "F1" else 1)) for cid, _ in grid.ramification
        ),
        points_above=tuple((idx, point if idx == 6 else pts) for idx, pts in grid.points_above),
    )
    assert (base, cover) == (expected_base, expected)
    check_references(base, cover)


def test_a_sheet_index_past_the_sheets_of_the_component_with_fewest_is_named():
    # Every component has two sheets but S3, which has one; the point over
    # crossing 3 (F0, S3) is on S3's second sheet, and the point over
    # crossing 5 (F1, S1) on F1's, which exists.
    doc = grid_document(4)
    sheet, lattice = {"e": 2, "f": 1}, [[2, 0], [1, 1]]
    for cid in doc["cover"]["ramification"]:
        doc["cover"]["ramification"][cid] = [sheet] if cid == "S3" else [sheet, sheet]
    doc["cover"]["points_above"]["3"] = [{"j": 0, "jp": 1, "local": lattice}]
    doc["cover"]["points_above"]["5"] = [{"j": 1, "jp": 0, "local": lattice}]
    with pytest.raises(InvalidInputError) as info:
        parse_cover_json(json.dumps(doc))
    assert str(info.value) == (
        "cover.points_above['3'][0].jp: sheet index 1 out of range for component 'S3' (1 sheets)"
    )


# repeated_points.json's twelve points are five distinct records over four
# distinct point lists.

REPEATED = DOCUMENTS / "repeated_points.json"


def _points(cover) -> list:
    return [pt for _, pts in cover.points_above for pt in pts]


def test_two_parses_share_no_object():
    text = REPEATED.read_text()
    first, second = (_points(parse_cover_json(text)[1]) for _ in range(2))
    assert first == second

    def objects(points):
        return {id(obj) for pt in points for obj in (pt, pt.local)}

    assert not objects(first) & objects(second)


def test_two_bases_of_one_subgroup_stay_distinct_and_echo_as_given():
    base, cover = load_cover_path(str(REPEATED))
    given, other = LatticeSubgroup((2, 0), (1, 1)), LatticeSubgroup((2, 0), (3, 1))
    assert local_type(given) == local_type(other)
    assert {pt.local for pt in _points(cover) if isinstance(pt.local, LatticeSubgroup)} == {
        LatticeSubgroup((1, 0), (0, 1)), given, other,
    }
    for echo in (reference_document(base, cover), canonical_document(base, cover)):
        nodes = {idx: [pt["local"] for pt in pts if pt["j"] == 1]
                 for idx, pts in echo["cover"]["points_above"].items()}
        assert nodes == {
            "0": [[[2, 0], [1, 1]]], "1": [[[2, 0], [3, 1]]],
            "2": [{"n": 2, "q": 1, "m1": 1, "m2": 1}], "3": [[[2, 0], [1, 1]]],
        }


def test_equal_but_distinct_points_built_by_hand_render_the_same_bytes():
    # The walk and the writer key on identity: a model whose equal points
    # are distinct objects takes the slow path to the same bytes, which are
    # the reports frozen before the loader shared equal records.
    base, loaded = load_cover_path(str(REPEATED))

    def copy(pt):
        local = pt.local
        if isinstance(local, LatticeSubgroup):
            local = LatticeSubgroup(local.g1, local.g2)
        else:
            local = LocalCoverType(local.n, local.q, local.m1, local.m2)
        return PointAbove(pt.j, pt.jp, local)

    built = replace(loaded, points_above=tuple(
        (idx, tuple(copy(pt) for pt in pts)) for idx, pts in loaded.points_above
    ))
    assert built == loaded
    assert len({id(pt.local) for pt in _points(built)}) == 12
    for cover in (loaded, built):
        violations, certificate, error = examine(base, cover, strict=True)
        doc = ReportDocument(True, base, cover, tuple(violations), certificate, error)
        assert doc.to_text() == (FIXTURES / "repeated_points.strict.txt").read_text()
        assert "".join(doc.to_json()) == (FIXTURES / "repeated_points.strict.json").read_text()


def _views(base, cover, strict):
    """Everything a run shows of a model: findings, receipts, report, error and both reports."""
    violations, certificate, error = examine(base, cover, strict=strict)
    doc = ReportDocument(strict, base, cover, tuple(violations), certificate, error)
    numbers = None if certificate is None else (certificate.receipts, certificate.report)
    return violations, numbers, error, doc.to_text(), "".join(doc.to_json())


@pytest.mark.parametrize("strict", [False, True], ids=["standard", "strict"])
@pytest.mark.parametrize(
    "load",
    [lambda: _grid(6), _grid_with_self_ints,
     *(lambda p=p: load_cover_path(str(p)) for p in _LOADABLE)],
    ids=["grid_6", "grid_6_self_ints", *(f"{p.parent.name}/{p.name}" for p in _LOADABLE)],
)
def test_a_twin_sharing_no_object_gives_the_same_answers(load, strict):
    # The walk and the writer key their per-component and per-crossing work
    # on the identity of the loader's shared sheet and point lists.  A twin
    # sharing no list, no point and no local data pays once per component
    # and crossing, and must show the same findings, receipts, report, error
    # and bytes.  many_sheets, short_sheets and failing_receipts repeat
    # shapes that carry V2, V4 and failed receipts; grid_6_self_ints gives
    # twelve components on one ramified sheet list twelve self-intersections.
    base, loaded = load()
    fresh = twin(loaded)
    assert fresh == loaded
    objects = [id(x) for _, pts in fresh.points_above for pt in pts for x in (pt, pt.local)]
    assert len(set(objects)) == len(objects)
    assert _views(base, fresh, strict) == _views(base, loaded, strict)


def _shared_faulty_shape(local):
    """grid(6) with ``local`` in its one point list, written from crossing 35 down."""
    doc = grid_document(6)
    doc["base"]["crossings"].reverse()
    points_above = doc["cover"]["points_above"]
    doc["cover"]["points_above"] = {str(x): points_above[str(x)] for x in range(35, -1, -1)}
    for points in points_above.values():
        points[0]["local"] = local
    return parse_cover_json(json.dumps(doc))


_NOT_COPRIME = "n and q must be coprime (got gcd(4, 2) = 2)"


def _shared_fault_findings(base, kind, strict):
    """The sorted ``(code, where, message)`` of every finding of ``_shared_faulty_shape``."""
    found = []
    for x in base.crossings:
        at, (first, second) = f"crossing {x.index}", x.pair
        point = (at, "point 0")
        if kind == "v3":
            found.append(
                ("V3", point, f"{at}, point 0: local e1=1 but sheet 0 of {first!r} has e=2")
            )
            if strict:
                found.append(("V4", (at, "sheet j=0"), (
                    f"{at}: m2 over sheet 0 of {first!r} sums to 2, expected f=1; "
                    "1 of 1 sheet(s) off"
                )))
        else:
            found += [
                ("V2", (at,), f"{at}: sum of local degrees d_y is 4, expected degree 2"),
                ("V3", point, f"{at}, point 0: local e1=4 but sheet 0 of {first!r} has e=2"),
                ("V3", point, f"{at}, point 0: local e2=4 but sheet 0 of {second!r} has e=2"),
                ("V5", point, f"{at}, point 0: {_NOT_COPRIME}"),
            ]
    return sorted(found)


@pytest.mark.parametrize("strict", [False, True], ids=["standard", "strict"])
@pytest.mark.parametrize(
    "kind,local",
    [("v3", [[1, 0], [0, 2]]), ("invalid", {"n": 4, "q": 2, "m1": 1, "m2": 1})],
    ids=["v3", "invalid"],
)
def test_a_shared_faulty_shape_is_named_at_every_crossing(kind, local, strict):
    # grid(6)'s 36 crossings share one point list, here with a lattice of
    # e1 = 1 (V3, and V4 when strict) or a raw type with n and q not coprime
    # (V2, V3 twice and V5, and an error).  Each crossing's findings name it
    # and its own components, in the sort order of (code, where, message),
    # and the lowest crossing index is the error; a twin sharing nothing
    # shows the same findings, receipts, error and bytes.
    base, cover = _shared_faulty_shape(local)
    assert len({id(cover.points_for(x.index)) for x in base.crossings}) == 1
    violations, certificate, error = examine(base, cover, strict=strict)
    assert [(v.code, v.where, v.message) for v in violations] == (
        _shared_fault_findings(base, kind, strict)
    )
    if kind == "v3":
        assert error is None and len(tuple(certificate.receipts)) == 3 * 36 + 2 * 12 + 1
    else:
        assert (certificate, error) == (None, f"crossing 0: invalid local type: {_NOT_COPRIME}")
    assert _views(base, twin(cover), strict) == _views(base, cover, strict)


def test_equal_sheet_and_point_lists_load_to_one_tuple():
    base, cover = _grid(6)
    assert len({id(cover.sheets_for(c.id)) for c in base.components}) == 1
    assert len({id(cover.points_for(x.index)) for x in base.crossings}) == 1
    # Its four components carry one sheet list; its four crossings hold four
    # different point lists.
    _, repeated = load_cover_path(str(REPEATED))
    assert len({id(sheets) for _, sheets in repeated.ramification}) == 1
    assert len({id(points) for _, points in repeated.points_above}) == 4


def test_the_walk_computes_each_crossing_shape_once(monkeypatch):
    # grid(6): 36 crossings, all on one sheet list with one point list.  Its
    # twin's 36 lattices are distinct objects of one value, classified once.
    base, loaded = _grid(6)
    calls = []
    shape = invariants._crossing_shape
    monkeypatch.setattr(
        invariants, "_crossing_shape", lambda *args: calls.append("shape") or shape(*args)
    )
    monkeypatch.setattr(
        model, "local_type", lambda gamma: calls.append("local") or local_type(gamma)
    )
    for cover, count in ((loaded, 1), (twin(loaded), 36)):
        calls.clear()
        examine(base, cover, strict=True)
        assert (calls.count("shape"), calls.count("local")) == (count, 1)


def test_each_distinct_sheet_list_is_examined_once(monkeypatch):
    # grid(20): 40 components, all on one sheet list.  The walk decides its
    # branch multiplicity and diagonal factor verdicts once, before the first
    # crossing shape; the twin's 40 distinct lists are decided per component.
    base, loaded = _grid(20)
    calls = []
    within, shape = invariants._within, invariants._crossing_shape
    monkeypatch.setattr(
        invariants, "_within", lambda *args: calls.append("within") or within(*args)
    )
    monkeypatch.setattr(
        invariants, "_crossing_shape", lambda *args: calls.append("shape") or shape(*args)
    )
    for cover, count in ((loaded, 2), (twin(loaded), 80)):
        calls.clear()
        examine(base, cover, strict=True)
        assert calls.index("shape") == count


def test_the_walk_keeps_no_row_per_crossing():
    # The certificate keeps each crossing shape's three receipts once and,
    # per crossing, its index and shape number.  Traced memory left by
    # examine(..., strict=True) on grid(80), 6 400 crossings, under CPython
    # 3.11: 3.05 MiB with three named rows stored per crossing, 0.17 MiB
    # with receipts by shape.
    base, cover = _grid(80)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        violations, certificate, error = examine(base, cover, strict=True)
        rise = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (violations, error) == ([], None)
    assert len(tuple(certificate.receipts)) == 3 * 6400 + 2 * 160 + 1
    assert rise <= 1.5 * 2**20


@pytest.mark.parametrize("copies", [1, 10, 100])
def test_each_distinct_point_list_is_sorted_once(monkeypatch, copies):
    # repeated_points.json's four crossings, repeated: four distinct point
    # lists of three points each, sorted once each whatever the copies.
    doc = json.loads(REPEATED.read_text())
    crossings, points = doc["base"]["crossings"], doc["cover"]["points_above"]
    doc["base"]["crossings"] = [
        {"index": 4 * r + x["index"], "pair": x["pair"]} for r in range(copies) for x in crossings
    ]
    doc["cover"]["points_above"] = {
        str(4 * r + int(idx)): pts for r in range(copies) for idx, pts in points.items()
    }
    calls = []
    point_key = model._point_key
    monkeypatch.setattr(model, "_point_key", lambda p: calls.append(p) or point_key(p))
    _, cover = parse_cover_json(json.dumps(doc))
    assert len(calls) == 12
    assert len({id(pts) for _, pts in cover.points_above}) == 4


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"j": 1.0}, "cover.points_above['0'][3].j: expected an integer (got 1.0)"),
        ({"j": True}, "cover.points_above['0'][3].j: expected an integer (got True)"),
        ({"jq": 0}, "cover.points_above['0'][3]: unknown keys ['jq']"),
        ({"j": -1}, "cover.points_above['0'][3]: point sheet index j must be >= 0 (got -1)"),
        ({"jp": 7}, "cover.points_above['0'][3].jp: sheet index 7 out of range "
                    "for component 'D3' (2 sheets)"),
    ],
    ids=["float-j", "bool-j", "unknown-key", "negative-j", "jp-out-of-range"],
)
def test_a_repeated_local_does_not_excuse_its_record(edit, message):
    # Over crossing 0 the second point is the smooth lattice on sheets (0, 0),
    # and the third repeats it; a fourth repeats it too, with one field edited.
    doc = json.loads(REPEATED.read_text())
    points = doc["cover"]["points_above"]["0"]
    assert points[1] == points[2]
    points.append({**points[1], **edit})
    points.append(points[3])  # an equal record after the faulty one
    with pytest.raises((InputFormatError, InvalidInputError)) as info:
        parse_cover_json(json.dumps(doc))
    assert str(info.value) == message


# The loader keys a sheet or point list on its marshal bytes
# (loader._parse_cover).  grid(6) repeats one sheet list and one point list;
# a copy of either, retyped in one value, must be judged as a list of its own,
# whether it comes before or after the shared list is stored.


@pytest.mark.parametrize("key", ["0", "35"], ids=["first", "last"])
@pytest.mark.parametrize(
    "edit,got", [({"j": False}, "False"), ({"j": 0.0}, "0.0")], ids=["false-j", "float-j"]
)
def test_a_retyped_copy_of_a_shared_point_list_is_refused_by_its_path(key, edit, got):
    doc = grid_document(6)
    points = doc["cover"]["points_above"]
    points[key] = [{**points[key][0], **edit}]
    with pytest.raises(InputFormatError) as info:
        parse_cover_json(json.dumps(doc))
    assert str(info.value) == f"cover.points_above[{key!r}][0].j: expected an integer (got {got})"


@pytest.mark.parametrize("cid", ["F0", "S5"], ids=["first", "last"])
def test_a_retyped_copy_of_a_shared_sheet_list_is_refused_by_its_path(cid):
    doc = grid_document(6)
    doc["cover"]["ramification"][cid] = [{"e": 2, "f": True}]
    with pytest.raises(InputFormatError) as info:
        parse_cover_json(json.dumps(doc))
    assert str(info.value) == f"cover.ramification[{cid!r}][0].f: expected an integer (got True)"


def test_the_list_key_is_a_function_of_the_typed_value(monkeypatch):
    # One int object held twice, and two distinct equal ones: marshal's
    # default version writes the first with a back-reference, version 2 as
    # the second, so both lists load to one tuple.  The decoder never gives
    # one int object past the small ones twice, so the loader is handed the
    # tree as decoded.
    one = int("1001")
    shared, distinct = [{"e": one, "f": one}], [{"e": int("1001"), "f": int("1001")}]
    assert marshal.dumps(shared) != marshal.dumps(distinct)
    doc = json.loads(dumps_document(*double_cover()))
    doc["cover"]["ramification"].update(D1=distinct, D2=shared)
    with monkeypatch.context() as patch:
        patch.setattr(loader, "_decode", lambda text: doc)
        cover = parse_cover_json("")[1]
    assert cover.sheets_for("D1") is cover.sheets_for("D2") == (RamSheet(1001, 1001),)
    # true and 1.0 are equal to 1, but their keys differ from its key, so
    # each copy read after a list of 1s is judged and refused.
    for value, got in ((True, "True"), (1.0, "1.0")):
        doc["cover"]["ramification"].update(D1=[{"e": 1, "f": 1}], D2=[{"e": 1, "f": value}])
        with pytest.raises(InputFormatError) as info:
            parse_cover_json(json.dumps(doc))
        assert str(info.value) == f"cover.ramification['D2'][0].f: expected an integer (got {got})"


def test_a_point_list_with_its_keys_in_another_order_gives_the_same_bytes():
    # Its marshal bytes differ, so it loads to a tuple of its own, equal to
    # the shared one, and the walk computes its crossing shape apart: the
    # answers and bytes are those of the document as written.
    doc = grid_document(6)
    expected = _views(*parse_cover_json(json.dumps(doc)), True)
    points = doc["cover"]["points_above"]
    points["35"] = [{key: points["35"][0][key] for key in ("local", "jp", "j")}]
    assert json.dumps(points["35"]) != json.dumps(points["0"])
    base, cover = parse_cover_json(json.dumps(doc))
    assert cover.points_for(35) == cover.points_for(0)
    assert len({id(cover.points_for(idx)) for idx in range(36)}) == 2
    assert _views(base, cover, True) == expected


def test_each_distinct_list_is_checked_once(monkeypatch):
    # grid(20): 40 sheet lists and 400 point lists, each the one shared list
    # of one record: one sheet, one point and one lattice are constructed.
    calls = []

    def counted(name, make):
        return lambda *args, **kwargs: calls.append(name) or make(*args, **kwargs)

    monkeypatch.setattr(loader, "LatticeSubgroup", counted("lattice", LatticeSubgroup))
    monkeypatch.setattr(loader, "PointAbove", counted("point", PointAbove))
    monkeypatch.setattr(loader, "RamSheet", counted("sheet", RamSheet))
    base, cover = _grid(20)
    assert (len(base.crossings), len(cover.points_above)) == (400, 400)
    assert sorted(calls) == ["lattice", "point", "sheet"]
