"""Strict JSON loading, canonicalization, and the shipped document files."""

import json
import pathlib
from dataclasses import fields, replace

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcov import loader
from ramcov.cli import main
from ramcov.errors import InputFormatError, InvalidInputError
from ramcov.golden import double_cover, identity_cover, power_map_cover
from ramcov.loader import load_cover_path, parse_cover_json
from ramcov.local_cover import LocalCoverType
from ramcov.model import BranchComponent, Crossing, PointAbove, RamSheet, check_references
from ramcov.report import canonical_document, dumps_document

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
DOCUMENTS = ROOT / "tests" / "fixtures" / "documents"
SCHEMA = json.loads((ROOT / "docs" / "input_schema.json").read_text())


def _loads(path: pathlib.Path) -> bool:
    try:
        load_cover_path(str(path))
    except (InputFormatError, InvalidInputError):
        return False
    return True


def _grid(k: int):
    """The double cover of the square grid of k fibres and k sections."""
    fibres, sections = [f"F{i}" for i in range(k)], [f"S{j}" for j in range(k)]
    lines = fibres + sections
    doc = {
        "base": {
            "genus_C": 0, "KX_sq": 8, "euler_X": 4, "KX_dot_F": -2,
            "components": [
                {"id": c, "genus": 0, "self_int": 0, "KX_dot": -2, "fiber_deg": int(c in sections)}
                for c in lines
            ],
            "crossings": [
                {"index": i * k + j, "pair": [f, s]}
                for i, f in enumerate(fibres)
                for j, s in enumerate(sections)
            ],
        },
        "cover": {
            "degree": 2,
            "ramification": {c: [{"e": 2, "f": 1}] for c in lines},
            "points_above": {
                str(i): [{"j": 0, "jp": 0, "local": [[2, 0], [1, 1]]}] for i in range(k * k)
            },
        },
    }
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
        identity_cover,
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


@pytest.mark.parametrize(
    "table,model",
    [
        (loader._COMPONENT, BranchComponent),
        (loader._CROSSING, Crossing),
        (loader._SHEET, RamSheet),
        (loader._POINT, PointAbove),
        (loader._LOCAL_TYPE, LocalCoverType),
    ],
    ids=["component", "crossing", "sheet", "point", "local_type"],
)
def test_loader_tables_name_the_model_fields_in_order(table, model):
    # The loader builds each model from its table; the report's echo reads the model's fields.
    assert list(table) == [f.name for f in fields(model)]


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


def _identity_with(path, value):
    """The identity document as JSON text with the node at ``path`` replaced.

    ``path`` is a tuple of object keys and list indices from the top; the
    empty path replaces the whole document.
    """
    doc = canonical_document(*identity_cover())
    if not path:
        return json.dumps(value)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


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
     "base.crossings[0].pair: expected exactly two component ids"),
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


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"cover": {"x": 1, "y": 2, "y": 3, "x": 4}}', "duplicate object key 'y'"),
        ('{"base": {}, "base": {}}', "duplicate object key 'base'"),
        ('{"a": {"k": 1, "k": 1}, "a": 2}', "duplicate object key 'k'"),
        ('{"base": 2.0}',
         "floating point literal '2.0' is not allowed; all numeric fields are exact integers"),
        ('{"base": -Infinity}', "non-finite literal '-Infinity' is not allowed"),
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
    "path,value,message",
    [
        (("cover", "ramification", "D3", 0, "e"), 0,
         f"{_SHEET_MSG}: sheet e must be >= 1 (got 0)"),
        (("cover", "ramification", "D3", 0, "f"), 0,
         f"{_SHEET_MSG}: sheet f must be >= 1 (got 0)"),
        (("cover", "points_above", "0", 0, "j"), -1,
         f"{_POINT_MSG}: point sheet index j must be >= 0 (got -1)"),
        (("cover", "points_above", "0", 0, "jp"), -1,
         f"{_POINT_MSG}: point sheet index jp must be >= 0 (got -1)"),
        (("base", "components", 2, "genus"), -1,
         "base.components[2]: component 'D3': genus must be >= 0 (got -1)"),
        (("base", "components", 2, "fiber_deg"), -1,
         "base.components[2]: component 'D3': fiber_deg must be >= 0 (got -1)"),
        (("base", "components", 2, "id"), "",
         "base.components[2]: component id must be a non-empty string (got '')"),
        (("base", "crossings", 1, "index"), -1,
         "base.crossings[1]: crossing index must be >= 0 (got -1)"),
        (("base", "crossings", 1, "pair"), ["D1", "D1"],
         "base.crossings[1]: crossing 1: components must be distinct "
         "(transversal self-intersections are not modelled)"),
        (("cover", "points_above", "0", 0, "local"), [[2, 0], [4, 0]],
         f"{_POINT_MSG}.local: generators must be linearly independent (got (2, 0), (4, 0))"),
    ],
    ids=["sheet-e", "sheet-f", "point-j", "point-jp", "genus", "fiber_deg", "empty-id",
         "crossing-index", "equal-pair", "degenerate-lattice"],
)
def test_constructor_errors_name_their_path(capsys, tmp_path, path, value, message):
    doc = json.loads((COVERS / "bidouble.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InvalidInputError) as info:
        parse_cover_json(json.dumps(doc))
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
