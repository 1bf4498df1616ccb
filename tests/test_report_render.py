"""The JSON renderer writes the bytes of ``json.dumps(indent=2, sort_keys=True)``.

``render_json`` recurses through every container and has each callable
member write itself at the depth it reached; the oracle here is the standard
library's indenting encoder.  ``ReportDocument.to_json`` writes the
certificate terms and the echoed crossings and points one chunk per record;
the oracle for it is ``json.dumps`` of the tree that ``report_reference``
builds, and every report it renders validates against
``docs/report_schema.json``.
"""

import enum
import functools
import io
import json
import math
import pathlib
import sys
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramcov.report
from ramcov.cli import main
from ramcov.golden import double_cover
from ramcov.invariants import examine
from ramcov.loader import load_cover_path, parse_cover_json
from ramcov.local_cover import LatticeSubgroup, LocalCoverType
from ramcov.model import BranchComponent, CoverDescription, Crossing, PointAbove, RamSheet
from ramcov.report import ReportDocument, dumps_document, render_json
from ramcov.value import Value
from rebuild import replace
from report_reference import reference_document, reference_report
from ruled_documents import grid_document

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
DOCUMENTS = pathlib.Path(__file__).resolve().parent / "fixtures" / "documents"
REPORT_SCHEMA = jsonschema.Draft202012Validator(
    json.loads((ROOT / "docs" / "report_schema.json").read_text())
)

# Keys mix non-ASCII text with the characters JSON escapes or uses as syntax.
_KEYS = st.text(alphabet=st.characters() | st.sampled_from('"\\[]{},: \n\t'), max_size=6)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_render_json_matches_stdlib_indent_2(obj):
    assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


# Text holding the characters that open, close and separate members.
_TRICKY = st.text(
    alphabet=st.characters() | st.sampled_from(["}", "{", ",", '"', "\n", "\\", "é", "☃"]),
    max_size=8,
) | st.sampled_from(["},\n  {", "},\n    {", '"},\n{"'])
_FLAT_SCALARS = _SCALARS | _TRICKY
_FLAT_OBJECTS = st.dictionaries(_TRICKY, _FLAT_SCALARS, min_size=1, max_size=5)
# Lists of flat objects (the shape of the components, sheets and violations),
# alone and mixed with empty and nested members.
_FLAT_LISTS = st.lists(_FLAT_OBJECTS, min_size=1, max_size=6) | st.lists(
    _FLAT_OBJECTS | st.sampled_from([{}, [], {"k": {}}, {"k": [1]}]), min_size=1, max_size=6
)


def _nest(obj, wrappers):
    """``obj`` wrapped once per entry of ``wrappers``: under that key, or in a list for None."""
    for key in wrappers:
        obj = dict([("z", 0), (key, obj)]) if key is not None else [0, obj]
    return obj


@settings(max_examples=300, deadline=None)
@given(_FLAT_LISTS, st.lists(st.none() | _TRICKY, max_size=4))
def test_render_json_lists_of_flat_objects_at_any_depth(members, wrappers):
    obj = _nest(members, wrappers)
    assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_render_json_empty_and_nested_edges():
    for obj in ({}, [], (), {"a": {}, "b": []}, [[], [{}]], {"k": [[1, 2], [3, {"x": None}]]}):
        assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [None, True, False, -12, "Dé3☃"], ids=repr)
def test_a_scalar_is_written_as_json_dumps_writes_it(value):
    assert ramcov.report._scalar(value) == json.dumps(value)


def test_points_above_keys_are_written_in_string_order():
    # Sorted as strings, "1" < "10" < "100" < "9"; the writer sorts the quoted
    # keys, and '"' sorts below every digit, so the order is the same.
    base, cover = double_cover()
    index = dict(zip(sorted(base._crossings), (9, 10, 100, 1)))
    base = replace(base, crossings=tuple(Crossing(index[x.index], x.pair) for x in base.crossings))
    cover = replace(cover, points_above=tuple(
        (index[idx], points) for idx, points in cover.points_above
    ))
    written = dumps_document(base, cover)
    assert written == json.dumps(reference_document(base, cover), indent=2, sort_keys=True) + "\n"
    keys = list(json.loads(written)["cover"]["points_above"])
    assert keys == ["1", "10", "100", "9"]


class _Level(enum.IntEnum):
    LOW = -3


# A record of each kind the report lays out, in json.dumps' terms: an id
# that JSON escapes, an IntEnum value and an int past 64 bits among them.
_RECORD_SAMPLES = {
    "component": {
        "id": 'C"é\\1\n', "genus": _Level.LOW, "self_int": -(10**30), "KX_dot": 0, "fiber_deg": 2
    },
    "crossing": {"index": 7, "pair": ["a\tb", "☃"]},
    "sheet": {"e": 3, "f": _Level.LOW},
    "lattice point": {"j": 0, "jp": 1, "local": [[1, _Level.LOW], [0, 5]]},
    "typed point": {"j": 1, "jp": 0, "local": {"n": 5, "q": 2, "m1": 1, "m2": _Level.LOW}},
    "row": {
        "name": 'branch_mult[a"b]', "value": "-3/2", "bound": "4", "per_degree": "2", "ok": True
    },
}


def _leaves(obj):
    """The scalars of ``obj`` in the order ``json.dumps(sort_keys=True)`` writes them."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key])
    elif isinstance(obj, list):
        for member in obj:
            yield from _leaves(member)
    else:
        yield obj


def _written(value) -> str:
    """A scalar as the record writers write it: an int through ``format``, any other as JSON."""
    return f"{value}" if isinstance(value, int) and not isinstance(value, bool) else json.dumps(value)


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("kind", sorted(_RECORD_SAMPLES))
def test_each_record_layout_is_its_json_cut_at_the_values(kind, depth):
    assert set(ramcov.report._RECORDS) == set(_RECORD_SAMPLES)
    parts = ramcov.report._layout(kind, depth)
    values = [_written(v) for v in _leaves(_RECORD_SAMPLES[kind])]
    assert len(parts) == len(values) + 1
    text = parts[0] + "".join(value + part for value, part in zip(values, parts[1:]))
    indented = json.dumps(_RECORD_SAMPLES[kind], indent=2, sort_keys=True)
    assert text == indented.replace("\n", "\n" + "  " * depth)


@pytest.mark.parametrize(
    "kind, cls",
    [
        ("component", BranchComponent),
        ("crossing", Crossing),
        ("sheet", RamSheet),
        ("lattice point", PointAbove),
        ("typed point", PointAbove),
    ],
)
def test_each_model_record_has_its_types_fields_as_keys(kind, cls):
    shape = ramcov.report._RECORDS[kind]
    assert tuple(shape) == cls.__match_args__
    if kind == "typed point":
        assert tuple(shape["local"]) == LocalCoverType.__match_args__


def _write_json(value, depth, out):
    """Append the JSON of ``value``, opened at ``depth``, one chunk per line."""
    first, *rest = json.dumps(value, indent=2, sort_keys=True).split("\n")
    out.append(first)
    out.extend("\n" + "  " * depth + line for line in rest)


def _writers(obj, rnd):
    """``obj`` with some members replaced by callables that write their JSON."""
    if not isinstance(obj, (dict, list, tuple)):
        return obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    members = {}
    for key, value in items:
        if rnd.random() < 0.4:
            members[key] = functools.partial(_write_json, value)
        else:
            members[key] = _writers(value, rnd)
    return members if isinstance(obj, dict) else [members[k] for k in range(len(obj))]


@settings(max_examples=200, deadline=None)
@given(_TREES, st.randoms(use_true_random=False))
def test_render_json_has_members_write_themselves_at_their_depth(obj, rnd):
    assert render_json(_writers(obj, rnd)) == json.dumps(obj, indent=2, sort_keys=True)


def _rendered(argv, capsys, monkeypatch):
    """Exit code, stdout and the report document (or None) of one ``ramcov`` run."""
    rendered = []
    to_json = ramcov.report.ReportDocument.to_json

    def recording(doc):
        rendered.append(doc)
        return to_json(doc)

    monkeypatch.setattr(ramcov.report.ReportDocument, "to_json", recording)
    code = main(argv)
    out = capsys.readouterr().out
    assert len(rendered) <= 1
    return code, out, rendered[0] if rendered else None


def test_grid_report_matches_stdlib_rendering(capsys, monkeypatch, tmp_path):
    k = 8
    target = tmp_path / "grid.json"
    target.write_text(json.dumps(grid_document(k)))
    argv = ["invariants", str(target), "--strict", "--json"]
    code, out, doc = _rendered(argv, capsys, monkeypatch)
    assert code == 0
    assert out == json.dumps(reference_report(doc), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    assert payload["invariants"]["chi"] == str(1 + (1 - k // 2) ** 2)
    assert len(payload["certificate"]["terms"]) == 3 * k * k + 2 * (2 * k) + 1


def _bidouble_with_escaped_ids() -> dict:
    # Ids holding a quote, a backslash, a non-ASCII character and one
    # outside the Basic Multilingual Plane, which JSON escapes as a
    # surrogate pair.
    names = {"D1": 'D"1', "D2": "D\\2", "D3": "D\u00e93", "D4": "D\U0001d49f4"}

    def rename(obj):
        if isinstance(obj, dict):
            return {names.get(k, k): rename(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [rename(v) for v in obj]
        return names.get(obj, obj) if isinstance(obj, str) else obj

    return rename(json.loads((COVERS / "bidouble.json").read_text()))


def _bidouble_with_bracketed_ids() -> dict:
    # Ids that JSON escapes or that hold the brackets of a row's name, and
    # a fifth component whose sheet list differs from the others': two
    # sheet-list shapes, each written once as a template.
    names = {"D1": "\u00e9", "D2": 'a"b', "D3": "x[1]"}
    doc = _bidouble_with_d5([{"e": 1, "f": 2}])
    text = json.dumps(doc)
    for old, new in names.items():
        text = text.replace(json.dumps(old), json.dumps(new))
    return json.loads(text)


def _row_values(payload: dict, kind: str) -> dict:
    return {
        term["name"]: term["value"]
        for term in payload["certificate"]["terms"] if term["name"].startswith(kind)
    }


def _edited(name: str, edit) -> dict:
    doc = json.loads((COVERS / name).read_text())
    edit(doc)
    return doc


def _identity_with(edit) -> dict:
    return _edited("identity.json", lambda doc: edit(doc["cover"]["points_above"]))


def _bidouble_with_d5(sheets) -> dict:
    # bidouble.json and a component D5 on no crossing, with ``sheets`` as
    # its sheet list, or no ramification entry for None.
    def edit(doc):
        doc["base"]["components"].append(
            {"id": "D5", "genus": 1, "self_int": -3, "KX_dot": 5, "fiber_deg": 2}
        )
        if sheets is not None:
            doc["cover"]["ramification"]["D5"] = sheets

    return _edited("bidouble.json", edit)


def _reordered_sheet_keys(doc):
    # D1's and D3's sheet lists, written with their keys in another order,
    # load to tuples equal to, but not one with, those of D2 and D4.
    for cid in ("D1", "D3"):
        doc["cover"]["ramification"][cid] = [{"f": s["f"], "e": s["e"]}
                                             for s in doc["cover"]["ramification"][cid]]


#: (name, document, what its report must show) of documents built here.
_EDITED = [
    ("escaped_ids", _bidouble_with_escaped_ids(),
     lambda p: [c["id"] for c in p["input"]["base"]["components"]]
     == ['D"1', "D\\2", "D\u00e93", "D\U0001d49f4"]),
    ("bracketed_ids", _bidouble_with_bracketed_ids(),
     lambda p: _row_values(p, "branch_mult[") == {
         "branch_mult[\u00e9]": "1", 'branch_mult[a"b]': "1", "branch_mult[x[1]]": "1",
         "branch_mult[D4]": "1", "branch_mult[D5]": "0",
     } and list(_row_values(p, "rr_diagonal_factor[")) == [
         "rr_diagonal_factor[D4]", "rr_diagonal_factor[D5]", 'rr_diagonal_factor[a"b]',
         "rr_diagonal_factor[x[1]]", "rr_diagonal_factor[\u00e9]",
     ]),
    ("empty_point_list", _identity_with(lambda pts: pts.update({"0": []})),
     lambda p: p["input"]["cover"]["points_above"]["0"] == []),
    ("no_points", _identity_with(dict.clear), lambda p: p["input"]["cover"]["points_above"] == {}),
    ("local_type_not_coprime",
     _identity_with(lambda pts: pts["0"][0].update(local={"n": 4, "q": 2, "m1": 1, "m2": 1})),
     lambda p: p["certificate"] is None and "coprime" in p["error"]),
    ("grid_12", grid_document(12),
     lambda p: list(p["input"]["cover"]["points_above"])[:3] == ["0", "1", "10"]),
    ("component_without_sheets", _bidouble_with_d5(None),
     lambda p: "D5" not in p["input"]["cover"]["ramification"]
     and p["invariants"]["B_mult"]["D5"] == 0 and p["derived_base"]["open_components"]["D5"] == 0),
    ("empty_sheet_list", _bidouble_with_d5([]),
     lambda p: p["input"]["cover"]["ramification"]["D5"] == []
     and ["V1", ["D5"]] in [[v["code"], v["where"]] for v in p["validation"]["violations"]]),
    ("no_ramification",
     _edited("identity.json", lambda doc: doc["cover"].update(ramification={}, points_above={})),
     lambda p: p["input"]["cover"]["ramification"] == {}
     and p["invariants"]["B_mult"] == {"D1": 0, "D2": 0, "D3": 0, "D4": 0}),
    ("reordered_sheet_keys", _edited("bidouble.json", _reordered_sheet_keys),
     lambda p: [p["invariants"]["B_mult"], *p["input"]["cover"]["ramification"].values()]
     == [{"D1": 1, "D2": 1, "D3": 1, "D4": 1}, *[[{"e": 2, "f": 1}]] * 4]),
]
_FILES = [
    *sorted(COVERS.glob("*.json")),
    *sorted((COVERS / "malformed").glob("*.json")),
    *sorted(DOCUMENTS.glob("*.json")),
]
_EV = ("--ev", "1", "2", "0", "2", "3")
_FLAGS = [(), ("--strict",), _EV, ("--strict", *_EV)]


@pytest.mark.parametrize("flags", _FLAGS, ids=" ".join)
@pytest.mark.parametrize(
    "source", [*_FILES, *_EDITED],
    ids=[*(f"{p.parent.name}/{p.name}" for p in _FILES), *(e[0] for e in _EDITED)],
)
def test_report_writer_matches_stdlib_rendering(capsys, monkeypatch, tmp_path, source, flags):
    if isinstance(source, pathlib.Path):
        path, check = source, None
    else:
        name, document, check = source
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
    code, out, doc = _rendered(["invariants", str(path), "--json", *flags], capsys, monkeypatch)
    if doc is None:  # the document did not load
        assert (code, out) == (2, "")
        return
    assert out == json.dumps(reference_report(doc), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    REPORT_SCHEMA.validate(payload)
    assert check is None or check(payload)
    base, cover = load_cover_path(str(path))
    echo = reference_document(base, cover)
    assert dumps_document(base, cover) == json.dumps(echo, indent=2, sort_keys=True) + "\n"


def test_report_chunks_peak_below_twice_the_output():
    # The chunks are the output; the writer joins no list and no report, so
    # what it holds beyond them while it renders stays below one more copy,
    # and no chunk is longer than a crossing's records.  At grid(40) one
    # whole-report join peaks at 3.2x the output, and joining each list
    # into one chunk makes a chunk of 0.75 MB.
    base, cover = parse_cover_json(json.dumps(grid_document(40)))
    violations, certificate, error = examine(base, cover, None, strict=True)
    doc = ReportDocument(True, base, cover, tuple(violations), certificate, error)
    tracemalloc.start()
    try:
        chunks = doc.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(map(len, chunks))
    assert chunks[-1] == "\n" and size > 10**6
    assert peak < 2 * size
    assert max(map(len, chunks)) < 1024


class _RecordedWrites(io.StringIO):
    """A text stdout that keeps each string written to it, one entry per write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_the_cli_writes_the_report_in_bounded_batches(tmp_path, monkeypatch):
    # invariants --json joins at most 256 chunks per write: grid(40)'s 1.6 MB
    # report, 29 873 chunks, takes 117 writes, not one per chunk, and no
    # write holds the whole report.
    document = grid_document(40)
    path = tmp_path / "grid_40.json"
    path.write_text(json.dumps(document))
    base, cover = parse_cover_json(json.dumps(document))
    violations, certificate, error = examine(base, cover, None, strict=True)
    chunks = ReportDocument(True, base, cover, tuple(violations), certificate, error).to_json()
    out = _RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["invariants", str(path), "--strict", "--json"]) == 0
    assert "".join(out.writes) == out.getvalue() == "".join(chunks)
    assert len(chunks) > 10 * 256 and len(out.writes) <= math.ceil(len(chunks) / 256)
    assert max(len(text.encode()) for text in out.writes) < 256 * 1024


def _rebuilt(value, number):
    """``value`` built again through its constructors, each int ``v`` in it as ``number(v)``."""
    if type(value) is int:
        return number(value)
    if isinstance(value, tuple):
        return tuple(_rebuilt(member, number) for member in value)
    if isinstance(value, Value):
        return type(value)(*(_rebuilt(getattr(value, f), number) for f in value.__match_args__))
    return value


def test_the_echo_writes_an_int_subclass_as_its_number():
    # The model's checks take int subclasses; echoed as their reprs, IntEnum
    # members made ``"genus": <Number.N0: 0>``, which is not JSON.
    plain = load_cover_path(str(DOCUMENTS / "shuffled.json"))
    ints: list = []
    _rebuilt(plain, lambda v: ints.append(v) or v)
    Number = enum.IntEnum("Number", [(f"N{k}", v) for k, v in enumerate(sorted(set(ints)))])
    retyped = _rebuilt(plain, Number)
    # No exact int is left: every component field, crossing index, sheet,
    # point, lattice coordinate and raw local type field is a Number.
    exact: list = []
    _rebuilt(retyped, lambda v: exact.append(v) or v)
    assert ints and not exact
    points = [p for _, points in retyped[1].points_above for p in points]
    assert {type(p.local) for p in points} == {LatticeSubgroup, LocalCoverType}
    assert json.loads(dumps_document(*retyped)) == json.loads(dumps_document(*plain))

    def report(base, cover):
        violations, certificate, error = examine(base, cover, None, strict=True)
        doc = ReportDocument(True, base, cover, tuple(violations), certificate, error)
        return json.loads("".join(doc.to_json()))

    assert report(*retyped) == report(*plain)


class _Named(int):
    """An int that ``str()`` spells by a name and ``format`` by its number.

    So ``enum.IntEnum`` members behave on CPython 3.10.
    """

    def __str__(self):
        return f"Named.N{int(self)}"

    def __format__(self, spec):
        return format(int(self), spec)


def test_the_certificate_writes_a_degree_int_subclass_as_its_number():
    # A bound equal to the cover degree is the model's int; with str() the
    # double cover's certificate wrote "Named.N2" in 16 terms and text lines.
    base, plain = double_cover()
    named = CoverDescription(_Named(plain.degree), plain.ramification, plain.points_above)

    def reports(cover):
        violations, certificate, error = examine(base, cover, None, strict=True)
        doc = ReportDocument(True, base, cover, tuple(violations), certificate, error)
        return "".join(doc.to_json()), doc.to_text()

    assert "Named.N2" in str(named.degree)
    assert reports(named) == reports(plain)
