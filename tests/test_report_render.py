"""The JSON renderer writes the bytes of ``json.dumps(indent=2, sort_keys=True)``.

``render_json`` recurses through every container and copies members that
are already written at their depth; the oracle here is the standard
library's indenting encoder.  ``ReportDocument.to_json`` writes the
certificate terms and the echoed crossings and points one string per
record; the oracle for it is ``json.dumps`` of ``to_json_dict()``.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramcov.report
from ramcov.cli import main
from ramcov.loader import load_cover_path
from ramcov.report import _Written, canonical_document, dumps_document, render_json

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
DOCUMENTS = pathlib.Path(__file__).resolve().parent / "fixtures" / "documents"

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


def _written(obj, rnd, depth=0):
    """``obj`` with some members replaced by their JSON, written for the depth they open at."""
    if not isinstance(obj, (dict, list, tuple)):
        return obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    members = {}
    for key, value in items:
        if rnd.random() < 0.4:
            text = json.dumps(value, indent=2, sort_keys=True)
            members[key] = _Written(text.replace("\n", "\n" + "  " * (depth + 1)))
        else:
            members[key] = _written(value, rnd, depth + 1)
    return members if isinstance(obj, dict) else [members[k] for k in range(len(obj))]


@settings(max_examples=200, deadline=None)
@given(_TREES, st.randoms(use_true_random=False))
def test_render_json_copies_members_written_at_their_depth(obj, rnd):
    assert render_json(_written(obj, rnd)) == json.dumps(obj, indent=2, sort_keys=True)


def grid_document(k: int) -> dict:
    """Double cover of P1 x P1 branched on k fibres and k sections: k^2 nodes."""
    fibres = [f"F{i}" for i in range(k)]
    sections = [f"S{i}" for i in range(k)]
    return {
        "base": {
            "genus_C": 0,
            "KX_sq": 8,
            "euler_X": 4,
            "KX_dot_F": -2,
            "components": [
                {"id": cid, "genus": 0, "self_int": 0, "KX_dot": -2,
                 "fiber_deg": int(cid in sections)}
                for cid in fibres + sections
            ],
            "crossings": [
                {"index": i * k + j, "pair": [f, s]}
                for i, f in enumerate(fibres)
                for j, s in enumerate(sections)
            ],
        },
        "cover": {
            "degree": 2,
            "ramification": {cid: [{"e": 2, "f": 1}] for cid in fibres + sections},
            "points_above": {
                str(idx): [{"j": 0, "jp": 0, "local": [[2, 0], [1, 1]]}] for idx in range(k * k)
            },
        },
    }


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
    assert out == json.dumps(doc.to_json_dict(), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    assert payload["invariants"]["chi"] == str(1 + (1 - k // 2) ** 2)
    assert len(payload["certificate"]["terms"]) == 3 * k * k + 2 * (2 * k) + 1


def _bidouble_with_escaped_ids() -> dict:
    # Ids holding a quote, a backslash, a non-ASCII and a control character.
    names = {"D1": 'D"1', "D2": "D\\2", "D3": "D\u00e93", "D4": "D\x014"}

    def rename(obj):
        if isinstance(obj, dict):
            return {names.get(k, k): rename(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [rename(v) for v in obj]
        return names.get(obj, obj) if isinstance(obj, str) else obj

    return rename(json.loads((COVERS / "bidouble.json").read_text()))


def _identity_with(edit) -> dict:
    doc = json.loads((COVERS / "identity.json").read_text())
    edit(doc["cover"]["points_above"])
    return doc


#: (name, document, what its report must show) of documents built here.
_EDITED = [
    ("escaped_ids", _bidouble_with_escaped_ids(),
     lambda p: [c["id"] for c in p["input"]["base"]["components"]]
     == ["D\x014", 'D"1', "D\\2", "D\u00e93"]),
    ("empty_point_list", _identity_with(lambda pts: pts.update({"0": []})),
     lambda p: p["input"]["cover"]["points_above"]["0"] == []),
    ("no_points", _identity_with(dict.clear), lambda p: p["input"]["cover"]["points_above"] == {}),
    ("local_type_not_coprime",
     _identity_with(lambda pts: pts["0"][0].update(local={"n": 4, "q": 2, "m1": 1, "m2": 1})),
     lambda p: p["certificate"] is None and "coprime" in p["error"]),
    ("grid_12", grid_document(12),
     lambda p: list(p["input"]["cover"]["points_above"])[:3] == ["0", "1", "10"]),
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
    assert out == json.dumps(doc.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert check is None or check(json.loads(out))
    base, cover = load_cover_path(str(path))
    echo = canonical_document(base, cover)
    assert dumps_document(base, cover) == json.dumps(echo, indent=2, sort_keys=True) + "\n"

