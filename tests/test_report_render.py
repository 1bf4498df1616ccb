"""The JSON renderer writes the bytes of ``json.dumps(indent=2, sort_keys=True)``.

``render_json`` sends containers of scalars, and lists of non-empty objects
of scalars, to the C encoder and recurses in Python only through the other
containers of containers; the oracle here is the standard library's
pure-Python indenting encoder.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import ramcov.report
from ramcov.cli import main
from ramcov.report import render_json

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


# Text that looks like the member boundary the renderer rewrites.
_TRICKY = st.text(
    alphabet=st.characters() | st.sampled_from(["}", "{", ",", '"', "\n", "\\", "é", "☃"]),
    max_size=8,
) | st.sampled_from(["},\n  {", "},\n    {", '"},\n{"'])
_FLAT_SCALARS = _SCALARS | _TRICKY
_FLAT_OBJECTS = st.dictionaries(_TRICKY, _FLAT_SCALARS, min_size=1, max_size=5)
# Lists of flat objects only, and lists where an empty or nested member
# sends the renderer down its recursive path.
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


def test_render_json_without_the_c_accelerator(monkeypatch):
    monkeypatch.setattr(ramcov.report, "c_make_encoder", None)
    obj = {"b": [1, {"c": None}], "a": "x"}
    assert render_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


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


def test_grid_report_matches_stdlib_rendering(capsys, monkeypatch, tmp_path):
    k = 8
    target = tmp_path / "grid.json"
    target.write_text(json.dumps(grid_document(k)))
    rendered = []
    to_json = ramcov.report.ReportDocument.to_json

    def recording(doc):
        rendered.append(doc)
        return to_json(doc)

    monkeypatch.setattr(ramcov.report.ReportDocument, "to_json", recording)
    assert main(["invariants", str(target), "--strict", "--json"]) == 0
    out = capsys.readouterr().out
    (doc,) = rendered
    assert out == json.dumps(doc.to_json_dict(), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    assert payload["invariants"]["chi"] == str(1 + (1 - k // 2) ** 2)
    assert len(payload["certificate"]["terms"]) == 3 * k * k + 2 * (2 * k) + 1
