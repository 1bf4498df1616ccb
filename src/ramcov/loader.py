"""Strict JSON input for cover documents: this module only parses.

A document is one JSON object with top-level keys ``base`` and ``cover``
mirroring the model types field for field.  Parsing is deliberately fussy:
only exact integers are accepted (any floating point literal is an error),
object keys must be known, duplicate keys are rejected, and every
cross-reference must resolve.  List order is decided by the model, whose
constructors sort their lists (see :mod:`ramcov.model`), so documents equal
up to list order load to equal models and produce byte-identical reports.
The loader reads the ramification table in component id order only so that
the first bad sheet list in that order is the one an error names.  Lattice
generators are kept as given, not reduced: ``[[2,0],[1,1]]`` and
``[[2,0],[3,1]]`` generate the same subgroup but load to different models.
The document is written back, in canonical order, by :mod:`ramcov.report`.

Local data at a point is given either as a lattice subgroup
``[[g1x, g1y], [g2x, g2y]]`` (first coordinate = winding around the first
component of the crossing's pair) or directly as an object
``{"n":., "q":., "m1":., "m2":.}`` when the lattice is not known.

The field tables ``_COMPONENT`` ... ``_LOCAL_TYPE`` are the code's statement
of the six nested record formats: each names a record's keys, in the order
its fields are checked, with the converter of each; where the record is a
model type, that is also the order of its fields, as a test checks.
Parsing and the test holding ``docs/input_schema.json`` to the code read
them.

Every error names the path of the offending value, such as
``cover.points_above['3'][0].local[1][0]``; a range error that a model
constructor raises gets the path of its record.  A document has a few
fields per crossing, so that text is formatted only when an error is
raised: a check takes the path of the item and the suffix naming the field,
and the common cases (an exact ``int``, an object with exactly the allowed
keys, no duplicate key) are decided before any message is built.
"""

from __future__ import annotations

import json
from typing import AbstractSet, Any, Callable

from .errors import InputFormatError, InvalidInputError
from .local_cover import LatticeSubgroup, LocalCoverType
from .model import (
    BaseGeometry,
    BranchComponent,
    CoverDescription,
    Crossing,
    PointAbove,
    RamSheet,
    check_references,
)

__all__ = ["parse_cover_json", "load_cover_path"]

_BASE_KEYS = {"genus_C", "KX_sq", "euler_X", "KX_dot_F", "components", "crossings", "pair_intersections"}
_BASE_REQUIRED = {"genus_C", "KX_sq", "euler_X", "KX_dot_F", "components", "crossings"}
_COVER_KEYS = {"degree", "ramification", "points_above"}


def _reject_float(text: str) -> Any:
    raise InputFormatError(
        f"floating point literal {text!r} is not allowed; all numeric fields are exact integers"
    )


def _reject_constant(text: str) -> Any:
    raise InputFormatError(f"non-finite literal {text!r} is not allowed")


def _no_duplicate_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputFormatError(f"duplicate object key {key!r}")
            seen.add(key)
    return obj


def _as_int(value: Any, path: str, suffix: str = "") -> int:
    # json.loads makes no int subclass but bool, which this refuses.
    if type(value) is int:
        return value
    raise InputFormatError(f"{path}{suffix}: expected an integer (got {value!r})")


def _as_str(value: Any, path: str, suffix: str = "") -> str:
    if not isinstance(value, str):
        raise InputFormatError(f"{path}{suffix}: expected a string (got {value!r})")
    return value


def _as_obj(
    value: Any, path: str, allowed: AbstractSet, required: "AbstractSet | None" = None,
    suffix: str = "",
) -> dict:
    if type(value) is dict and value.keys() == allowed:
        return value
    if not isinstance(value, dict):
        raise InputFormatError(f"{path}{suffix}: expected an object (got {type(value).__name__})")
    unknown = set(value) - allowed
    if unknown:
        raise InputFormatError(f"{path}{suffix}: unknown keys {sorted(unknown)}")
    missing = (required if required is not None else allowed) - set(value)
    if missing:
        raise InputFormatError(f"{path}{suffix}: missing keys {sorted(missing)}")
    return value


def _as_list(value: Any, path: str, suffix: str = "") -> list:
    if not isinstance(value, list):
        raise InputFormatError(f"{path}{suffix}: expected a list (got {type(value).__name__})")
    return value


def _as_pair(value: Any, path: str) -> list:
    """The two-member list in the ``pair`` field of the item at ``path``."""
    pair = _as_list(value, path, ".pair")
    if len(pair) != 2:
        raise InputFormatError(f"{path}.pair: expected exactly two component ids")
    return pair


def _pair_ids(pair: list, path: str) -> tuple[str, str]:
    return (_as_str(pair[0], path, ".pair[0]"), _as_str(pair[1], path, ".pair[1]"))


def _as_id_pair(value: Any, path: str, suffix: str) -> tuple[str, str]:
    """A ``pair`` field: its shape, then its members."""
    return _pair_ids(_as_pair(value, path), path)


# Field suffixes of the two generator rows of a lattice and of their coordinates.
_ROWS = (".local[0]", ".local[1]")
_COORDS = ((".local[0][0]", ".local[0][1]"), (".local[1][0]", ".local[1][1]"))


def _parse_local(value: Any, path: str, suffix: str):
    """The local data of the point at ``path``, from its ``local`` field."""
    if isinstance(value, list):
        if len(value) != 2:
            raise InputFormatError(f"{path}{suffix}: lattice form needs exactly two generator rows")
        gens = []
        for r, row in enumerate(value):
            row = _as_list(row, path, _ROWS[r])
            if len(row) != 2:
                raise InputFormatError(f"{path}{_ROWS[r]}: generator must have two coordinates")
            x, y = _COORDS[r]
            gens.append((_as_int(row[0], path, x), _as_int(row[1], path, y)))
        return _build(LatticeSubgroup, gens, path, suffix)
    if isinstance(value, dict):
        return _record(LocalCoverType, value, path, _LOCAL_TYPE, suffix)
    raise InputFormatError(
        f"{path}{suffix}: local data must be a 2x2 generator list or an n/q/m1/m2 object"
    )


def _fields(prefix: str = "", **converters: Callable) -> dict[str, tuple[str, Callable]]:
    """A record's field table: each key, in check order, to its path suffix and converter.

    A converter takes the raw value, the record's path and the field's suffix.
    """
    return {key: (f"{prefix}.{key}", convert) for key, convert in converters.items()}


# The record formats.  Table order is the order in which fields are checked
# and, where the record is a model type, its constructor's positional order.
_COMPONENT = _fields(id=_as_str, genus=_as_int, self_int=_as_int, KX_dot=_as_int, fiber_deg=_as_int)
_CROSSING = _fields(index=_as_int, pair=_as_id_pair)
_PAIR_DECLARATION = _fields(pair=_as_id_pair, count=_as_int)
_SHEET = _fields(e=_as_int, f=_as_int)
_POINT = _fields(j=_as_int, jp=_as_int, local=_parse_local)
_LOCAL_TYPE = _fields(".local", n=_as_int, q=_as_int, m1=_as_int, m2=_as_int)


def _build(make: Callable, args: list, path: str, suffix: str = ""):
    """``make(*args)``, with the path of the record named in any error it raises."""
    try:
        return make(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}{suffix}: {exc}") from None


def _record(make: Callable, value: Any, path: str, table: dict, suffix: str = ""):
    """``make`` called on the fields of the object at ``path``, converted in table order."""
    obj = _as_obj(value, path, table.keys(), suffix=suffix)
    args = [convert(obj[key], path, sfx) for key, (sfx, convert) in table.items()]
    return _build(make, args, path, suffix)


def _records(make: Callable, value: Any, path: str, table: dict) -> tuple:
    """The records of the list at ``path``, each built by :func:`_record`."""
    return tuple(
        [_record(make, raw, f"{path}[{k}]", table) for k, raw in enumerate(_as_list(value, path))]
    )


def _crossing(value: Any, path: str) -> Crossing:
    # Not table-driven: the pair's shape is checked before the index and its
    # members after it, so a crossing's faults are reported in that order.
    obj = _as_obj(value, path, _CROSSING.keys())
    pair = _as_pair(obj["pair"], path)
    return _build(Crossing, [_as_int(obj["index"], path, ".index"), _pair_ids(pair, path)], path)


def _parse_base(obj: Any) -> BaseGeometry:
    obj = _as_obj(obj, "base", _BASE_KEYS, _BASE_REQUIRED)
    components = _records(BranchComponent, obj["components"], "base.components", _COMPONENT)
    crossings = [
        _crossing(raw, f"base.crossings[{k}]")
        for k, raw in enumerate(_as_list(obj["crossings"], "base.crossings"))
    ]
    pair_counts = _records(
        lambda pair, count: (pair, count),
        obj.get("pair_intersections", []),
        "base.pair_intersections",
        _PAIR_DECLARATION,
    )
    return BaseGeometry(
        genus_C=_as_int(obj["genus_C"], "base.genus_C"),
        KX_sq=_as_int(obj["KX_sq"], "base.KX_sq"),
        euler_X=_as_int(obj["euler_X"], "base.euler_X"),
        KX_dot_F=_as_int(obj["KX_dot_F"], "base.KX_dot_F"),
        components=components,
        crossings=crossings,
        pair_counts=pair_counts,
    )


def _parse_cover(obj: Any) -> tuple[CoverDescription, dict[int, tuple[PointAbove, ...]]]:
    """The cover, and the points over each crossing in document order."""
    obj = _as_obj(obj, "cover", _COVER_KEYS)
    ram_obj = obj["ramification"]
    if not isinstance(ram_obj, dict):
        raise InputFormatError("cover.ramification: expected an object keyed by component id")
    ram = [
        (cid, _records(RamSheet, ram_obj[cid], f"cover.ramification[{cid!r}]", _SHEET))
        for cid in sorted(ram_obj)
    ]

    pts = []
    pts_obj = obj["points_above"]
    if not isinstance(pts_obj, dict):
        raise InputFormatError("cover.points_above: expected an object keyed by crossing index")
    for key in pts_obj:
        try:
            idx = int(key, 10)
        except ValueError:
            raise InputFormatError(
                f"cover.points_above: key {key!r} is not a decimal crossing index"
            ) from None
        if str(idx) != key:
            raise InputFormatError(
                f"cover.points_above: key {key!r} is not in canonical decimal form"
            )
        path = f"cover.points_above[{key!r}]"
        pts.append((idx, _records(PointAbove, pts_obj[key], path, _POINT)))

    cover = CoverDescription(
        degree=_as_int(obj["degree"], "cover.degree"),
        ramification=ram,
        points_above=pts,
    )
    return cover, dict(pts)


def parse_cover_json(text: str) -> tuple[BaseGeometry, CoverDescription]:
    """Parse a cover document from a JSON string.

    Raises :class:`InputFormatError` on malformed documents (including any
    floating point literal) and :class:`InvalidInputError` when values
    violate the model's constructor preconditions or references dangle.
    """
    try:
        doc = json.loads(
            text,
            parse_float=_reject_float,
            parse_constant=_reject_constant,
            object_pairs_hook=_no_duplicate_keys,
        )
    except InputFormatError:
        raise
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from None
    except ValueError:
        # int() refuses digit strings past the interpreter's length limit
        raise InputFormatError("integer literal has too many digits") from None
    except RecursionError:
        raise InputFormatError("not valid JSON: nesting too deep") from None
    doc = _as_obj(doc, "document", {"base", "cover"})
    base = _parse_base(doc["base"])
    cover, points = _parse_cover(doc["cover"])
    check_references(
        base, cover, lambda idx, pt: f"cover.points_above[{str(idx)!r}][{points[idx].index(pt)}]"
    )
    return base, cover


def load_cover_path(path: str) -> tuple[BaseGeometry, CoverDescription]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    return parse_cover_json(text)
