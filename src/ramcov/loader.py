"""Strict JSON input for cover documents: this module only parses.

A document is one JSON object with top-level keys ``base`` and ``cover``
mirroring the model types field for field.  Parsing is deliberately fussy:
only exact integers are accepted (a float, ``NaN`` or ``Infinity`` decodes
as a Python float, which the field's check refuses by its path), object
keys must be known, duplicate keys are rejected, and every cross-reference
must resolve.  List order is decided by the model, whose
constructors sort their lists (see :mod:`ramcov.model`), so documents equal
up to list order load to equal models and produce byte-identical reports.
The loader reads the ramification table in component id order only so that
the first bad sheet list in that order is the one an error names.  Lattice
generators are kept as given, not reduced: ``[[2,0],[1,1]]`` and
``[[2,0],[3,1]]`` generate the same subgroup but load to different models.
The document is written back, in canonical order, by :mod:`ramcov.report`.

Duplicate keys are found by counting members, not by a Python call per
object (see :func:`_decode`).  Every message about the JSON text, and which
of them wins, comes from the decode with :func:`_no_duplicate_keys` on
every object, the one judge of the text, so a duplicate key before a syntax
error is still named as the duplicate.

Local data at a point is given either as a lattice subgroup
``[[g1x, g1y], [g2x, g2y]]`` (first coordinate = winding around the first
component of the crossing's pair) or directly as an object
``{"n":., "q":., "m1":., "m2":.}`` when the lattice is not known.

The model types are the statement of the document's records.  The field
tables ``_COMPONENT`` ... ``_LOCAL_TYPE`` of the six nested record formats
are read off them: each names a record's keys, in the order its fields are
checked, with the converter of each, and for a model record that is its
``__match_args__``, the order of its fields; a field that is not an exact
int names its converter.  Only the pair declaration, which no model type
holds, is written out, and the keys of ``base`` and ``cover`` are those of
:class:`BaseGeometry` and :class:`CoverDescription` but for one rename, the
optional ``pair_intersections`` for the model's ``pair_counts``.  Parsing
and the test holding ``docs/input_schema.json`` to the code read them.

Every error names the path of the offending value, such as
``cover.points_above['3'][0].local[1][0]``; a range error that a model
constructor raises gets the path of its record.  Each record has one path,
formatted once for each item of a list that is checked; a point's local
data is a record of its own, at the point's path joined to ``.local``.  A
document has a few fields per crossing, so a field's path is joined only
when an error is raised: a field's check takes the path of its record and
the suffix naming the field, and the common cases (an exact ``int``, an
object with exactly the allowed keys, no duplicate key) are decided before
any message is built.

Byte-equal lists load to one tuple.  In an abelian cover the local lattice
at a crossing of ``D_i`` and ``D_j`` is the kernel of ``(s, t) -> s g_i +
t g_j``, so every point over that crossing, and over every crossing of two
components with the same sheets, carries the same local data, and a
document repeats one sheet list and one point list many times.  Each parse
keeps one memo of sheet lists and one of point lists, keyed by
``marshal.dumps(value, 2)`` of each decoded list: a list met before gets the
tuple built for it, with no record checked and no path formatted (see
:func:`_shared_records`).  The key is not equality, because ``==`` and
``hash`` take ``true``, ``1.0`` and ``1`` for one value, which only the last
of them passes.  ``marshal.loads`` gives back the list, type for type, so
equal bytes mean equal verdicts.  Version 2 writes no back-references and
no interned flag, so the bytes depend on the typed value alone, not on
which objects the decoder shared.  It is ``marshal`` and not ``repr``,
exact too, because it costs about a third as much, and on a document that
repeats few lists the key is pure cost.  It cannot meet the digit limit,
since the decoder refused any longer integer literal, nor marshal's nesting
limit of 2 000, about twice the depth the decoder accepts; a test runs
every depth it accepts.  Only a list that passed every check is stored.
Nothing else is shared, which changes no number and no byte: equal records
in two lists are two objects, and equal lists whose bytes differ (keys in
another order) are two equal tuples, whose crossing shape the walk computes
twice.  The memos live for the one call, so two parses share no object.
The walk and the report writer key their per-crossing and per-point-list
work on the tuples' identities.  Lattices are kept with their generators as
given, so the two forms above still load to two objects.
"""

from __future__ import annotations

import gc
import json
import marshal
import re
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

# The keys of base and cover are the model's fields, but for one rename: the
# model's pair_counts is the document's optional pair_intersections.
_BASE_REQUIRED = set(BaseGeometry.__match_args__) - {"pair_counts"}
_BASE_KEYS = _BASE_REQUIRED | {"pair_intersections"}
_COVER_KEYS = set(CoverDescription.__match_args__)


def _no_duplicate_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputFormatError(f"duplicate object key {key!r}")
            seen.add(key)
    return obj


# A JSON string, escapes included; in a text that decodes, every '"' outside
# a string opens one.
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')


def _decode(text: str) -> Any:
    """The JSON value of ``text``, its objects' keys checked for duplicates.

    The fast decode builds each object as a dict and only adds up their
    sizes.  Outside strings each colon of valid JSON separates one member,
    so the colons of ``text`` number at least the members, which number at
    least the keys kept; the two counts are equal when no key repeats and
    no string holds a colon, and then the tree is the one the hooked decode
    would give.  When they differ, the colons left once every string is cut
    out of the text, one per member, are counted against the keys kept.
    Otherwise, or on any error of the fast decode, the text is decoded
    again with :func:`_no_duplicate_keys` on every object, and that decode
    alone judges it: it returns the tree or raises every error the caller
    names.
    """
    total = 0

    def count(obj: dict) -> dict:
        nonlocal total
        total += len(obj)
        return obj

    try:
        doc = json.loads(text, object_hook=count)
    except (ValueError, RecursionError):
        pass
    else:
        if text.count(":") == total or _STRING.sub("", text).count(":") == total:
            return doc
    return json.loads(text, object_pairs_hook=_no_duplicate_keys)


def _as_int(value: Any, path: str, suffix: str = "") -> int:
    # json.loads makes no int subclass but bool, which this refuses, as it
    # refuses the floats it makes of 2.0, 1e400, NaN and -Infinity.
    if type(value) is int:
        return value
    raise InputFormatError(f"{path}{suffix}: expected an integer (got {value!r})")


def _as_str(value: Any, path: str, suffix: str = "") -> str:
    if not isinstance(value, str):
        raise InputFormatError(f"{path}{suffix}: expected a string (got {value!r})")
    return value


def _as_obj(
    value: Any, path: str, allowed: AbstractSet, required: "AbstractSet | None" = None
) -> dict:
    if type(value) is dict and value.keys() == allowed:
        return value
    if not isinstance(value, dict):
        raise InputFormatError(f"{path}: expected an object (got {type(value).__name__})")
    unknown = set(value) - allowed
    if unknown:
        raise InputFormatError(f"{path}: unknown keys {sorted(unknown)}")
    missing = (required if required is not None else allowed) - set(value)
    if missing:
        raise InputFormatError(f"{path}: missing keys {sorted(missing)}")
    return value


def _as_list(value: Any, path: str, suffix: str = "") -> list:
    if not isinstance(value, list):
        raise InputFormatError(f"{path}{suffix}: expected a list (got {type(value).__name__})")
    return value


def _as_id_pair(value: Any, path: str, suffix: str) -> tuple[str, str]:
    """A ``pair`` field: a list of exactly two members, each a string."""
    pair = _as_list(value, path, suffix)
    if len(pair) != 2:
        raise InputFormatError(f"{path}{suffix}: expected exactly two component ids")
    return (_as_str(pair[0], path, f"{suffix}[0]"), _as_str(pair[1], path, f"{suffix}[1]"))


# Suffixes of the two generator rows of a lattice and of their coordinates.
_ROWS = ("[0]", "[1]")
_COORDS = (("[0][0]", "[0][1]"), ("[1][0]", "[1][1]"))


def _parse_local(value: Any, path: str, suffix: str):
    """The local data of the point at ``path``, from its ``local`` field."""
    path += suffix
    if isinstance(value, list):
        if len(value) != 2:
            raise InputFormatError(f"{path}: lattice form needs exactly two generator rows")
        gens = []
        for r, row in enumerate(value):
            row = _as_list(row, path, _ROWS[r])
            if len(row) != 2:
                raise InputFormatError(f"{path}{_ROWS[r]}: generator must have two coordinates")
            x, y = _COORDS[r]
            gens.append((_as_int(row[0], path, x), _as_int(row[1], path, y)))
        return _build(LatticeSubgroup, gens, path)
    if isinstance(value, dict):
        return _record(LocalCoverType, value, path, _LOCAL_TYPE)
    raise InputFormatError(
        f"{path}: local data must be a 2x2 generator list or an n/q/m1/m2 object"
    )


def _table(model: type, **converters: Callable) -> dict[str, tuple[str, Callable]]:
    """The table of ``model``'s record: each field, in constructor order, to suffix and converter.

    A field not named in ``converters`` is an exact int.  A converter takes
    the raw value, the record's path and the field's suffix.
    """
    return {key: (f".{key}", converters.get(key, _as_int)) for key in model.__match_args__}


# The record formats.  A model record's table is in the order of its fields,
# which is the order in which they are checked.
_COMPONENT = _table(BranchComponent, id=_as_str)
_CROSSING = _table(Crossing, pair=_as_id_pair)
_PAIR_DECLARATION = {"pair": (".pair", _as_id_pair), "count": (".count", _as_int)}
_SHEET = _table(RamSheet)
_POINT = _table(PointAbove, local=_parse_local)
_LOCAL_TYPE = _table(LocalCoverType)


def _build(make: Callable, args: list, path: str):
    """``make(*args)``, with the path of the record named in any error it raises."""
    try:
        return make(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def _record(make: Callable, value: Any, path: str, table: dict):
    """``make`` called on the fields of the object at ``path``, converted in table order."""
    obj = _as_obj(value, path, table.keys())
    args = [convert(obj[key], path, sfx) for key, (sfx, convert) in table.items()]
    return _build(make, args, path)


def _records(make: Callable, value: Any, path: str, table: dict) -> tuple:
    """The records of the list at ``path``, each built by :func:`_record`."""
    return tuple(
        [_record(make, raw, f"{path}[{k}]", table) for k, raw in enumerate(_as_list(value, path))]
    )


def _shared_records(
    make: Callable, value: Any, prefix: str, key: str, table: dict, memo: dict
) -> tuple:
    """The records of the list at ``prefix[key]``, one tuple per distinct list in a parse.

    The ``memo`` holds the lists of ``make``'s records alone, so a point list
    that is byte for byte a sheet list read before it is still judged as
    points.  It keys a list by ``marshal.dumps(value, 2)``, which is a
    function of the decoded value, type for type, and of nothing else: lists
    equal but not byte for byte, their keys in another order, get two equal
    tuples, and equal records in two lists are two objects.  On a miss the
    list is checked by :func:`_records`, its path formatted only then; a list
    that fails a check raises before its key is stored.
    """
    coded = marshal.dumps(value, 2)
    records = memo.get(coded)
    if records is None:
        records = memo[coded] = _records(make, value, f"{prefix}[{key!r}]", table)
    return records


def _parse_base(obj: Any) -> BaseGeometry:
    obj = _as_obj(obj, "base", _BASE_KEYS, _BASE_REQUIRED)
    components = _records(BranchComponent, obj["components"], "base.components", _COMPONENT)
    crossings = []
    keys = _CROSSING.keys()
    for k, raw in enumerate(_as_list(obj["crossings"], "base.crossings")):
        # An exact record, the common case, is judged by Crossing alone, with
        # no per-field call and no path; a refusal, or any other record, is
        # judged again through _CROSSING for the message naming its field.
        # The list check keeps a string or an object from passing as its pair.
        if type(raw) is dict and raw.keys() == keys and type(pair := raw["pair"]) is list:
            try:
                crossings.append(Crossing(raw["index"], tuple(pair)))
                continue
            except InvalidInputError:
                pass
        crossings.append(_record(Crossing, raw, f"base.crossings[{k}]", _CROSSING))
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


def _parse_cover(obj: Any) -> tuple[CoverDescription, list[tuple[int, tuple[PointAbove, ...]]]]:
    """The cover, and each crossing index with its points in document order."""
    obj = _as_obj(obj, "cover", _COVER_KEYS)
    ram_obj = obj["ramification"]
    if not isinstance(ram_obj, dict):
        raise InputFormatError("cover.ramification: expected an object keyed by component id")
    # One memo per kind of record for the parse: byte-equal sheet lists load
    # to one tuple, and so do byte-equal point lists.
    sheet_lists: dict = {}
    point_lists: dict = {}
    ram = [
        (cid, _shared_records(
            RamSheet, ram_obj[cid], "cover.ramification", cid, _SHEET, sheet_lists
        ))
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
        pts.append((idx, _shared_records(
            PointAbove, pts_obj[key], "cover.points_above", key, _POINT, point_lists
        )))

    cover = CoverDescription(
        degree=_as_int(obj["degree"], "cover.degree"),
        ramification=ram,
        points_above=pts,
    )
    return cover, pts


def parse_cover_json(text: str) -> tuple[BaseGeometry, CoverDescription]:
    """Parse a cover document from a JSON string.

    Raises :class:`InputFormatError` on malformed documents (including a
    float, ``NaN`` or ``Infinity`` in any field, named by its path) and
    :class:`InvalidInputError` when values violate the model's constructor
    preconditions or references dangle.
    """
    try:
        doc = _decode(text)
    except InputFormatError:
        # The duplicate-key hook's error is a ValueError too; without this
        # clause the digit-limit clause below would take it.
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
    # A point's path is formatted only to name a fault, so only then are the
    # points looked up by crossing.
    check_references(
        base,
        cover,
        lambda idx, pt: f"cover.points_above[{str(idx)!r}][{dict(points)[idx].index(pt)}]",
    )
    return base, cover


def load_cover_path(path: str) -> tuple[BaseGeometry, CoverDescription]:
    """Read and parse the cover document at ``path``, as :func:`parse_cover_json` does.

    The cyclic garbage collector is paused for the parse and restored after
    it, whether the document loads or is refused; it is enabled again only
    if it was enabled on entry.  While the parse runs, the decoded tree and
    the model built from it are all live, so the collector's passes, which
    the many new containers trigger, find nothing to collect: at 10^5
    crossings they took about a third of the command's time.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_cover_json(text)
    finally:
        if enabled:
            gc.enable()
