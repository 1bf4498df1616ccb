"""Declarative data model for a fibred base surface and a branched cover of it.

The base datum is a smooth projective surface ``X`` fibred over a curve
``C``, together with a simple normal crossings divisor ``D`` whose smooth
components ``D_i`` meet in transversal crossings.  A cover of the
complement is described purely numerically: its degree, the ramification
sheets over each ``D_i``, and the classified local picture over each
crossing.  Nothing here touches equations; the model is bookkeeping, and
:func:`validate` checks that the bookkeeping is arithmetically coherent.
Its findings are those of the one walk of :func:`ramcov.invariants.examine`,
which also sums the invariants: a run walks the points once.  A reference
that does not resolve raises, for every view, the error of
:func:`check_references`, the one place that names such faults.

The order of the model's lists carries no meaning, so each constructor
puts its lists in canonical order: components by id, crossings by index,
declared pair counts by their sorted pair and then as given, ramification
by component id, points_above by crossing index, and the points over one
crossing by ``(j, jp, repr(local))``.  Models built from permuted lists are
equal, and every error that names the first offending item names the first
in that order.  A point list that several crossings share as one tuple, as
the loader gives equal lists, is sorted once per construction and stays one
tuple: the memo keys on the list's identity and lives for the constructor
call.  After the sort each constructor indexes each list in one
dict, by id or index: its size is the duplicate check, and the reference
checks and every lookup read it.  The base also derives its Euler data
there, once, from one count of its crossings' ids that also judges their
references; :func:`derived_euler_data` and every reader read that value.

Structural problems (dangling references, malformed values) raise
:class:`~ramcov.errors.InvalidInputError`; semantic incoherence on
well-formed data is *reported* as a sorted list of violations, each tagged
with one of the codes V1 to V5:

  V1  per-component degree sum: sum of e*f over sheets equals the degree
  V2  per-crossing local degree sum: sum of d_y over points equals the degree
  V3  ramification compatibility of each point with its assigned sheets
  V4  (strict mode only) per-sheet incidence: the local degrees m2 (resp.
      m1) of the points on a sheet sum to that sheet's f; one finding per
      crossing and component names the first sheet that is off and counts them
  V5  range/gcd invariants of every local type
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Union

from .errors import InvalidInputError, check_int
from .local_cover import LatticeSubgroup, LocalCoverType, local_type
from .value import Value

__all__ = [
    "BranchComponent",
    "Crossing",
    "BaseGeometry",
    "RamSheet",
    "PointAbove",
    "CoverDescription",
    "Violation",
    "EulerData",
    "validate",
    "derived_euler_data",
    "check_references",
]


def _index(items: tuple, key, what: str) -> dict:
    """``items`` by ``key``; a repeated key raises, naming every repeated one, sorted."""
    index = {key(item): item for item in items}
    if len(index) != len(items):
        repeats = sorted(k for k, count in Counter(map(key, items)).items() if count > 1)
        raise InvalidInputError(f"duplicate {what}: {repeats}")
    return index


def _pair_key(item) -> tuple:
    return (tuple(sorted(item[0])), item)


def _point_key(p: "PointAbove") -> tuple:
    return (p.j, p.jp, repr(p.local))


class BranchComponent(Value):
    """Numerical data of one smooth component of the branch divisor.

    Its ``id`` is a non-empty string for which ``str.isprintable`` holds.
    That refuses a lone surrogate, which a JSON document can spell as
    ``"\\ud800"`` and no report could write, and every line break, tab,
    control or format character and every separator but the space, with
    which an id could write lines of its own into the text report.  Every
    other id a report writes must name a component, so this one check
    covers them all.  ``str.isprintable`` follows the running interpreter's
    Unicode version: an id holding a character assigned after Unicode 13,
    such as U+1FAE0, loads under CPython 3.11 and later but not under 3.10.
    """

    __slots__ = ("id", "genus", "self_int", "KX_dot", "fiber_deg")

    def __init__(self, id: str, genus: int, self_int: int, KX_dot: int, fiber_deg: int) -> None:
        if not isinstance(id, str) or not id:
            raise InvalidInputError(f"component id must be a non-empty string (got {id!r})")
        if not id.isprintable():
            raise InvalidInputError(f"component id must be printable text (got {id!r})")
        check_int(genus, f"component {id!r}: genus", minimum=0)
        check_int(self_int, f"component {id!r}: self_int")
        check_int(KX_dot, f"component {id!r}: KX_dot")
        check_int(fiber_deg, f"component {id!r}: fiber_deg", minimum=0)
        self._set_fields(id, genus, self_int, KX_dot, fiber_deg)


class Crossing(Value):
    """A transversal intersection point of two distinct components."""

    __slots__ = ("index", "pair")

    def __init__(self, index: int, pair: tuple[str, str]) -> None:
        check_int(index, "crossing index", minimum=0)
        if (
            not isinstance(pair, tuple)
            or len(pair) != 2
            or not isinstance(pair[0], str)
            or not isinstance(pair[1], str)
        ):
            raise InvalidInputError(f"crossing {index}: pair must be two component ids")
        if pair[0] == pair[1]:
            raise InvalidInputError(
                f"crossing {index}: components must be distinct "
                f"(transversal self-intersections are not modelled)"
            )
        self._set_fields(index, pair)


class BaseGeometry(Value):
    """The fibred base surface with its branch configuration.

    ``KX_dot_F`` is the intersection of a canonical divisor with the fibre
    class of the fibration ``h: X -> C``; per-component fibre degrees live
    on the components themselves.  ``pair_counts`` optionally declares the
    number of crossings expected on an unordered pair of components and is
    cross-checked at construction time.  The constructor also derives the
    base's :class:`EulerData`, after every check, and keeps it for
    :func:`derived_euler_data`; a copy or a pickle is built by the
    constructor, so it derives its own.
    """

    __slots__ = (
        "genus_C", "KX_sq", "euler_X", "KX_dot_F", "components", "crossings", "pair_counts",
        "_components", "_crossings", "_euler",
    )

    def __init__(
        self,
        genus_C: int,
        KX_sq: int,
        euler_X: int,
        KX_dot_F: int,
        components: tuple[BranchComponent, ...],
        crossings: tuple[Crossing, ...],
        pair_counts: tuple[tuple[tuple[str, str], int], ...] = (),
    ) -> None:
        check_int(genus_C, "genus_C", minimum=0)
        check_int(KX_sq, "KX_sq")
        check_int(euler_X, "euler_X")
        check_int(KX_dot_F, "KX_dot_F")
        for pair, count in pair_counts:
            if not (
                isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(c, str) for c in pair)
            ):
                raise InvalidInputError(f"declared pair {pair!r} must be two component ids")
            check_int(count, f"declared count for pair {pair}")
        by_id, by_index = attrgetter("id"), attrgetter("index")
        components = tuple(sorted(components, key=by_id))
        crossings = tuple(sorted(crossings, key=by_index))
        pair_counts = tuple(sorted(pair_counts, key=_pair_key))
        ids = _index(components, by_id, "component ids")
        object.__setattr__(self, "_components", ids)
        object.__setattr__(self, "_crossings", _index(crossings, by_index, "crossing indices"))
        # One count of the crossings' ids: its keys judge the references, and
        # its values give each component's crossings for the Euler data.
        on = Counter(chain.from_iterable(map(attrgetter("pair"), crossings)))
        if not on.keys() <= ids.keys():
            x, cid = next((x, cid) for x in crossings for cid in x.pair if cid not in ids)
            raise InvalidInputError(f"crossing {x.index} references unknown component {cid!r}")
        # Declared pairwise intersection numbers, when present, must agree
        # with the actual crossing count on that pair (SNC transversality
        # makes the two notions coincide).
        actual = Counter(tuple(sorted(x.pair)) for x in crossings) if pair_counts else {}
        for pair, count in pair_counts:
            key = tuple(sorted(pair))
            if key[0] not in ids or key[1] not in ids:
                raise InvalidInputError(f"declared pair {pair} references unknown components")
            got = actual[key]
            if got != count:
                raise InvalidInputError(
                    f"declared intersection count for pair {key} is {count} "
                    f"but the crossing list has {got}"
                )
        opens = tuple((c.id, 2 - 2 * c.genus - on[c.id]) for c in components)
        n_cross = len(crossings)
        e_c_U = euler_X - (sum(v for _, v in opens) + n_cross)
        object.__setattr__(self, "_euler", EulerData(e_c_U, opens, n_cross))
        self._set_fields(genus_C, KX_sq, euler_X, KX_dot_F, components, crossings, pair_counts)

    def component(self, cid: str) -> BranchComponent:
        try:
            return self._components[cid]
        except KeyError:
            raise InvalidInputError(f"unknown component {cid!r}") from None

    def crossings_on(self, cid: str) -> int:
        """The number of crossings on ``cid``, counted in one pass over the crossings."""
        return sum(cid in x.pair for x in self.crossings)


class RamSheet(Value):
    """One irreducible piece of the preimage of a branch component.

    ``e`` is the ramification index along the piece, ``f`` its degree over
    the downstairs component.
    """

    __slots__ = ("e", "f")

    def __init__(self, e: int, f: int) -> None:
        check_int(e, "sheet e", minimum=1)
        check_int(f, "sheet f", minimum=1)
        self._set_fields(e, f)


class PointAbove(Value):
    """One point of the cover above a crossing.

    ``j`` and ``jp`` index the sheets of the first and second component of
    the crossing's pair.  ``local`` is the local classification, either as
    a lattice subgroup (first coordinate = winding around the first
    component's branch) or directly as a :class:`LocalCoverType`.  The point
    keeps no classification: a run's one walk asks once per distinct
    ``local`` value, whether or not equal values are one object.
    """

    __slots__ = ("j", "jp", "local")

    def __init__(self, j: int, jp: int, local: Union[LatticeSubgroup, LocalCoverType]) -> None:
        check_int(j, "point sheet index j", minimum=0)
        check_int(jp, "point sheet index jp", minimum=0)
        if isinstance(local, LocalCoverType):
            # Types only: a value out of range is the walk's V5 finding.
            for name in LocalCoverType.__match_args__:
                check_int(getattr(local, name), f"point local type {name}")
        elif not isinstance(local, LatticeSubgroup):
            raise InvalidInputError(
                f"point local data must be a lattice subgroup or a local type (got {local!r})"
            )
        self._set_fields(j, jp, local)

    def local_cover_type(self) -> LocalCoverType:
        """The local type: ``local`` itself, or its lattice classified anew."""
        if isinstance(self.local, LatticeSubgroup):
            return local_type(self.local)
        return self.local


class CoverDescription(Value):
    """Numerical description of a branched cover of the base.

    ``ramification`` maps component ids to their sheet lists and
    ``points_above`` maps crossing indices to the points over that
    crossing; both are stored as tuples of pairs to stay hashable, in
    canonical order, and looked up through the one dict the constructor
    builds from each.  Absent entries mean "unspecified" and are flagged by
    the validator rather than silently defaulted.
    """

    __slots__ = ("degree", "ramification", "points_above", "_sheets", "_points")

    def __init__(
        self,
        degree: int,
        ramification: tuple[tuple[str, tuple[RamSheet, ...]], ...],
        points_above: tuple[tuple[int, tuple[PointAbove, ...]], ...],
    ) -> None:
        check_int(degree, "cover degree", minimum=1)
        for cid, _ in ramification:
            if not isinstance(cid, str):
                raise InvalidInputError(f"ramification key must be a component id (got {cid!r})")
        ramification = tuple(sorted(ramification, key=itemgetter(0)))
        object.__setattr__(self, "_sheets", dict(ramification))
        if len(self._sheets) != len(ramification):
            raise InvalidInputError("duplicate component id in ramification table")
        for idx, _ in points_above:
            check_int(idx, "points_above key")
        # id(points) -> those points in canonical order: a list shared by
        # several crossings is sorted once and stays one tuple.  A list of
        # fewer than two points is in order as it is.
        ordered: dict[int, tuple] = {}

        def canonical(points):
            got = ordered.get(id(points))
            if got is None:
                got = ordered[id(points)] = tuple(sorted(points, key=_point_key))
            return got

        points_above = tuple(
            (idx, canonical(points) if len(points) > 1 else points)
            for idx, points in sorted(points_above, key=itemgetter(0))
        )
        object.__setattr__(self, "_points", dict(points_above))
        if len(self._points) != len(points_above):
            raise InvalidInputError("duplicate crossing index in points_above table")
        self._set_fields(degree, ramification, points_above)

    def sheets_for(self, cid: str) -> tuple[RamSheet, ...]:
        return self._sheets.get(cid, ())

    def points_for(self, index: int) -> tuple[PointAbove, ...]:
        return self._points.get(index, ())


class Violation(Value):
    """One validation finding: its ``code``, ``where`` it is (a tuple of names) and ``message``.

    :func:`~ramcov.invariants.examine` sorts findings by these fields.
    """

    __slots__ = ("code", "where", "message")


class EulerData(Value):
    """Euler characteristics derived from the base configuration alone.

    ``open_components`` holds, per component id, the compactly supported
    Euler characteristic of the component minus its crossing points; the
    crossing points themselves are counted by ``n_crossings``; ``e_c_U`` is
    the Euler characteristic of the complement of the whole divisor.
    """

    __slots__ = ("e_c_U", "open_components", "n_crossings")

    def open_component(self, cid: str) -> int:
        for key, value in self.open_components:
            if key == cid:
                return value
        raise InvalidInputError(f"unknown component {cid!r}")


def check_references(base: BaseGeometry, cover: CoverDescription, point_path=None) -> None:
    """Raise InvalidInputError unless every cross-reference resolves.

    The one judge of reference faults, for :func:`validate` and every view
    of :func:`ramcov.invariants.examine`'s walk, which calls it when it
    meets one: ramification keys are component ids, points_above keys are
    crossing indices, and each point's sheet indices are in range for the
    two components of its crossing.  An out-of-range index names its point
    ``crossing I, point K`` in canonical order, or by ``point_path(I,
    point)`` and the field when that is given: the loader gives the point's
    path in its document.  The ramification keys are checked first, then
    each crossing's key and its points in index order, so a fault is named
    at the first failing point of the lowest failing crossing; every check
    reads the base's indexes and the cover's sheet table.
    """
    for cid, _ in cover.ramification:
        if cid not in base._components:
            raise InvalidInputError(f"ramification references unknown component {cid!r}")
    sheets, crossings = cover._sheets.get, base._crossings.get
    for idx, points in cover.points_above:
        crossing = crossings(idx)
        if crossing is None:
            raise InvalidInputError(f"points_above references unknown crossing {idx}")
        first, second = crossing.pair
        n_first, n_second = len(sheets(first, ())), len(sheets(second, ()))
        for k, pt in enumerate(points):
            if pt.j < n_first and pt.jp < n_second:
                continue
            field, value, cid, count = (
                ("j", pt.j, first, n_first) if pt.j >= n_first else ("jp", pt.jp, second, n_second)
            )
            at = (
                f"{point_path(idx, pt)}.{field}: sheet index {value}" if point_path
                else f"crossing {idx}, point {k}: sheet index {field}={value}"
            )
            raise InvalidInputError(f"{at} out of range for component {cid!r} ({count} sheets)")


def validate(
    base: BaseGeometry, cover: CoverDescription, *, strict: bool = False
) -> list[Violation]:
    """Check the degree and incidence identities; return sorted violations.

    The findings are those of :func:`ramcov.invariants.examine`'s walk, and
    a reference that does not resolve raises :func:`check_references`'
    error, as it does there.  The verdict does not depend on input list
    order: findings are sorted by code, location, and message.  ``strict``
    additionally enables the per-sheet incidence check V4, which requires
    the points above every crossing to account exactly for the local
    degrees of each sheet.
    """
    from .invariants import examine  # ramcov.invariants imports this module

    return examine(base, cover, strict=strict)[0]


def derived_euler_data(base: BaseGeometry) -> EulerData:
    """Euler characteristics of the strata cut out by the branch divisor.

    Each component punctured at its crossings has compactly supported Euler
    characteristic ``2 - 2*genus - #crossings on it``; the divisor total
    adds the crossing points back once, and the complement gets whatever
    remains of ``e_c(X)``.  The base derives them once, as it is built, and
    this returns that one value.
    """
    return base._euler
