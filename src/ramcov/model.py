"""Declarative data model for a fibred base surface and a branched cover of it.

The base datum is a smooth projective surface ``X`` fibred over a curve
``C``, together with a simple normal crossings divisor ``D`` whose smooth
components ``D_i`` meet in transversal crossings.  A cover of the
complement is described purely numerically: its degree, the ramification
sheets over each ``D_i``, and the classified local picture over each
crossing.  Nothing here touches equations; the model is bookkeeping, and
:func:`validate` checks that the bookkeeping is arithmetically coherent.

The order of the model's lists carries no meaning, so each constructor
puts its lists in canonical order: components by id, crossings by index,
declared pair counts by their sorted pair and then as given, ramification
by component id, points_above by crossing index, and the points over one
crossing by ``(j, jp, repr(local))``.  Models built from permuted lists are
equal, and every error that names the first offending item names the first
in that order.

Structural problems (dangling references, malformed values) raise
:class:`~ramcov.errors.InvalidInputError`; semantic incoherence on
well-formed data is *reported* as a sorted list of violations, each tagged
with one of the codes V1 to V5:

  V1  per-component degree sum: sum of e*f over sheets equals the degree
  V2  per-crossing local degree sum: sum of d_y over points equals the degree
  V3  ramification compatibility of each point with its assigned sheets
  V4  (strict mode only) per-sheet incidence: the local degrees m2 (resp.
      m1) of the points on a sheet sum to that sheet's f
  V5  range/gcd invariants of every local type
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Union

from .errors import InvalidInputError
from .local_cover import LatticeSubgroup, LocalCoverType, local_type

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


def _check_int(value, what: str, minimum: "int | None" = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{what} must be an integer (got {value!r})")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{what} must be >= {minimum} (got {value})")
    return value


def _canonical(obj, name: str, key) -> None:
    """Store the list field ``name`` of a frozen instance sorted by ``key``."""
    object.__setattr__(obj, name, tuple(sorted(getattr(obj, name), key=key)))


def _pair_key(item) -> tuple:
    return (tuple(sorted(item[0])), item)


def _point_key(p: "PointAbove") -> tuple:
    return (p.j, p.jp, repr(p.local))


@dataclass(frozen=True)
class BranchComponent:
    """Numerical data of one smooth component of the branch divisor."""

    id: str
    genus: int
    self_int: int
    KX_dot: int
    fiber_deg: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise InvalidInputError(f"component id must be a non-empty string (got {self.id!r})")
        _check_int(self.genus, f"component {self.id!r}: genus", minimum=0)
        _check_int(self.self_int, f"component {self.id!r}: self_int")
        _check_int(self.KX_dot, f"component {self.id!r}: KX_dot")
        _check_int(self.fiber_deg, f"component {self.id!r}: fiber_deg", minimum=0)


@dataclass(frozen=True)
class Crossing:
    """A transversal intersection point of two distinct components."""

    index: int
    pair: tuple[str, str]

    def __post_init__(self) -> None:
        _check_int(self.index, "crossing index", minimum=0)
        if (
            not isinstance(self.pair, tuple)
            or len(self.pair) != 2
            or not all(isinstance(c, str) for c in self.pair)
        ):
            raise InvalidInputError(f"crossing {self.index}: pair must be two component ids")
        if self.pair[0] == self.pair[1]:
            raise InvalidInputError(
                f"crossing {self.index}: components must be distinct "
                f"(transversal self-intersections are not modelled)"
            )


@dataclass(frozen=True)
class BaseGeometry:
    """The fibred base surface with its branch configuration.

    ``KX_dot_F`` is the intersection of a canonical divisor with the fibre
    class of the fibration ``h: X -> C``; per-component fibre degrees live
    on the components themselves.  ``pair_counts`` optionally declares the
    number of crossings expected on an unordered pair of components and is
    cross-checked at construction time.
    """

    genus_C: int
    KX_sq: int
    euler_X: int
    KX_dot_F: int
    components: tuple[BranchComponent, ...]
    crossings: tuple[Crossing, ...]
    pair_counts: tuple[tuple[tuple[str, str], int], ...] = field(default=())

    def __post_init__(self) -> None:
        _check_int(self.genus_C, "genus_C", minimum=0)
        _check_int(self.KX_sq, "KX_sq")
        _check_int(self.euler_X, "euler_X")
        _check_int(self.KX_dot_F, "KX_dot_F")
        for pair, count in self.pair_counts:
            if not (
                isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(c, str) for c in pair)
            ):
                raise InvalidInputError(f"declared pair {pair!r} must be two component ids")
            _check_int(count, f"declared count for pair {pair}")
        _canonical(self, "components", lambda c: c.id)
        _canonical(self, "crossings", lambda x: x.index)
        _canonical(self, "pair_counts", _pair_key)
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            dup = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise InvalidInputError(f"duplicate component ids: {dup}")
        indices = [x.index for x in self.crossings]
        if len(set(indices)) != len(indices):
            dup = sorted(i for i, count in Counter(indices).items() if count > 1)
            raise InvalidInputError(f"duplicate crossing indices: {dup}")
        known = set(ids)
        for x in self.crossings:
            for cid in x.pair:
                if cid not in known:
                    raise InvalidInputError(
                        f"crossing {x.index} references unknown component {cid!r}"
                    )
        # Declared pairwise intersection numbers, when present, must agree
        # with the actual crossing count on that pair (SNC transversality
        # makes the two notions coincide).
        actual = Counter(tuple(sorted(x.pair)) for x in self.crossings)
        for pair, count in self.pair_counts:
            key = tuple(sorted(pair))
            if key[0] not in known or key[1] not in known:
                raise InvalidInputError(f"declared pair {pair} references unknown components")
            got = actual[key]
            if got != count:
                raise InvalidInputError(
                    f"declared intersection count for pair {key} is {count} "
                    f"but the crossing list has {got}"
                )

    @cached_property
    def _component_index(self) -> dict[str, BranchComponent]:
        return {c.id: c for c in self.components}

    @cached_property
    def _crossing_counts(self) -> Counter:
        return Counter(cid for x in self.crossings for cid in x.pair)

    def component(self, cid: str) -> BranchComponent:
        try:
            return self._component_index[cid]
        except KeyError:
            raise InvalidInputError(f"unknown component {cid!r}") from None

    def crossings_on(self, cid: str) -> int:
        return self._crossing_counts[cid]


@dataclass(frozen=True)
class RamSheet:
    """One irreducible piece of the preimage of a branch component.

    ``e`` is the ramification index along the piece, ``f`` its degree over
    the downstairs component.
    """

    e: int
    f: int

    def __post_init__(self) -> None:
        _check_int(self.e, "sheet e", minimum=1)
        _check_int(self.f, "sheet f", minimum=1)


@dataclass(frozen=True)
class PointAbove:
    """One point of the cover above a crossing.

    ``j`` and ``jp`` index the sheets of the first and second component of
    the crossing's pair.  ``local`` is the local classification, either as
    a lattice subgroup (first coordinate = winding around the first
    component's branch) or directly as a :class:`LocalCoverType`.
    """

    j: int
    jp: int
    local: Union[LatticeSubgroup, LocalCoverType]

    def __post_init__(self) -> None:
        _check_int(self.j, "point sheet index j", minimum=0)
        _check_int(self.jp, "point sheet index jp", minimum=0)
        if not isinstance(self.local, (LatticeSubgroup, LocalCoverType)):
            raise InvalidInputError(
                f"point local data must be a lattice subgroup or a local type (got {self.local!r})"
            )

    @cached_property
    def _classified(self) -> LocalCoverType:
        if isinstance(self.local, LatticeSubgroup):
            return local_type(self.local)
        return self.local

    def local_cover_type(self) -> LocalCoverType:
        """The local type, classified on the first call and kept by this point.

        Validation and the invariant walk both ask; the point is classified
        once.  A point lives as long as the document it was read from.
        """
        return self._classified


@dataclass(frozen=True)
class CoverDescription:
    """Numerical description of a branched cover of the base.

    ``ramification`` maps component ids to their sheet lists and
    ``points_above`` maps crossing indices to the points over that
    crossing; both are stored as tuples of pairs to stay hashable, in
    canonical order, and looked up through dicts built from them on first
    use.  Absent entries mean "unspecified" and are flagged by the
    validator rather than silently defaulted.
    """

    degree: int
    ramification: tuple[tuple[str, tuple[RamSheet, ...]], ...]
    points_above: tuple[tuple[int, tuple[PointAbove, ...]], ...]

    def __post_init__(self) -> None:
        _check_int(self.degree, "cover degree", minimum=1)
        ram_ids = [cid for cid, _ in self.ramification]
        for cid in ram_ids:
            if not isinstance(cid, str):
                raise InvalidInputError(f"ramification key must be a component id (got {cid!r})")
        if len(set(ram_ids)) != len(ram_ids):
            raise InvalidInputError("duplicate component id in ramification table")
        pt_keys = [idx for idx, _ in self.points_above]
        for idx in pt_keys:
            _check_int(idx, "points_above key")
        if len(set(pt_keys)) != len(pt_keys):
            raise InvalidInputError("duplicate crossing index in points_above table")
        _canonical(self, "ramification", itemgetter(0))
        object.__setattr__(
            self,
            "points_above",
            tuple(
                (idx, tuple(sorted(points, key=_point_key)) if len(points) > 1 else points)
                for idx, points in sorted(self.points_above, key=itemgetter(0))
            ),
        )

    @cached_property
    def _sheet_index(self) -> dict[str, tuple[RamSheet, ...]]:
        return dict(self.ramification)

    @cached_property
    def _point_index(self) -> dict[int, tuple[PointAbove, ...]]:
        return dict(self.points_above)

    def sheets_for(self, cid: str) -> tuple[RamSheet, ...]:
        return self._sheet_index.get(cid, ())

    def points_for(self, index: int) -> tuple[PointAbove, ...]:
        return self._point_index.get(index, ())


@dataclass(frozen=True)
class Violation:
    """One validation finding: the identity violated and where."""

    code: str
    where: tuple[str, ...]
    message: str

    def sort_key(self) -> tuple:
        return (self.code, self.where, self.message)


@dataclass(frozen=True)
class EulerData:
    """Euler characteristics derived from the base configuration alone.

    ``open_components`` holds, per component id, the compactly supported
    Euler characteristic of the component minus its crossing points; the
    crossing points themselves are counted by ``n_crossings``; ``e_c_U`` is
    the Euler characteristic of the complement of the whole divisor.
    """

    e_c_U: int
    open_components: tuple[tuple[str, int], ...]
    n_crossings: int

    @cached_property
    def _open_index(self) -> dict[str, int]:
        return dict(self.open_components)

    def open_component(self, cid: str) -> int:
        try:
            return self._open_index[cid]
        except KeyError:
            raise InvalidInputError(f"unknown component {cid!r}") from None


def check_references(base: BaseGeometry, cover: CoverDescription) -> None:
    """Raise InvalidInputError unless every cross-reference resolves.

    Covers the structural preconditions of :func:`validate`: ramification
    keys are component ids, points_above keys are crossing indices, and
    each point's sheet indices are in range for the two components of its
    crossing.
    """
    known_ids = {c.id for c in base.components}
    for cid, _ in cover.ramification:
        if cid not in known_ids:
            raise InvalidInputError(f"ramification references unknown component {cid!r}")
    known_idx = {x.index: x for x in base.crossings}
    for idx, points in cover.points_above:
        if idx not in known_idx:
            raise InvalidInputError(f"points_above references unknown crossing {idx}")
        crossing = known_idx[idx]
        n_first = len(cover.sheets_for(crossing.pair[0]))
        n_second = len(cover.sheets_for(crossing.pair[1]))
        for k, pt in enumerate(points):
            if pt.j >= n_first:
                raise InvalidInputError(
                    f"crossing {idx}, point {k}: sheet index j={pt.j} out of range "
                    f"for component {crossing.pair[0]!r} ({n_first} sheets)"
                )
            if pt.jp >= n_second:
                raise InvalidInputError(
                    f"crossing {idx}, point {k}: sheet index jp={pt.jp} out of range "
                    f"for component {crossing.pair[1]!r} ({n_second} sheets)"
                )


def validate(
    base: BaseGeometry, cover: CoverDescription, *, strict: bool = False
) -> list[Violation]:
    """Check the degree and incidence identities; return sorted violations.

    The verdict does not depend on input list order: findings are sorted by
    code, location, and message.  ``strict`` additionally enables the
    per-sheet incidence check V4, which requires the points above every
    crossing to account exactly for the local degrees of each sheet.
    """
    check_references(base, cover)
    d = cover.degree
    out: list[Violation] = []

    for comp in base.components:
        total = sum(s.e * s.f for s in cover.sheets_for(comp.id))
        if total != d:
            out.append(Violation("V1", (comp.id,), (
                f"component {comp.id!r}: sum of e*f over sheets is {total}, expected degree {d}"
            )))

    for crossing in base.crossings:
        at = f"crossing {crossing.index}"
        points = cover.points_for(crossing.index)
        first, second = crossing.pair
        first_sheets, second_sheets = cover.sheets_for(first), cover.sheets_for(second)
        # One pass over the points: the local degree total (V2), each
        # point's ramification and range checks (V3, V5), and per sheet the
        # local degrees of the upstairs curve, m2 on the first component
        # and m1 on the second (V4).
        total = 0
        m2_on = [0] * len(first_sheets)
        m1_on = [0] * len(second_sheets)
        for k, pt in enumerate(points):
            lt = pt.local_cover_type()
            total += lt.d_y
            m2_on[pt.j] += lt.m2
            m1_on[pt.jp] += lt.m1
            wh = (at, f"point {k}")
            if lt.e1 != first_sheets[pt.j].e:
                out.append(Violation("V3", wh, (
                    f"{at}, point {k}: local e1={lt.e1} but "
                    f"sheet {pt.j} of {first!r} has e={first_sheets[pt.j].e}"
                )))
            if lt.e2 != second_sheets[pt.jp].e:
                out.append(Violation("V3", wh, (
                    f"{at}, point {k}: local e2={lt.e2} but "
                    f"sheet {pt.jp} of {second!r} has e={second_sheets[pt.jp].e}"
                )))
            for problem in lt.invariant_problems():
                out.append(Violation("V5", wh, f"{at}, point {k}: {problem}"))
        if total != d:
            out.append(Violation("V2", (at,), (
                f"{at}: sum of local degrees d_y is {total}, expected degree {d}"
            )))
        if strict:
            # Per-sheet incidence: over a crossing the points on one sheet
            # must exhaust its degree over the downstairs component.
            for cid, sheets, sums, j, m in (
                (first, first_sheets, m2_on, "j", "m2"),
                (second, second_sheets, m1_on, "jp", "m1"),
            ):
                for jj, sheet in enumerate(sheets):
                    if sums[jj] != sheet.f:
                        out.append(Violation("V4", (at, f"sheet {j}={jj}"), (
                            f"{at}: {m} over sheet {jj} of {cid!r} sums to {sums[jj]}, "
                            f"expected f={sheet.f}"
                        )))

    out.sort(key=Violation.sort_key)
    return out


def derived_euler_data(base: BaseGeometry) -> EulerData:
    """Euler characteristics of the strata cut out by the branch divisor.

    Each component punctured at its crossings has compactly supported Euler
    characteristic ``2 - 2*genus - #crossings on it``; the divisor total
    adds the crossing points back once, and the complement gets whatever
    remains of ``e_c(X)``.
    """
    opens = [
        (comp.id, 2 - 2 * comp.genus - base.crossings_on(comp.id)) for comp in base.components
    ]
    n_cross = len(base.crossings)
    e_c_D = sum(v for _, v in opens) + n_cross
    return EulerData(
        e_c_U=base.euler_X - e_c_D,
        open_components=tuple(opens),
        n_crossings=n_cross,
    )
