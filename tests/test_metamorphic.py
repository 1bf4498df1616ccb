"""Metamorphic relations: two runs that must agree, with no formula restated.

* Orientation.  Reversing a crossing's pair, swapping each point's
  ``(j, jp)`` and exchanging the two coordinates of its lattice generators
  describes the same cover; a raw local type ``(n, q, m1, m2)`` becomes
  ``(n, q^-1 mod n, m2, m1)``.  The whole certificate, receipts included,
  and the strict findings must not change.
* Disjoint union.  Two covers of one base side by side form a cover of
  degree ``d1 + d2``: the sheets are concatenated and the second cover's
  points index its own sheets past the first's.  The union is strictly
  valid when both parts are, and every quantity that sums over sheets and
  points (the report's totals and the receipts' values) adds.
* Renaming.  New component ids, in a sort order of their own; new crossing
  indices, in an order of their own and with gaps; or a component's sheets
  listed in another order, with every point on that component following
  its sheet.  The strict finding codes, the receipts and the report's
  totals must not change, up to the new ids and indices in the receipts'
  names and in ``B_mult``.

Hypothesis picks the covers, the crossings to reverse, the pairs to join
and the renamings.
"""

import math
import pathlib
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover, identity_cover, power_map_cover
from ramcov.invariants import FibrationInputs, degree_linear_certificate
from ramcov.loader import load_cover_path
from ramcov.local_cover import LatticeSubgroup, LocalCoverType
from ramcov.model import CoverDescription, Crossing, PointAbove, validate

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
DOCUMENTS = ROOT / "tests" / "fixtures" / "documents"

_LOADED = {
    path.name: load_cover_path(str(path))
    for path in [
        *sorted(COVERS.glob("*.json")),
        COVERS / "malformed" / "bad_v1.json",
        COVERS / "malformed" / "bad_v3.json",
        DOCUMENTS / "both_orientations.json",
        DOCUMENTS / "grid_4.json",
        DOCUMENTS / "shuffled.json",
    ]
}
_GOLDEN = st.sampled_from([identity_cover(), double_cover()]) | st.builds(
    power_map_cover, st.integers(1, 4), st.integers(1, 4)
)
#: Every shipped and golden cover; some fail validation, which must not change either.
_ANY_COVER = st.sampled_from(sorted(_LOADED.items())).map(lambda item: item[1]) | _GOLDEN
#: The strictly valid covers of the square base that the golden covers share.
_SQUARE_COVERS = st.sampled_from(
    [_LOADED[name] for name in ("bidouble.json", "cyclic_5_1_4_2_3.json", "identity.json",
                                "kummer_2_1.json")]
) | _GOLDEN
_FIBRATION = st.sampled_from([None, FibrationInputs(gF=1, Dhor_dot_F=2, gC=0, nDC=2, nS=3)])


def _reversible(local) -> bool:
    """Whether ``local`` has a reversed form: a lattice, or a raw type with q a unit mod n."""
    if isinstance(local, LatticeSubgroup):
        return True
    n, q = local.n, local.q
    return n >= 1 and 0 <= q < n and math.gcd(n, q) == 1


def _reversed_local(local):
    if isinstance(local, LatticeSubgroup):
        (x1, y1), (x2, y2) = local.g1, local.g2
        return LatticeSubgroup((y1, x1), (y2, x2))
    return LocalCoverType(local.n, pow(local.q, -1, local.n), local.m2, local.m1)


def _reverse(base, cover, indices: set):
    """The same cover with the crossings in ``indices`` described the other way round."""
    crossings = tuple(
        Crossing(x.index, x.pair[::-1]) if x.index in indices else x for x in base.crossings
    )
    points_above = tuple(
        (idx, tuple(PointAbove(p.jp, p.j, _reversed_local(p.local)) for p in points))
        if idx in indices else (idx, points)
        for idx, points in cover.points_above
    )
    return replace(base, crossings=crossings), replace(cover, points_above=points_above)


def _outcome(base, cover, fibration):
    """The certificate, or the message of the error that refuses it."""
    try:
        return degree_linear_certificate(base, cover, fibration)
    except InvalidInputError as exc:
        return str(exc)


def _codes(base, cover) -> list:
    return sorted(v.code for v in validate(base, cover, strict=True))


@settings(max_examples=150, deadline=None)
@given(_ANY_COVER, _FIBRATION, st.data())
def test_reversing_crossings_changes_nothing(document, fibration, data):
    base, cover = document
    reversible = [
        x.index for x in base.crossings
        if all(_reversible(p.local) for p in cover.points_for(x.index))
    ]
    indices = data.draw(st.sets(st.sampled_from(reversible), min_size=1))
    flipped = _reverse(base, cover, indices)
    assert _outcome(*flipped, fibration) == _outcome(base, cover, fibration)
    assert _codes(*flipped) == _codes(base, cover)


def _union(first, second):
    """The disjoint union of two covers of one base."""
    (base, a), (other_base, b) = first, second
    assert other_base == base
    ids = [c.id for c in base.components]
    points_above = []
    for x in base.crossings:
        dj, djp = (len(a.sheets_for(cid)) for cid in x.pair)
        shifted = tuple(PointAbove(p.j + dj, p.jp + djp, p.local) for p in b.points_for(x.index))
        points_above.append((x.index, a.points_for(x.index) + shifted))
    return base, CoverDescription(
        degree=a.degree + b.degree,
        ramification=tuple((cid, a.sheets_for(cid) + b.sheets_for(cid)) for cid in ids),
        points_above=tuple(points_above),
    )


#: Report fields that sum over sheets and points.
_ADDITIVE = ("KX_dot_B", "B_dot_F", "RR", "KY_sq", "correction_total", "KYprime_sq",
             "euler_Y", "exceptional_s", "euler_Yprime", "chi", "deg_det", "fibration_term")


@settings(max_examples=100, deadline=None)
@given(_SQUARE_COVERS, _SQUARE_COVERS)
def test_disjoint_union_is_valid_and_adds(first, second):
    assert _codes(*first) == _codes(*second) == []
    union = _union(first, second)
    assert _codes(*union) == []
    parts = [degree_linear_certificate(*first), degree_linear_certificate(*second)]
    whole = degree_linear_certificate(*union)
    for field in _ADDITIVE:
        assert getattr(whole.report, field) == sum(getattr(c.report, field) for c in parts), field
    assert [m for _, m in whole.report.B_mult] == [
        m1 + m2 for (_, m1), (_, m2) in zip(*(c.report.B_mult for c in parts))
    ]
    names = [t.name for t in whole.terms]
    assert [[t.name for t in c.terms] for c in parts] == [names, names]
    assert [t.value for t in whole.terms] == [
        t1.value + t2.value for t1, t2 in zip(*(c.terms for c in parts))
    ]


def _summary(base, cover, fibration, component=lambda cid: cid, crossing=lambda idx: idx):
    """Strict finding codes, then the error or the receipts by name and the report's totals.

    A component id or crossing index in a receipt's name or in ``B_mult`` is
    passed through ``component`` or ``crossing``.
    """
    def name(term: str) -> str:
        kind, _, inner = term.partition("[")
        if not inner:
            return term
        if inner.startswith("crossing "):
            return f"{kind}[crossing {crossing(int(inner[len('crossing '):-1]))}]"
        return f"{kind}[{component(inner[:-1])}]"

    outcome = _outcome(base, cover, fibration)
    if isinstance(outcome, str):
        return _codes(base, cover), outcome
    return (
        _codes(base, cover),
        {name(t.name): (t.value, t.bound, t.per_degree, t.ok) for t in outcome.terms},
        len(outcome.terms),
        {component(cid): m for cid, m in outcome.report.B_mult},
        [getattr(outcome.report, field) for field in _ADDITIVE],
        outcome.linear_coefficient,
    )


def _rename_components(base, cover, new_id: dict):
    comps = tuple(replace(c, id=new_id[c.id]) for c in base.components)
    crossings = tuple(Crossing(x.index, tuple(new_id[c] for c in x.pair)) for x in base.crossings)
    pair_counts = tuple((tuple(new_id[c] for c in pair), n) for pair, n in base.pair_counts)
    ramification = tuple((new_id[cid], sheets) for cid, sheets in cover.ramification)
    return (
        replace(base, components=comps, crossings=crossings, pair_counts=pair_counts),
        replace(cover, ramification=ramification),
    )


@settings(max_examples=100, deadline=None)
@given(_ANY_COVER, _FIBRATION, st.data())
def test_renaming_components_changes_nothing(document, fibration, data):
    base, cover = document
    ids = [c.id for c in base.components]
    # The new ids sort in the drawn order, not in the old ids' order.
    order = data.draw(st.permutations(range(len(ids))))
    new_id = {cid: f"C{k}" for cid, k in zip(ids, order)}
    renamed = _rename_components(base, cover, new_id)
    assert _summary(*renamed, fibration) == _summary(base, cover, fibration, component=new_id.get)


@settings(max_examples=100, deadline=None)
@given(_ANY_COVER, _FIBRATION, st.data())
def test_reindexing_crossings_changes_nothing(document, fibration, data):
    base, cover = document
    indices = [x.index for x in base.crossings]
    new = data.draw(st.lists(st.integers(0, 4 * len(indices)), min_size=len(indices),
                             max_size=len(indices), unique=True))
    new_index = dict(zip(indices, new))
    reindexed = (
        replace(base, crossings=tuple(Crossing(new_index[x.index], x.pair) for x in base.crossings)),
        replace(cover, points_above=tuple((new_index[i], pts) for i, pts in cover.points_above)),
    )
    assert _summary(*reindexed, fibration) == _summary(
        base, cover, fibration, crossing=new_index.get
    )


def _permute_sheets(base, cover, cid: str, perm: list):
    """``cid``'s sheet ``i`` becomes its sheet ``perm[i]``, and its points follow."""
    sheets = [None] * len(perm)
    for i, sheet in enumerate(cover.sheets_for(cid)):
        sheets[perm[i]] = sheet
    pairs = {x.index: x.pair for x in base.crossings}
    points_above = tuple(
        (idx, tuple(
            PointAbove(perm[p.j] if pairs[idx][0] == cid else p.j,
                       perm[p.jp] if pairs[idx][1] == cid else p.jp, p.local)
            for p in points
        ))
        for idx, points in cover.points_above
    )
    ramification = tuple(
        (c, tuple(sheets) if c == cid else ss) for c, ss in cover.ramification
    )
    return base, replace(cover, ramification=ramification, points_above=points_above)


#: Covers with a component of two or more sheets: the shuffled document and unions.
_MANY_SHEETS = st.sampled_from([_LOADED["shuffled.json"]]) | st.builds(
    _union, _SQUARE_COVERS, _SQUARE_COVERS
)


@settings(max_examples=100, deadline=None)
@given(_MANY_SHEETS, _FIBRATION, st.data())
def test_permuting_a_components_sheets_changes_nothing(document, fibration, data):
    base, cover = document
    cid = data.draw(st.sampled_from(
        [c.id for c in base.components if len(cover.sheets_for(c.id)) > 1]
    ))
    n = len(cover.sheets_for(cid))
    perm = data.draw(st.permutations(range(n)).filter(lambda p: p != list(range(n))))
    permuted = _permute_sheets(base, cover, cid, perm)
    assert _summary(*permuted, fibration) == _summary(base, cover, fibration)
