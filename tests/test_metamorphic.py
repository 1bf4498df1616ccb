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
* Base change.  Pulling the cover back along a curve ``C' -> C`` of degree
  ``m`` with total ramification ``R``, branched away from the branch
  configuration, multiplies ``deg_det`` by ``m``: flat base change gives
  ``f'_* O_{Y'} = phi^* f_* O_Y`` (Hartshorne III.9.3).  The strict
  finding codes must not change.

Hypothesis picks the covers, the crossings to reverse, the pairs to join,
the renamings and the base changes.
"""

import math
import pathlib

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover, power_map_cover, ruled_cyclic_cover
from ramcov.invariants import FibrationInputs, degree_linear_certificate
from ramcov.loader import load_cover_path
from ramcov.local_cover import LatticeSubgroup, LocalCoverType
from ramcov.model import BaseGeometry, CoverDescription, Crossing, PointAbove, validate
from rebuild import replace
from ruled_documents import ruled_cover, ruled_weights, unit_weights

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
_GOLDEN = st.sampled_from([power_map_cover(1, 1), double_cover()]) | st.builds(
    power_map_cover, st.integers(1, 4), st.integers(1, 4)
)
#: Every shipped and golden cover, and the builder's covers of C x P1; some
#: fail validation, which must not change either.
_ANY_COVER = st.sampled_from(sorted(_LOADED.items())).map(lambda item: item[1]) | _GOLDEN | (
    ruled_weights().map(lambda drawn: ruled_cover(*drawn))
)


@st.composite
def _square_cyclic_cover(draw):
    """The builder's Z/n cover of the square: fibres D1, D2 and sections D3, D4."""
    n = draw(st.integers(2, 23))
    (w1, w2), (v1, v2) = (draw(unit_weights(n, counts=(2,))) for _ in range(2))
    return ruled_cyclic_cover(0, n, {"D1": w1, "D2": w2}, {"D3": v1, "D4": v2})


#: The strictly valid covers of the square base that the golden covers share.
_SQUARE_COVERS = st.sampled_from(
    [_LOADED[name] for name in ("bidouble.json", "cyclic_5_1_4_2_3.json", "identity.json",
                                "kummer_2_1.json")]
) | _GOLDEN | _square_cyclic_cover()
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
    names = [name for name, *_ in whole.receipts]
    assert [[name for name, *_ in c.receipts] for c in parts] == [names, names]
    assert [value for _, value, *_ in whole.receipts] == [
        v1 + v2 for (_, v1, *_), (_, v2, *_) in zip(*(c.receipts for c in parts))
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
        {name(term): tuple(row) for term, *row in outcome.receipts},
        len(tuple(outcome.receipts)),
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


def base_change(document, m: int, R: int):
    """``document`` pulled back along a curve ``C' -> C`` of degree ``m`` and total ramification ``R``.

    ``2 g_C' - 2 = m (2 g_C - 2) + R``, ``K_X'^2 = m K_X^2 + 2 R (K_X . F)``,
    ``e(X') = m e(X) + R (K_X . F)`` and ``K_X' . F = K_X . F``.  A component
    of fibre degree 0 becomes ``m`` copies with its numbers and sheets, named
    ``id/t``.  A component of fibre degree ``k > 0`` keeps its id and sheets,
    with ``2g' - 2 = m (2g - 2) + kR``, ``self' = m self`` and ``K.D' = m K.D
    + kR``.  Crossing ``x`` becomes crossings ``m x + t``, on copy ``t`` of each
    fibre component, each over the points of ``x``; declared pair counts
    follow.
    """
    base, cover = document
    ids, components = {}, []
    for c in base.components:
        if c.fiber_deg:
            k = c.fiber_deg
            ids[c.id] = [c.id] * m
            components.append(replace(
                c, genus=m * (c.genus - 1) + k * R // 2 + 1, self_int=m * c.self_int,
                KX_dot=m * c.KX_dot + k * R,
            ))
        else:
            ids[c.id] = [f"{c.id}/{t}" for t in range(m)]
            components += [replace(c, id=cid) for cid in ids[c.id]]
    pair_counts = []
    for pair, count in base.pair_counts:
        copies = sorted({tuple(ids[cid][t] for cid in pair) for t in range(m)})
        pair_counts += [(copy, count * m // len(copies)) for copy in copies]
    changed = BaseGeometry(
        genus_C=m * (base.genus_C - 1) + R // 2 + 1,
        KX_sq=m * base.KX_sq + 2 * R * base.KX_dot_F,
        euler_X=m * base.euler_X + R * base.KX_dot_F,
        KX_dot_F=base.KX_dot_F,
        components=tuple(components),
        crossings=tuple(
            Crossing(m * x.index + t, tuple(ids[cid][t] for cid in x.pair))
            for x in base.crossings for t in range(m)
        ),
        pair_counts=tuple(pair_counts),
    )
    return changed, CoverDescription(
        degree=cover.degree,
        ramification=tuple(
            (cid, sheets) for c, sheets in cover.ramification for cid in dict.fromkeys(ids[c])
        ),
        points_above=tuple(
            (m * idx + t, points) for idx, points in cover.points_above for t in range(m)
        ),
    )


@settings(max_examples=100, deadline=None)
@given(_ANY_COVER, st.integers(2, 5), st.integers(0, 4))
def test_base_change_multiplies_deg_det_by_the_degree(document, m, extra):
    base, cover = document
    # The least even R that leaves g_C' >= 0, plus an even extra.
    R = max(0, 2 * m - 2 - 2 * m * base.genus_C) + 2 * extra
    assume(all(m * (2 * c.genus - 2) + c.fiber_deg * R >= -2
               for c in base.components if c.fiber_deg))
    changed = base_change(document, m, R)
    before, after = _outcome(base, cover, None), _outcome(*changed, None)
    assert isinstance(after, str) == isinstance(before, str)
    if not isinstance(before, str):
        assert after.deg_det == m * before.deg_det
    # A fibre component's finding is made once per copy.
    assert set(_codes(*changed)) == set(_codes(base, cover))
