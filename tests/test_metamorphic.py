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
* Blow-up.  Blowing the base up at a crossing and pulling the cover back
  changes the resolved cover only birationally, and its singularities are
  rational, so ``chi`` and ``deg_det`` must not change; the strict walk
  stays clean and the certificate satisfied, three blow-ups in a row.  A
  document with raw local types is blown up with each type given as the
  lattice of its canonical basis, which leaves its certificate equal.
  The shipped ``bidouble_blown_up.json`` is the bidouble cover blown up at
  crossing 0, so ``D1``, ``D3`` and ``E0`` have self-intersection -1 and
  (R,R) falls from 4 to 2, while ``chi`` stays 1 and ``deg_det`` 0.

Hypothesis picks the covers, the crossings to reverse, the pairs to join,
the renamings, the base changes and the crossings to blow up.
"""

import itertools
import json
import math
import pathlib

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover, power_map_cover, ruled_cyclic_cover
from ramcov.invariants import FibrationInputs, degree_linear_certificate, examine
from ramcov.loader import load_cover_path
from ramcov.local_cover import LatticeSubgroup, LocalCoverType
from ramcov.model import (
    BaseGeometry,
    BranchComponent,
    CoverDescription,
    Crossing,
    PointAbove,
    RamSheet,
    validate,
)
from ramcov.report import canonical_document
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


def blow_up(base, cover, index: int):
    """``(base, cover)`` with the base blown up at crossing ``index`` and the cover pulled back.

    The crossing, of ``(D_i, D_j)``, gives way to a new rational vertical
    component ``E`` with ``E^2 = K.E = -1`` and two crossings, ``(D_i, E)``
    and ``(E, D_j)``, indexed past the last one; ``D_i`` and ``D_j`` each
    lose 1 of self-intersection and gain 1 of ``K.D``, ``K_X^2`` falls by 1,
    ``e(X)`` rises by 1 and a declared count on ``(D_i, D_j)`` falls by 1.
    Each point ``y`` over the crossing, with lattice ``L``, gives ``E`` one
    sheet, with ``e`` the order of ``(1, 1)`` in ``Z^2/L`` and ``f = d_y/e``,
    one point over ``(D_i, E)`` with lattice ``{(a, b) : (a + b, b) in L}``
    and one over ``(E, D_j)`` with lattice ``{(a, b) : (a, a + b) in L}``:
    the two charts ``(u, v) = (u'v', v')`` and ``(u', u'v')`` of the blow-up
    at the crossing ``uv = 0``.  Every point over the crossing must carry a
    lattice.
    """
    pair = next(x.pair for x in base.crossings if x.index == index)
    ids = {c.id for c in base.components}
    eid = next(f"E{t}" for t in itertools.count() if f"E{t}" not in ids)
    first = max(x.index for x in base.crossings) + 1
    changed = replace(
        base,
        KX_sq=base.KX_sq - 1,
        euler_X=base.euler_X + 1,
        components=tuple(
            replace(c, self_int=c.self_int - 1, KX_dot=c.KX_dot + 1) if c.id in pair else c
            for c in base.components
        ) + (BranchComponent(eid, genus=0, self_int=-1, KX_dot=-1, fiber_deg=0),),
        crossings=tuple(x for x in base.crossings if x.index != index) + (
            Crossing(first, (pair[0], eid)), Crossing(first + 1, (eid, pair[1])),
        ),
        pair_counts=tuple(
            (declared, count - (sorted(declared) == sorted(pair)))
            for declared, count in base.pair_counts
        ),
    )
    sheets, over_first, over_second = [], [], []
    for k, p in enumerate(cover.points_for(index)):
        lattice = p.local
        e = next(t for t in itertools.count(1) if lattice.contains((t, t)))
        sheets.append(RamSheet(e=e, f=lattice.index // e))
        (a1, b1), (a2, b2) = lattice.g1, lattice.g2
        over_first.append(PointAbove(p.j, k, LatticeSubgroup((a1 - b1, b1), (a2 - b2, b2))))
        over_second.append(PointAbove(k, p.jp, LatticeSubgroup((a1, b1 - a1), (a2, b2 - a2))))
    return changed, replace(
        cover,
        ramification=cover.ramification + ((eid, tuple(sheets)),),
        points_above=tuple((i, points) for i, points in cover.points_above if i != index) + (
            (first, tuple(over_first)), (first + 1, tuple(over_second)),
        ),
    )


def _clean_with_lattices(document) -> bool:
    base, cover = document
    found, _, error = examine(base, cover, strict=True)
    lattices = all(isinstance(p.local, LatticeSubgroup) for _, ps in cover.points_above for p in ps)
    return lattices and not found and error is None


def _as_lattices(document):
    """``document`` with each raw local type ``(n, q, m1, m2)`` given as a lattice.

    The lattice is ``(n m1, 0), (q m1, m2)``: that is its canonical basis,
    so when the raw type is valid it is the lattice's local type.
    """
    base, cover = document

    def lattice(local):
        if isinstance(local, LatticeSubgroup):
            return local
        return LatticeSubgroup((local.n * local.m1, 0), (local.q * local.m1, local.m2))

    points_above = tuple(
        (idx, tuple(replace(p, local=lattice(p.local)) for p in points))
        for idx, points in cover.points_above
    )
    return base, replace(cover, points_above=points_above)


#: The shipped documents whose points carry raw local types and whose strict walk is clean.
_RAW = [
    load_cover_path(str(DOCUMENTS / name))
    for name in ("crossed_sheets.json", "repeated_points.json", "shuffled.json")
]


def test_a_valid_raw_local_type_is_the_lattice_of_its_canonical_basis():
    for base, cover in _RAW:
        assert not _clean_with_lattices((base, cover))
        converted = _as_lattices((base, cover))
        assert _clean_with_lattices(converted)
        assert examine(*converted, strict=True) == examine(base, cover, strict=True)


#: The shipped documents whose points carry lattices, or raw local types given
#: as lattices, and whose strict walk is clean, the golden covers, and the
#: builder's covers of C x P1, g_C <= 2.
_BLOWABLE = st.sampled_from(
    [document for _, document in sorted(_LOADED.items()) if _clean_with_lattices(document)]
    + [_as_lattices(document) for document in _RAW]
) | _GOLDEN | ruled_weights().filter(lambda drawn: drawn[0] <= 2).map(
    lambda drawn: ruled_cover(*drawn)
)


@settings(max_examples=60, deadline=None)
@given(_BLOWABLE, st.data())
def test_blowing_up_crossings_keeps_chi_deg_det_and_a_clean_certificate(document, data):
    base, cover = document
    found, before, error = examine(base, cover, strict=True)
    assert (found, error) == ([], None) and before.satisfied
    for _ in range(3):
        index = data.draw(st.sampled_from([x.index for x in base.crossings]))
        base, cover = blow_up(base, cover, index)
        found, after, error = examine(base, cover, strict=True)
        assert (found, error) == ([], None)
        assert after.satisfied
        assert (after.report.chi, after.deg_det) == (before.report.chi, before.deg_det)


def test_the_shipped_blown_up_bidouble_keeps_chi_and_deg_det():
    path = DOCUMENTS / "bidouble_blown_up.json"
    document = blow_up(*double_cover(), 0)
    assert json.loads(path.read_text()) == canonical_document(*document)
    base, cover = load_cover_path(str(path))
    assert {c.id: c.self_int for c in base.components if c.self_int} == {
        "D1": -1, "D3": -1, "E0": -1,
    }
    found, certificate, error = examine(base, cover, strict=True)
    assert (found, error) == ([], None) and certificate.satisfied
    assert (certificate.report.RR, certificate.report.chi, certificate.deg_det) == (2, 1, 0)
    assert degree_linear_certificate(*double_cover()).report.RR == 4
