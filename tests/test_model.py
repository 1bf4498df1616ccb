"""Cover model validation: each violation code in isolation, plus goldens.

The isolated cases are engineered so exactly one identity fails while the
other four hold; that pins down which check produces which code.  The
meta-tests at the bottom verify the arithmetic that makes the per-crossing
degree identity a consequence of the per-sheet ones on coherent input.
"""

import pytest

from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover, identity_cover, power_map_cover, square_base
from ramcov.local_cover import LatticeSubgroup, LocalCoverType
from ramcov.model import (
    BaseGeometry,
    BranchComponent,
    CoverDescription,
    Crossing,
    PointAbove,
    RamSheet,
    check_references,
    derived_euler_data,
    validate,
)


def one_crossing_base():
    comps = (
        BranchComponent(id="A", genus=0, self_int=1, KX_dot=-3, fiber_deg=1),
        BranchComponent(id="B", genus=0, self_int=1, KX_dot=-3, fiber_deg=1),
    )
    return BaseGeometry(
        genus_C=0,
        KX_sq=9,
        euler_X=3,
        KX_dot_F=-3,
        components=comps,
        crossings=(Crossing(index=0, pair=("A", "B")),),
    )


def smooth_point(j=0, jp=0):
    return PointAbove(j=j, jp=jp, local=LatticeSubgroup((1, 0), (0, 1)))


# ---------------------------------------------------------------- euler data


def test_euler_data_square():
    data = derived_euler_data(square_base())
    assert data.n_crossings == 4
    assert data.e_c_U == 0
    for cid in ("D1", "D2", "D3", "D4"):
        assert data.open_component(cid) == 0
    with pytest.raises(InvalidInputError):
        data.open_component("D9")


def test_euler_data_empty_divisor():
    base = BaseGeometry(
        genus_C=0, KX_sq=9, euler_X=7, KX_dot_F=-3, components=(), crossings=()
    )
    data = derived_euler_data(base)
    assert data.e_c_U == 7
    assert data.open_components == ()
    assert data.n_crossings == 0


def test_euler_data_elliptic_component():
    base = BaseGeometry(
        genus_C=0,
        KX_sq=9,
        euler_X=5,
        KX_dot_F=-3,
        components=(BranchComponent(id="E", genus=1, self_int=9, KX_dot=0, fiber_deg=3),),
        crossings=(),
    )
    data = derived_euler_data(base)
    assert data.open_component("E") == 0
    assert data.e_c_U == 5


# ------------------------------------------------------------------- goldens


@pytest.mark.parametrize(
    "builder",
    [identity_cover, double_cover, lambda: power_map_cover(2, 1), lambda: power_map_cover(3, 5)],
)
def test_goldens_strictly_valid(builder):
    base, cover = builder()
    assert validate(base, cover, strict=True) == []


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-2, 3)])
def test_power_map_cover_rejects_non_positive_exponents(a, b):
    with pytest.raises(InvalidInputError, match="exponents must be positive"):
        power_map_cover(a, b)


# --------------------------------------------------- one code at a time


def test_isolated_v1():
    base, cover = double_cover()
    ram = tuple(
        (cid, (RamSheet(e=2, f=2),) if cid == "D1" else sheets)
        for cid, sheets in cover.ramification
    )
    bad = CoverDescription(degree=2, ramification=ram, points_above=cover.points_above)
    violations = validate(base, bad)
    assert [v.code for v in violations] == ["V1"]
    assert violations[0].where == ("D1",)
    assert "expected degree 2" in violations[0].message


def test_isolated_v2():
    base, cover = double_cover()
    pts = tuple((idx, points) for idx, points in cover.points_above if idx != 3)
    bad = CoverDescription(degree=2, ramification=cover.ramification, points_above=pts)
    violations = validate(base, bad)
    assert [v.code for v in violations] == ["V2"]
    assert violations[0].where == ("crossing 3",)


def test_isolated_v3():
    base, cover = double_cover()
    wrong = (PointAbove(j=0, jp=0, local=LatticeSubgroup((1, 0), (0, 2))),)
    pts = tuple((idx, wrong if idx == 0 else points) for idx, points in cover.points_above)
    bad = CoverDescription(degree=2, ramification=cover.ramification, points_above=pts)
    violations = validate(base, bad)
    assert [v.code for v in violations] == ["V3"]
    assert violations[0].where == ("crossing 0", "point 0")
    assert "e1=1" in violations[0].message


def test_isolated_v5_even_in_strict_mode():
    base = one_crossing_base()
    sheets = (RamSheet(e=4, f=1),)
    cover = CoverDescription(
        degree=4,
        ramification=(("A", sheets), ("B", sheets)),
        points_above=((0, (PointAbove(j=0, jp=0, local=LocalCoverType(n=4, q=2, m1=1, m2=1)),)),),
    )
    violations = validate(base, cover, strict=True)
    assert [v.code for v in violations] == ["V5"]
    assert "gcd" in violations[0].message


def test_isolated_v4_strict_only():
    base = one_crossing_base()
    cover = CoverDescription(
        degree=4,
        ramification=(
            ("A", (RamSheet(e=1, f=2), RamSheet(e=1, f=2))),
            ("B", (RamSheet(e=1, f=4),)),
        ),
        points_above=(
            (0, (smooth_point(j=0), smooth_point(j=0), smooth_point(j=0), smooth_point(j=1))),
        ),
    )
    assert validate(base, cover) == []
    violations = validate(base, cover, strict=True)
    assert [v.code for v in violations] == ["V4", "V4"]
    assert {v.where[1] for v in violations} == {"sheet j=0", "sheet j=1"}
    assert "sums to 3" in violations[0].message


def test_strict_is_superset_on_shared_codes():
    base, cover = double_cover()
    ram = tuple(
        (cid, (RamSheet(e=2, f=2),) if cid == "D1" else sheets)
        for cid, sheets in cover.ramification
    )
    bad = CoverDescription(degree=2, ramification=ram, points_above=cover.points_above)
    lax = validate(base, bad)
    strict = validate(base, bad, strict=True)
    assert set(v.code for v in lax) <= set(v.code for v in strict)
    assert "V4" in {v.code for v in strict}


# ------------------------------------------------------- order independence


def test_verdict_independent_of_declaration_order():
    base, cover = double_cover()
    ram = tuple(
        (cid, (RamSheet(e=2, f=2),) if cid == "D1" else sheets)
        for cid, sheets in cover.ramification
    )
    bad = CoverDescription(degree=2, ramification=ram, points_above=cover.points_above)
    reference = validate(base, bad, strict=True)

    shuffled_base = BaseGeometry(
        genus_C=base.genus_C,
        KX_sq=base.KX_sq,
        euler_X=base.euler_X,
        KX_dot_F=base.KX_dot_F,
        components=base.components[::-1],
        crossings=base.crossings[::-1],
        pair_counts=base.pair_counts[::-1],
    )
    shuffled_cover = CoverDescription(
        degree=2, ramification=ram[::-1], points_above=bad.points_above[::-1]
    )
    assert validate(shuffled_base, shuffled_cover, strict=True) == reference


# ---------------------------------------------------------------- meta-tests


@pytest.mark.parametrize(
    "builder", [identity_cover, double_cover, lambda: power_map_cover(3, 2)]
)
def test_local_degree_factors_through_either_sheet(builder):
    base, cover = builder()
    for crossing in base.crossings:
        for pt in cover.points_for(crossing.index):
            lt = pt.local_cover_type()
            assert lt.d_y == lt.e1 * lt.m2 == lt.e2 * lt.m1


@pytest.mark.parametrize(
    "builder", [identity_cover, double_cover, lambda: power_map_cover(4, 3)]
)
def test_per_sheet_identities_imply_crossing_identity(builder):
    # If every sheet's f is exhausted by the m2's of its points (V4) and the
    # sheet degrees sum to d (V1), then sum of d_y = sum of e_j * f_j = d:
    # the crossing identity V2 carries no independent information.
    base, cover = builder()
    assert validate(base, cover, strict=True) == []
    for crossing in base.crossings:
        points = cover.points_for(crossing.index)
        first_sheets = cover.sheets_for(crossing.pair[0])
        regrouped = sum(
            sheet.e * sum(pt.local_cover_type().m2 for pt in points if pt.j == jj)
            for jj, sheet in enumerate(first_sheets)
        )
        assert regrouped == sum(pt.local_cover_type().d_y for pt in points)
        assert regrouped == cover.degree


# --------------------------------------------------------- structural errors


def test_base_constructor_rejections():
    comp = BranchComponent(id="A", genus=0, self_int=0, KX_dot=-2, fiber_deg=0)
    with pytest.raises(InvalidInputError, match="duplicate component"):
        BaseGeometry(
            genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0,
            components=(comp, comp), crossings=(),
        )
    comp_b = BranchComponent(id="B", genus=0, self_int=0, KX_dot=-2, fiber_deg=0)
    with pytest.raises(InvalidInputError, match="duplicate crossing"):
        BaseGeometry(
            genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0,
            components=(comp, comp_b),
            crossings=(Crossing(index=0, pair=("A", "B")), Crossing(index=0, pair=("B", "A"))),
        )
    with pytest.raises(InvalidInputError, match="unknown component"):
        BaseGeometry(
            genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0,
            components=(comp,), crossings=(Crossing(index=0, pair=("A", "Z")),),
        )
    with pytest.raises(InvalidInputError, match="declared intersection count"):
        BaseGeometry(
            genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0,
            components=(comp, comp_b),
            crossings=(Crossing(index=0, pair=("A", "B")),),
            pair_counts=((("A", "B"), 2),),
        )
    with pytest.raises(InvalidInputError, match="distinct"):
        Crossing(index=0, pair=("A", "A"))
    with pytest.raises(InvalidInputError, match="genus_C"):
        BaseGeometry(genus_C=-1, KX_sq=0, euler_X=0, KX_dot_F=0, components=(), crossings=())
    with pytest.raises(InvalidInputError, match="integer"):
        BaseGeometry(genus_C=True, KX_sq=0, euler_X=0, KX_dot_F=0, components=(), crossings=())


def test_component_and_sheet_rejections():
    with pytest.raises(InvalidInputError):
        BranchComponent(id="", genus=0, self_int=0, KX_dot=0, fiber_deg=0)
    with pytest.raises(InvalidInputError):
        BranchComponent(id="A", genus=-1, self_int=0, KX_dot=0, fiber_deg=0)
    with pytest.raises(InvalidInputError):
        RamSheet(e=0, f=1)
    with pytest.raises(InvalidInputError):
        RamSheet(e=1, f=0)
    with pytest.raises(InvalidInputError):
        PointAbove(j=0, jp=0, local=(2, 0))
    with pytest.raises(InvalidInputError):
        CoverDescription(degree=0, ramification=(), points_above=())
    with pytest.raises(InvalidInputError, match="duplicate component id"):
        CoverDescription(
            degree=1,
            ramification=(("A", (RamSheet(e=1, f=1),)), ("A", (RamSheet(e=1, f=1),))),
            points_above=(),
        )


def test_check_references_errors():
    base, cover = identity_cover()
    with pytest.raises(InvalidInputError, match="unknown component"):
        check_references(
            base,
            CoverDescription(
                degree=1,
                ramification=cover.ramification + (("D9", (RamSheet(e=1, f=1),)),),
                points_above=cover.points_above,
            ),
        )
    with pytest.raises(InvalidInputError, match="unknown crossing"):
        check_references(
            base,
            CoverDescription(
                degree=1,
                ramification=cover.ramification,
                points_above=cover.points_above + ((17, ()),),
            ),
        )
    pts = tuple(
        (idx, (smooth_point(j=1),) if idx == 0 else points)
        for idx, points in cover.points_above
    )
    with pytest.raises(InvalidInputError, match="j=1 out of range"):
        validate(base, CoverDescription(degree=1, ramification=cover.ramification, points_above=pts))
    pts = tuple(
        (idx, (smooth_point(jp=3),) if idx == 0 else points)
        for idx, points in cover.points_above
    )
    with pytest.raises(InvalidInputError, match="jp=3 out of range"):
        validate(base, CoverDescription(degree=1, ramification=cover.ramification, points_above=pts))


def test_component_lookup():
    base = square_base()
    assert base.component("D3").fiber_deg == 1
    assert base.crossings_on("D1") == 2
    assert base.crossings_on("nope") == 0
    with pytest.raises(InvalidInputError):
        base.component("nope")
    _, cover = double_cover()
    assert cover.sheets_for("D2") == (RamSheet(e=2, f=1),)
    assert cover.sheets_for("nope") == ()
    assert len(cover.points_for(3)) == 1
    assert cover.points_for(99) == ()
