"""Cover model validation: each violation code in isolation, plus goldens.

The isolated cases are engineered so exactly one identity fails while the
other four hold; that pins down which check produces which code.  The
meta-tests at the bottom verify the arithmetic that makes the per-crossing
degree identity a consequence of the per-sheet ones on coherent input.
"""

import pathlib
import random
import time

import pytest

from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover, power_map_cover, square_base
from ramcov.invariants import invariant_report
from ramcov.loader import load_cover_path
from ramcov.local_cover import LatticeSubgroup, LocalCoverType, local_type
from ramcov.model import (
    BaseGeometry,
    BranchComponent,
    CoverDescription,
    Crossing,
    EulerData,
    PointAbove,
    RamSheet,
    Violation,
    check_references,
    derived_euler_data,
    validate,
)
from ramcov.report import canonical_document
from rebuild import replace


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


def test_open_component_reads_its_own_entry():
    data = EulerData(e_c_U=0, open_components=(("A", 1), ("B", -2)), n_crossings=0)
    assert (data.open_component("A"), data.open_component("B")) == (1, -2)
    with pytest.raises(InvalidInputError, match="unknown component 'C'"):
        data.open_component("C")


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
    [
        lambda: power_map_cover(1, 1),
        double_cover,
        lambda: power_map_cover(2, 1),
        lambda: power_map_cover(3, 5),
    ],
)
def test_goldens_strictly_valid(builder):
    base, cover = builder()
    assert validate(base, cover, strict=True) == []


@pytest.mark.parametrize(
    "a,b,message",
    [
        (0, 1, "exponents must be positive (got a=0, b=1)"),
        (1, 0, "exponents must be positive (got a=1, b=0)"),
        (-2, 3, "exponents must be positive (got a=-2, b=3)"),
        ("2", 1, "exponent a must be an integer (got '2')"),
        (1.5, 1, "exponent a must be an integer (got 1.5)"),
        (True, 2, "exponent a must be an integer (got True)"),
    ],
)
def test_power_map_cover_refuses_bad_exponents(a, b, message):
    with pytest.raises(InvalidInputError) as info:
        power_map_cover(a, b)
    assert str(info.value) == message


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
    # Both sheets of A are off; one finding names the first and counts them.
    assert [(v.code, v.where[1]) for v in violations] == [("V4", "sheet j=0")]
    assert violations[0].message.endswith("sums to 3, expected f=2; 2 of 2 sheet(s) off")


def test_isolated_v4_on_the_second_component():
    base = one_crossing_base()
    cover = CoverDescription(
        degree=4,
        ramification=(
            ("A", (RamSheet(e=1, f=4),)),
            ("B", (RamSheet(e=1, f=2), RamSheet(e=1, f=2))),
        ),
        points_above=(
            (0, (smooth_point(jp=0), smooth_point(jp=1), smooth_point(jp=0), smooth_point(jp=0))),
        ),
    )
    assert validate(base, cover) == []
    assert validate(base, cover, strict=True) == [
        Violation(
            code="V4",
            where=("crossing 0", "sheet jp=0"),
            message="crossing 0: m1 over sheet 0 of 'B' sums to 3, expected f=2; "
                    "2 of 2 sheet(s) off",
        ),
    ]


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


DOCUMENTS = pathlib.Path(__file__).resolve().parent / "fixtures" / "documents"
SHUFFLED = DOCUMENTS / "shuffled.json"
BOTH_ORIENTATIONS = DOCUMENTS / "both_orientations.json"


def _permuted(rng, base, cover):
    """The same model built from lists in a random order."""

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    new_base = replace(
        base,
        components=shuffled(base.components),
        crossings=shuffled(base.crossings),
        pair_counts=shuffled(base.pair_counts),
    )
    new_cover = replace(
        cover,
        ramification=shuffled(cover.ramification),
        points_above=shuffled((idx, shuffled(points)) for idx, points in cover.points_above),
    )
    return new_base, new_cover


@pytest.mark.parametrize(
    "load",
    [
        lambda: load_cover_path(str(SHUFFLED)),
        lambda: load_cover_path(str(BOTH_ORIENTATIONS)),
        double_cover,
        lambda: power_map_cover(3, 2),
    ],
    ids=["shuffled", "both_orientations", "double", "power_3_2"],
)
def test_models_built_from_permuted_tuples_are_equal(load):
    base, cover = load()
    rng = random.Random(5)
    for _ in range(20):
        base2, cover2 = _permuted(rng, base, cover)
        assert (base2, cover2) == (base, cover)
        for strict in (False, True):
            assert validate(base2, cover2, strict=strict) == validate(base, cover, strict=strict)
        assert invariant_report(base2, cover2) == invariant_report(base, cover)
        assert canonical_document(base2, cover2) == canonical_document(base, cover)


def test_wrongly_typed_keys_raise_invalid_input():
    base, cover = double_cover()
    sheets = cover.sheets_for("D1")
    points = cover.points_for(0)
    bad_covers = [
        lambda: CoverDescription(
            degree=2, ramification=cover.ramification + ((5, sheets),),
            points_above=cover.points_above,
        ),
        lambda: CoverDescription(
            degree=2, ramification=cover.ramification,
            points_above=cover.points_above + (("7", points),),
        ),
        lambda: CoverDescription(
            degree=2, ramification=cover.ramification,
            points_above=cover.points_above + ((None, points),),
        ),
    ]
    for build in bad_covers:
        with pytest.raises(InvalidInputError):
            validate(base, build())
    for pair in (("D1", 3), (None, "D2")):
        with pytest.raises(InvalidInputError):
            replace(base, pair_counts=base.pair_counts + ((pair, 1),))


# ------------------------------------------------------ brute-force recount


def _random_configuration(rng):
    """A small base and cover; references resolve, the identities may not."""
    ids = [f"C{i}" for i in range(rng.randint(2, 4))]
    components = tuple(
        BranchComponent(id=cid, genus=0, self_int=0, KX_dot=-2, fiber_deg=0) for cid in ids
    )
    crossings = tuple(
        Crossing(index=index, pair=tuple(rng.sample(ids, 2)))
        for index in rng.sample(range(10), rng.randint(0, 5))
    )
    base = BaseGeometry(
        genus_C=0, KX_sq=8, euler_X=4, KX_dot_F=-2, components=components, crossings=crossings
    )
    ramification = {
        cid: tuple(
            RamSheet(e=rng.randint(1, 3), f=rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
        )
        for cid in ids
        if rng.random() < 0.9
    }

    def local():
        if rng.random() < 0.7:
            while True:
                g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
                g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
                if g1[0] * g2[1] != g1[1] * g2[0]:
                    return LatticeSubgroup(g1, g2)
        return LocalCoverType(
            n=rng.randint(0, 4), q=rng.randint(0, 4), m1=rng.randint(0, 2), m2=rng.randint(1, 2)
        )

    points_above = []
    for x in crossings:
        first, second = (len(ramification.get(cid, ())) for cid in x.pair)
        if first and second and rng.random() < 0.9:
            points = tuple(
                PointAbove(j=rng.randrange(first), jp=rng.randrange(second), local=local())
                for _ in range(rng.randint(0, 4))
            )
            points_above.append((x.index, points))
    cover = CoverDescription(
        degree=rng.randint(1, 5),
        ramification=tuple(ramification.items()),
        points_above=tuple(points_above),
    )
    return base, cover


def _recount(base, cover, strict):
    """Every finding of ``validate``, recounted identity by identity."""
    d = cover.degree
    sheets = dict(cover.ramification)
    found = []
    for comp in base.components:
        total = sum(s.e * s.f for s in sheets.get(comp.id, ()))
        if total != d:
            found.append(Violation("V1", (comp.id,), (
                f"component {comp.id!r}: sum of e*f over sheets is {total}, expected degree {d}"
            )))
    points_above = dict(cover.points_above)
    for x in base.crossings:
        at = f"crossing {x.index}"
        points = points_above.get(x.index, ())
        types = [
            local_type(p.local) if isinstance(p.local, LatticeSubgroup) else p.local
            for p in points
        ]
        first, second = sheets.get(x.pair[0], ()), sheets.get(x.pair[1], ())
        total = sum(t.n * t.m1 * t.m2 for t in types)
        if total != d:
            found.append(Violation("V2", (at,), (
                f"{at}: sum of local degrees d_y is {total}, expected degree {d}"
            )))
        for k, (p, t) in enumerate(zip(points, types)):
            where = (at, f"point {k}")
            if t.n * t.m1 != first[p.j].e:
                found.append(Violation("V3", where, (
                    f"{at}, point {k}: local e1={t.n * t.m1} but sheet {p.j} of "
                    f"{x.pair[0]!r} has e={first[p.j].e}"
                )))
            if t.n * t.m2 != second[p.jp].e:
                found.append(Violation("V3", where, (
                    f"{at}, point {k}: local e2={t.n * t.m2} but sheet {p.jp} of "
                    f"{x.pair[1]!r} has e={second[p.jp].e}"
                )))
            found.extend(
                Violation("V5", where, f"{at}, point {k}: {problem}")
                for problem in t.invariant_problems()
            )
        if not strict:
            continue
        # One finding per component: the first sheet that is off, and how many are.
        for cid, own, j, m, on_sheet in (
            (x.pair[0], first, "j", "m2", lambda p, t, jj: t.m2 if p.j == jj else 0),
            (x.pair[1], second, "jp", "m1", lambda p, t, jj: t.m1 if p.jp == jj else 0),
        ):
            sums = [sum(on_sheet(p, t, jj) for p, t in zip(points, types))
                    for jj in range(len(own))]
            off = [jj for jj, sheet in enumerate(own) if sums[jj] != sheet.f]
            if off:
                jj = off[0]
                found.append(Violation("V4", (at, f"sheet {j}={jj}"), (
                    f"{at}: {m} over sheet {jj} of {cid!r} sums to {sums[jj]}, "
                    f"expected f={own[jj].f}; {len(off)} of {len(own)} sheet(s) off"
                )))
    return sorted(found, key=lambda v: (v.code, v.where, v.message))


def test_validate_matches_brute_force_recount():
    rng = random.Random(20)
    codes = set()
    for _ in range(400):
        base, cover = _random_configuration(rng)
        for strict in (False, True):
            expected = _recount(base, cover, strict)
            assert validate(base, cover, strict=strict) == expected
            codes.update(v.code for v in expected)
    assert codes == {"V1", "V2", "V3", "V4", "V5"}


# ---------------------------------------------------------------- meta-tests


@pytest.mark.parametrize(
    "builder", [lambda: power_map_cover(1, 1), double_cover, lambda: power_map_cover(3, 2)]
)
def test_local_degree_factors_through_either_sheet(builder):
    base, cover = builder()
    for crossing in base.crossings:
        for pt in cover.points_for(crossing.index):
            lt = pt.local_cover_type()
            assert lt.d_y == lt.e1 * lt.m2 == lt.e2 * lt.m1


@pytest.mark.parametrize(
    "builder", [lambda: power_map_cover(1, 1), double_cover, lambda: power_map_cover(4, 3)]
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


class _ComponentId(str):
    pass


def test_a_crossing_of_str_subclass_ids_is_accepted():
    # Crossing.__new__ judges each id with isinstance, so a str
    # subclass passes.
    pair = (_ComponentId("A"), _ComponentId("B"))
    assert Crossing(index=0, pair=pair).pair == ("A", "B")
    assert Crossing(index=1, pair=("A", _ComponentId("B"))).pair == ("A", "B")


def _two_components(**fields):
    comps = (
        BranchComponent(id="A", genus=0, self_int=0, KX_dot=-2, fiber_deg=0),
        BranchComponent(id="B", genus=0, self_int=0, KX_dot=-2, fiber_deg=0),
    )
    return BaseGeometry(genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0, components=comps, **fields)


def _bad_sheet_index_before_dangling_key():
    # Crossing 3's point names sheet 1 of a one-sheet line, and key 4 names
    # no crossing: check_references meets crossing 3 first.
    base, cover = double_cover()
    pts = tuple((idx, (smooth_point(j=1),) if idx == 3 else points)
                for idx, points in cover.points_above)
    check_references(base, replace(cover, points_above=pts + ((4, ()),)))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Crossing(index=3, pair=("A", 7)), "crossing 3: pair must be two component ids"),
        (lambda: Crossing(index=3, pair=["A", "B"]), "crossing 3: pair must be two component ids"),
        (
            lambda: Crossing(index=3, pair=("A", "B", "C")),
            "crossing 3: pair must be two component ids",
        ),
        (
            lambda: Crossing(index=3, pair=("A", "A")),
            "crossing 3: components must be distinct "
            "(transversal self-intersections are not modelled)",
        ),
        (
            lambda: Crossing(index=3, pair=(_ComponentId("A"), "A")),
            "crossing 3: components must be distinct "
            "(transversal self-intersections are not modelled)",
        ),
        (
            lambda: _two_components(crossings=(), pair_counts=((("A", "Z"), 0),)),
            "declared pair ('A', 'Z') references unknown components",
        ),
        (
            lambda: CoverDescription(degree=1, ramification=(), points_above=((4, ()), (4, ()))),
            "duplicate crossing indices in the points_above table: [4]",
        ),
        # Two faults each: the checks fire in a fixed order, so the message
        # names the same one whichever way the model is indexed.
        (
            lambda: CoverDescription(
                degree=1, ramification=(("A", ()), ("A", ())), points_above=(("0", ()),)
            ),
            "duplicate component ids in the ramification table: ['A']",
        ),
        (
            lambda: BaseGeometry(
                genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0,
                components=_two_components(crossings=()).components * 2,
                crossings=(Crossing(index=0, pair=("A", "Z")),),
            ),
            "duplicate component ids: ['A', 'B']",
        ),
        (
            lambda: _two_components(
                crossings=(Crossing(index=0, pair=("A", "B")), Crossing(index=0, pair=("A", "Z")))
            ),
            "duplicate crossing indices: [0]",
        ),
        (
            _bad_sheet_index_before_dangling_key,
            "crossing 3, point 0: sheet index j=1 out of range for component 'D2' (1 sheets)",
        ),
        # Given in reverse index order, two crossings with unknown ids: the
        # lower index is named.
        (
            lambda: _two_components(
                crossings=(Crossing(index=5, pair=("A", "Y")), Crossing(index=2, pair=("Z", "B")))
            ),
            "crossing 2 references unknown component 'Z'",
        ),
        # Both ids unknown: the first of the pair, as given, is named.
        (
            lambda: _two_components(crossings=(Crossing(index=1, pair=("Y", "X")),)),
            "crossing 1 references unknown component 'Y'",
        ),
        # Crossing references are judged before declared counts.
        (
            lambda: _two_components(
                crossings=(Crossing(index=0, pair=("A", "Z")),), pair_counts=((("A", "B"), 3),)
            ),
            "crossing 0 references unknown component 'Z'",
        ),
    ],
    ids=[
        "crossing_pair_member",
        "crossing_pair_list",
        "crossing_pair_of_three",
        "crossing_pair_equal",
        "crossing_pair_equal_subclass",
        "declared_pair_unknown",
        "points_above_duplicate",
        "ramification_duplicate_before_points_key",
        "component_duplicate_before_unknown_component",
        "crossing_duplicate_before_unknown_component",
        "sheet_index_before_later_dangling_key",
        "unknown_components_lower_index_first",
        "unknown_components_first_of_pair",
        "unknown_component_before_declared_count",
    ],
)
def test_constructor_rejection_messages(build, message):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


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


def test_duplicate_ids_are_counted_once():
    # 40 000 components (and crossings), each id twice.  Counting each id's
    # repeats with list.count is quadratic, tens of seconds at this size.
    ids = [f"D{k:05d}" for k in range(20_000)]
    comps = [BranchComponent(id=i, genus=0, self_int=0, KX_dot=-2, fiber_deg=0) for i in ids]
    start = time.perf_counter()
    with pytest.raises(InvalidInputError) as info:
        BaseGeometry(
            genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0, components=comps * 2, crossings=()
        )
    assert str(info.value) == f"duplicate component ids: {ids}"
    crossings = [Crossing(index=k, pair=("D00000", "D00001")) for k in range(20_000)]
    with pytest.raises(InvalidInputError) as info:
        BaseGeometry(
            genus_C=0, KX_sq=0, euler_X=0, KX_dot_F=0, components=comps, crossings=crossings * 2
        )
    assert str(info.value) == f"duplicate crossing indices: {list(range(20_000))}"
    assert time.perf_counter() - start < 5


def test_check_references_errors():
    base, cover = power_map_cover(1, 1)
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


@pytest.mark.parametrize("size", [0, 1, 3])
def test_each_point_list_is_kept_in_canonical_order(size):
    # A list of fewer than two points is kept as given; a longer one is
    # sorted by (j, jp, repr(local)).  Either way a list that two crossings
    # share stays one tuple.
    lattices = [LatticeSubgroup((1, 0), (0, 1)), LatticeSubgroup((2, 0), (1, 1))]
    given = tuple(
        PointAbove(j=j, jp=0, local=local)
        for j, local in [(1, lattices[0]), (0, lattices[1]), (0, lattices[0])][:size]
    )
    cover = CoverDescription(degree=1, ramification=(), points_above=((7, given), (2, given)))
    ordered = cover.points_for(2)
    assert ordered == tuple(sorted(given, key=lambda p: (p.j, p.jp, repr(p.local))))
    assert cover.points_for(7) is ordered
    if size < 2:
        assert ordered is given
    else:
        assert [(p.j, p.local) for p in ordered] == [
            (0, lattices[0]), (0, lattices[1]), (1, lattices[0])
        ]


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
