"""Invariant chain, certificates, and the closed-form degree bounds.

Frozen oracles used here, all independent of the code under test:

* double cover of the quadric branched on the 4-line square: classical
  double-cover formulas for K^2, chi, and the Euler number via the branch
  curve, written out inline with the quadric intersection form;
* power maps (u, v) -> (u^a, v^b): pushing the structure sheaf down a
  one-variable power map splits off a trivial summand plus a - 1 line
  bundles of degree -1, so the determinant degree is 1 - a, independent
  of b, and the cover is again a quadric (K^2 = 8, e_c = 4);
* the Z/5 cover of the quadric branched on the square with weights
  (1, 4, 2, 3): its local lattices are kernels of the weight maps, checked
  here, and chi is the Esnault-Viehweg sum over its eigensheaves;
* the semistable fibration bound and the plane-model height bound have
  closed forms evaluated here with mpmath at high precision.
"""

import copy
import inspect
import itertools
import json
import math
import pathlib
import pickle
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramcov import invariants
from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover, power_map_cover, square_base
from ramcov.invariants import (
    HEIGHT_LOG_PRECISION,
    BoundCertificate,
    FibrationInputs,
    InvariantReport,
    Receipts,
    arakelov_degree_bound,
    degree_linear_certificate,
    examine,
    height_log_decimal,
    invariant_report,
    linear_coefficient,
    plane_model_terms,
)
from ramcov.hj import SingularityType, resolve
from ramcov.loader import load_cover_path, parse_cover_json
from ramcov.local_cover import LatticeSubgroup, LocalCoverType, local_type
from ramcov.model import (
    BaseGeometry, BranchComponent, CoverDescription, Crossing, PointAbove, RamSheet,
    check_references, derived_euler_data, validate,
)
from ramcov.report import ReportDocument, dumps_document
from rebuild import replace
from report_reference import reference_receipts, reference_report
from ruled_documents import ruled_cover, ruled_weights
from twins import twin

CYCLIC_5 = pathlib.Path(__file__).resolve().parents[1] / "demos" / "covers" / "cyclic_5_1_4_2_3.json"


def quadric_dot(u, v):
    """Intersection form of the quadric in ruling coordinates."""
    return u[0] * v[1] + u[1] * v[0]


def values_by_name(base, cover):
    return {name: value for name, value, *_ in degree_linear_certificate(base, cover).receipts}


# ------------------------------------------------------------ branch divisor


def test_branch_divisor_examples():
    report = invariant_report(*power_map_cover(1, 1))
    assert dict(report.B_mult) == {"D1": 0, "D2": 0, "D3": 0, "D4": 0}
    report = invariant_report(*double_cover())
    assert dict(report.B_mult) == {"D1": 1, "D2": 1, "D3": 1, "D4": 1}
    report = invariant_report(*power_map_cover(3, 2))
    assert dict(report.B_mult) == {"D1": 4, "D2": 4, "D3": 3, "D4": 3}


# -------------------------------------------------------------------- (R,R)


def test_rr_examples():
    assert invariant_report(*power_map_cover(1, 1)).RR == 0
    by_name = values_by_name(*double_cover())
    for cid in ("D1", "D2", "D3", "D4"):
        assert by_name[f"rr_diagonal_factor[{cid}]"] == Fraction(1, 2)
    for idx in range(4):
        # the receipt counts both orientations of the unordered 1/2
        assert by_name[f"rr_cross[crossing {idx}]"] == 2 * Fraction(1, 2)
    assert invariant_report(*double_cover()).RR == 4
    assert invariant_report(*power_map_cover(2, 1)).RR == 0


@pytest.mark.parametrize(
    "builder", [lambda: power_map_cover(1, 1), double_cover, lambda: power_map_cover(3, 4)]
)
def test_rr_cross_counts_both_orientations(builder):
    base, cover = builder()
    cross_terms = [
        value for name, value, *_ in degree_linear_certificate(base, cover).receipts
        if name.startswith("rr_cross[")
    ]
    assert len(cross_terms) == len(base.crossings)
    ordered_total = Fraction(0)
    for crossing in base.crossings:
        first = cover.sheets_for(crossing.pair[0])
        second = cover.sheets_for(crossing.pair[1])
        for pt in cover.points_for(crossing.index):
            lt = pt.local_cover_type()
            term = Fraction((first[pt.j].e - 1) * (second[pt.jp].e - 1), lt.n)
            ordered_total += term + term  # once per orientation of the pair
    assert ordered_total == sum(cross_terms, Fraction(0))


# ----------------------------------------------------------------- K^2 chain


def test_k2_chain_identity():
    report = invariant_report(*power_map_cover(1, 1))
    assert (report.KY_sq, report.correction_total, report.KYprime_sq) == (8, 0, 8)


def test_k2_chain_double_cover_against_classical_formula():
    report = invariant_report(*double_cover())
    ky_sq, correction, kyprime_sq = report.KY_sq, report.correction_total, report.KYprime_sq
    # Branch curve class: two lines from each ruling, so B/2 = (1, 1) and
    # K_X = (-2, -2); the four nodes are du Val, so resolving them keeps
    # K^2 at the double-cover value 2 (K_X + B/2)^2.
    k_plus = (-2 + 1, -2 + 1)
    assert kyprime_sq == 2 * quadric_dot(k_plus, k_plus) == 4
    assert ky_sq == 4
    assert correction == 0


@pytest.mark.parametrize("a", [1, 2, 3, 5])
@pytest.mark.parametrize("b", [1, 2, 4])
def test_k2_chain_power_maps_stay_quadric(a, b):
    report = invariant_report(*power_map_cover(a, b))
    ky_sq, correction, kyprime_sq = report.KY_sq, report.correction_total, report.KYprime_sq
    assert correction == 0
    assert ky_sq == kyprime_sq == 8


# --------------------------------------------------------------- Euler chain


def test_euler_chain_identity():
    report = invariant_report(*power_map_cover(1, 1))
    assert (report.euler_Y, report.exceptional_s, report.euler_Yprime) == (4, 0, 4)


def test_euler_chain_double_cover_against_branch_curve():
    base, cover = double_cover()
    report = invariant_report(base, cover)
    euler_y, s, euler_yprime = report.euler_Y, report.exceptional_s, report.euler_Yprime
    # e(Y) = 2 e(X) - e(B): the (singular) double cover doubles everything
    # off the branch curve, which it copies once.
    e_branch = sum(2 - 2 * c.genus for c in base.components) - len(base.crossings)
    assert euler_y == 2 * base.euler_X - e_branch == 4
    assert s == 4  # one exceptional curve per node
    assert euler_yprime == 8


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 4), (6, 1)])
def test_euler_chain_power_maps(a, b):
    report = invariant_report(*power_map_cover(a, b))
    assert (report.euler_Y, report.exceptional_s, report.euler_Yprime) == (4, 0, 4)


# ------------------------------------------------------------------- deg det


def test_deg_det_identity_and_double():
    assert invariant_report(*power_map_cover(1, 1)).deg_det == 0
    assert invariant_report(*double_cover()).deg_det == 0


def test_deg_det_power_family_exact():
    for a in range(1, 7):
        for b in range(1, 7):
            assert invariant_report(*power_map_cover(a, b)).deg_det == 1 - a, (a, b)


def test_deg_det_linear_growth_profile():
    # Fixing a fixes the value outright; along the diagonal family the
    # ratio |deg_det| / degree = (a - 1) / a^2 decreases, comfortably
    # inside any linear envelope.
    values_fixed_a = {invariant_report(*power_map_cover(4, b)).deg_det for b in range(1, 8)}
    assert values_fixed_a == {-3}
    ratios = [
        Fraction(abs(invariant_report(*power_map_cover(a, a)).deg_det), a * a)
        for a in range(2, 8)
    ]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


# ------------------------------------------------------------------- reports


def test_invariant_report_double_cover_fields():
    report = invariant_report(*double_cover())
    assert report.B_mult == (("D1", 1), ("D2", 1), ("D3", 1), ("D4", 1))
    assert report.KX_dot_B == -8
    assert report.B_dot_F == 2
    assert report.RR == 4
    assert (report.KY_sq, report.correction_total, report.KYprime_sq) == (4, 0, 4)
    assert (report.euler_Y, report.exceptional_s, report.euler_Yprime) == (4, 4, 8)
    assert report.chi == 1
    assert report.deg_det == 0
    assert report.chi_is_integral and report.deg_det_is_integral


def test_invariant_report_internal_identities_enforced():
    # K_{Y'}^2, e_c(Y'), chi and deg_det are derived from the stored fields,
    # so no report can disagree with its own identities: none of them can
    # be passed in.
    report = invariant_report(*load_cover_path(CYCLIC_5))
    assert (report.correction_total, report.exceptional_s) == (Fraction(-8, 5), 8)
    assert report.KYprime_sq == report.KY_sq + report.correction_total
    assert report.euler_Yprime == report.euler_Y + report.exceptional_s
    assert report.chi == (report.KYprime_sq + report.euler_Yprime) / 12
    assert report.deg_det == report.chi + report.fibration_term
    names = inspect.signature(InvariantReport).parameters
    fields = {name: getattr(report, name) for name in names}
    assert InvariantReport(**fields) == report
    for name in ("KYprime_sq", "euler_Yprime", "chi", "deg_det"):
        with pytest.raises(TypeError, match=name):
            InvariantReport(**fields, **{name: getattr(report, name) + 1})


def test_invariant_report_derives_its_four_values_once_and_only_its_fields_count():
    # The constructor works the four values out and keeps them, so each read
    # returns the one stored object; ==, the hash, the repr, copies and
    # pickles read the nine fields alone, and a copy derives its own.
    report = invariant_report(*load_cover_path(CYCLIC_5))
    derived = ("KYprime_sq", "euler_Yprime", "chi", "deg_det")
    values = [getattr(report, name) for name in derived]
    assert all(getattr(report, name) is value for name, value in zip(derived, values))
    assert (report.chi_is_integral, report.deg_det_is_integral) == (
        report.chi.denominator == 1, report.deg_det.denominator == 1
    )
    names = InvariantReport.__match_args__
    fields = tuple(getattr(report, name) for name in names)
    assert len(fields) == 9 and hash(report) == hash(fields)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
    assert repr(report) == f"InvariantReport({shown})"
    for twin in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert twin == report and hash(twin) == hash(report) and repr(twin) == repr(report)
        assert [getattr(twin, name) for name in derived] == values
    other = InvariantReport(**{**dict(zip(names, fields)), "KY_sq": report.KY_sq + 12})
    assert other != report and (other.chi, other.deg_det) == (report.chi + 1, report.deg_det + 1)


def test_invariants_raise_on_bad_local_type():
    base, cover = double_cover()
    bad_pt = (PointAbove(j=0, jp=0, local=LocalCoverType(n=4, q=2, m1=1, m2=1)),)
    pts = tuple((idx, bad_pt if idx == 0 else points) for idx, points in cover.points_above)
    bad = CoverDescription(degree=2, ramification=cover.ramification, points_above=pts)
    with pytest.raises(InvalidInputError, match="invalid local type"):
        invariant_report(base, bad)
    with pytest.raises(InvalidInputError, match="invalid local type"):
        degree_linear_certificate(base, bad)


class _Int(int):
    pass


def test_int_subclass_local_data_gives_the_plain_int_certificate():
    # Local data an int subclass carries passes V5; the walk then resolves
    # its quotient type as it would plain ints.
    base, cover = double_cover()

    def with_local(*nqm):
        pt = (PointAbove(j=0, jp=0, local=LocalCoverType(*nqm)),)
        points = tuple((idx, pt) for idx, _ in cover.points_above)
        return CoverDescription(degree=2, ramification=cover.ramification, points_above=points)

    subclassed = examine(base, with_local(_Int(2), _Int(1), _Int(1), 1), strict=True)
    plain = examine(base, with_local(2, 1, 1, 1), strict=True)
    assert subclassed == plain
    assert plain[0] == [] and plain[2] is None
    assert plain[1].receipts == degree_linear_certificate(base, cover).receipts


class _CountedSheets(tuple):
    """A sheet list that counts the passes made over it."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_examine_without_strict_does_no_work_per_sheet_and_crossing():
    # 40 and 4 000 crossings on a component with 10^6 unramified sheets, one
    # point each.  Without strict the walk is linear in the input: it passes
    # over the sheet list as often at 4 000 crossings as at 40, and allocates
    # less than one pointer per sheet, so neither a pass over the sheets nor a
    # list sized by the sheet count at any crossing fits.
    sheets = 10**6
    comps = tuple(BranchComponent(id=c, genus=0, self_int=0, KX_dot=-2, fiber_deg=0)
                  for c in ("D1", "D2"))
    point = (PointAbove(j=0, jp=0, local=LocalCoverType(n=1, q=0, m1=1, m2=1)),)
    d1 = _CountedSheets((RamSheet(e=1, f=1),) * sheets)
    passes = []
    for n in (40, 4000):
        base = BaseGeometry(genus_C=0, KX_sq=8, euler_X=4, KX_dot_F=-2, components=comps,
                            crossings=tuple(Crossing(index=i, pair=("D1", "D2")) for i in range(n)))
        cover = CoverDescription(
            degree=sheets,
            ramification=(("D1", d1), ("D2", (RamSheet(e=1, f=sheets),))),
            points_above=tuple((i, point) for i in range(n)),
        )
        d1.passes = 0
        tracemalloc.start()
        try:
            violations, certificate, error = examine(base, cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        passes.append(d1.passes)
        assert peak < 8 * sheets
        assert error is None and certificate.report.B_mult == (("D1", 0), ("D2", 0))
        assert {v.code for v in violations} == {"V2"} and len(violations) == n
    assert passes[0] == passes[1]


def _double_cover_with(points_over: dict):
    """The double cover with the points over some crossings replaced."""
    base, cover = double_cover()
    pts = tuple((idx, points_over.get(idx, points)) for idx, points in cover.points_above)
    return base, CoverDescription(degree=2, ramification=cover.ramification, points_above=pts)


_NOT_COPRIME = (PointAbove(j=0, jp=0, local=LocalCoverType(n=4, q=2, m1=1, m2=1)),)

_VIEWS = {
    "validate": validate,
    "validate-strict": lambda base, cover: validate(base, cover, strict=True),
    "degree_linear_certificate": degree_linear_certificate,
    "invariant_report": invariant_report,
    "examine": examine,
    "examine-strict": lambda base, cover: examine(base, cover, strict=True),
}


def _plant(base, cover, *, invalid_at=None, ram_key=None, points_key=None, index_faults=()):
    """``cover`` with reference faults planted, after an invalid raw local type.

    ``invalid_at`` names the crossing whose points become one point of a raw
    type that fails V5.  ``ram_key`` and ``points_key`` add a ramification
    key and a points_above key that name nothing in the base.  Each
    ``(crossing, field, past, extra)`` of ``index_faults`` sets ``field``
    ('j' or 'jp') of the crossing's first point to ``past`` beyond the last
    sheet of its component, on that point or, with ``extra``, on an added copy.
    """
    pairs = {x.index: x.pair for x in base.crossings}
    points = dict(cover.points_above)
    if invalid_at is not None:
        points[invalid_at] = _NOT_COPRIME
    for idx, field, past, extra in index_faults:
        cid = pairs[idx][field == "jp"]
        pt = points[idx][0]
        bad = replace(pt, **{field: len(cover.sheets_for(cid)) + past})
        points[idx] = (*points[idx], bad) if extra else (bad, *points[idx][1:])
    if points_key is not None:
        points[points_key] = cover.points_above[0][1]
    ramification = cover.ramification
    if ram_key is not None:
        ramification += ((ram_key, (RamSheet(e=1, f=cover.degree),)),)
    return CoverDescription(cover.degree, ramification, tuple(points.items()))


def _reference_error(base, cover):
    """The message check_references raises for the model, or None."""
    try:
        check_references(base, cover)
    except InvalidInputError as exc:
        return str(exc)
    return None


def _assert_every_view_raises(base, cover, message):
    for name, view in _VIEWS.items():
        with pytest.raises(InvalidInputError) as info:
            view(base, cover)
        assert str(info.value) == message, name


_J_0 = "crossing 0, point 0: sheet index j=1 out of range for component 'D1' (1 sheets)"
_JP_3 = "crossing 3, point 0: sheet index jp=1 out of range for component 'D4' (1 sheets)"


@pytest.mark.parametrize(
    "golden,planted,message",
    [
        (double_cover(), dict(ram_key="ZZ"), "ramification references unknown component 'ZZ'"),
        (double_cover(), dict(points_key=99), "points_above references unknown crossing 99"),
        (double_cover(), dict(points_key=-1), "points_above references unknown crossing -1"),
        (double_cover(), dict(index_faults=[(0, "j", 2, False)]),
         "crossing 0, point 0: sheet index j=3 out of range for component 'D1' (1 sheets)"),
        (double_cover(), dict(index_faults=[(3, "jp", 0, False)]), _JP_3),
        # An invalid local type at an earlier crossing does not hide a reference fault.
        (double_cover(), dict(invalid_at=0, index_faults=[(3, "jp", 0, False)]), _JP_3),
        (double_cover(), dict(invalid_at=3, index_faults=[(0, "j", 0, False)]), _J_0),
        (double_cover(), dict(invalid_at=0, ram_key="ZZ"),
         "ramification references unknown component 'ZZ'"),
        # Several faults: the ramification keys come first, then each crossing in index order.
        (double_cover(), dict(ram_key="ZZ", index_faults=[(0, "j", 0, False)]),
         "ramification references unknown component 'ZZ'"),
        (double_cover(), dict(invalid_at=1, points_key=99, index_faults=[(2, "j", 0, False)]),
         "crossing 2, point 0: sheet index j=1 out of range for component 'D2' (1 sheets)"),
        # The point is named in canonical order: the added copy sorts after the first.
        (power_map_cover(3, 2), dict(index_faults=[(1, "jp", 2, True)]),
         "crossing 1, point 1: sheet index jp=3 out of range for component 'D4' (1 sheets)"),
        # No reference fault: examine refuses the certificate and validate reports V5.
        (double_cover(), dict(invalid_at=2),
         "crossing 2: invalid local type: n and q must be coprime (got gcd(4, 2) = 2)"),
    ],
    ids=["ram-key", "points-key", "negative-points-key", "j", "jp", "invalid-type-first",
         "index-first", "invalid-type-and-ram-key", "ram-key-before-index",
         "index-before-points-key", "added-point", "invalid-type-alone"],
)
def test_check_references_judges_every_view(golden, planted, message):
    base, cover = golden
    bad = _plant(base, cover, **planted)
    if planted.keys() - {"invalid_at"}:
        assert _reference_error(base, bad) == message
        _assert_every_view_raises(base, bad, message)
        return
    assert _reference_error(base, bad) is None
    for strict in (False, True):
        found, certificate, error = examine(base, bad, strict=strict)
        assert (certificate, error) == (None, message)
        assert found == validate(base, bad, strict=strict)
        assert [v.message for v in found if v.code == "V5"] == [
            "crossing 2, point 0: n and q must be coprime (got gcd(4, 2) = 2)"
        ]
    for view in (degree_linear_certificate, invariant_report):
        with pytest.raises(InvalidInputError) as info:
            view(base, bad)
        assert str(info.value) == message


_INDEX_FAULT = st.tuples(
    st.integers(0, 3), st.sampled_from(["j", "jp"]), st.integers(0, 2), st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([power_map_cover(1, 1), double_cover()])
    | st.builds(power_map_cover, st.integers(1, 4), st.integers(1, 4)),
    st.none() | st.integers(0, 3),
    st.none() | st.sampled_from(["A0", "D0", "D9", "ZZ"]),
    st.none() | st.integers(-3, 200).filter(lambda idx: idx not in range(4)),
    st.lists(_INDEX_FAULT, max_size=3),
)
def test_every_view_raises_check_references_error(golden, invalid_at, ram_key, points_key,
                                                  index_faults):
    # One to five reference faults, in any mix, maybe after an invalid local type.
    assume(ram_key is not None or points_key is not None or index_faults)
    base, cover = golden
    bad = _plant(base, cover, invalid_at=invalid_at, ram_key=ram_key, points_key=points_key,
                 index_faults=index_faults)
    message = _reference_error(base, bad)
    assert message is not None
    _assert_every_view_raises(base, bad, message)


def test_walk_fails_loudly_if_check_references_passes_an_out_of_range_point(monkeypatch):
    # The walk leaves the range rule to check_references; were the two ever to
    # disagree, examine must not index past the sheets.
    import ramcov.invariants

    base, cover = double_cover()
    bad = _plant(base, cover, index_faults=[(0, "j", 0, False)])
    monkeypatch.setattr(ramcov.invariants, "check_references", lambda base, cover: None)
    with pytest.raises(AssertionError, match=r"^point 0: check_references passed"):
        examine(base, bad)


def test_examine_finds_every_invalid_type_and_names_the_first():
    q_zero = (PointAbove(j=0, jp=0, local=LocalCoverType(n=3, q=0, m1=1, m2=2)),)
    base, cover = _double_cover_with({1: _NOT_COPRIME, 2: q_zero})
    violations, certificate, error = examine(base, cover, strict=True)
    assert certificate is None
    assert error == "crossing 1: invalid local type: n and q must be coprime (got gcd(4, 2) = 2)"
    assert violations == validate(base, cover, strict=True)
    assert [v.message for v in violations if v.code == "V5"] == [
        "crossing 1, point 0: n and q must be coprime (got gcd(4, 2) = 2)",
        "crossing 2, point 0: n and q must be coprime (got gcd(3, 0) = 3)",
        "crossing 2, point 0: q = 0 forces n = 1 (got n=3)",
    ]


def test_certificate_carries_the_report_of_its_walk():
    for base, cover in (double_cover(), power_map_cover(3, 2), load_cover_path(CYCLIC_5)):
        cert = degree_linear_certificate(base, cover)
        assert cert.report == invariant_report(base, cover)
        assert cert.deg_det == cert.report.deg_det


def test_cyclic_5_golden_against_esnault_viehweg():
    n, weights = 5, {"D1": 1, "D2": 4, "D3": 2, "D4": 3}
    base, cover = load_cover_path(str(CYCLIC_5))
    for crossing in base.crossings:
        wi, wj = (weights[cid] for cid in crossing.pair)
        (pt,) = cover.points_for(crossing.index)
        assert pt.local.index == n
        for g in (pt.local.g1, pt.local.g2):
            assert (wi * g[0] + wj * g[1]) % n == 0
    # chi(O_Y) = sum_{i<n} chi(O(-L^(i))) with L^(i) of bidegree (p_i, q_i)
    # on P1 x P1, where chi(O(-p, -q)) = (1 - p)(1 - q).
    ev_chi = 0
    for i in range(n):
        p = i - sum(i * weights[cid] // n for cid in ("D1", "D2"))
        q = i - sum(i * weights[cid] // n for cid in ("D3", "D4"))
        ev_chi += (1 - p) * (1 - q)

    report = invariant_report(base, cover)
    assert report.chi == ev_chi == 1
    assert report.correction_total == Fraction(-8, 5)
    assert report.exceptional_s == 8
    assert report.KYprime_sq == 0
    by_name = values_by_name(base, cover)
    for idx in range(4):
        # A_{5,2} and A_{5,3}: chains [3, 2] and [2, 3]
        assert by_name[f"correction[crossing {idx}]"] == Fraction(-2, 5)
        assert by_name[f"exceptional_s[crossing {idx}]"] == 2


# ---------------------------------------------- totals recomputed per point

COVERS = CYCLIC_5.parent
DOCUMENTS = pathlib.Path(__file__).resolve().parent / "fixtures" / "documents"


def _mixed_points_document():
    """The double cover with several points of different orders over two crossings.

    Not a geometric cover (validation flags it), but well formed, so the
    invariant walk runs: its crossings mix smooth points and A_{2,1},
    A_{3,1}, A_{5,2}, A_{5,3}, so the totals add over several denominators.
    """
    doc = json.loads((COVERS / "bidouble.json").read_text())
    points = doc["cover"]["points_above"]
    points["0"] = [
        {"j": 0, "jp": 0, "local": [[2, 0], [1, 1]]},
        {"j": 0, "jp": 0, "local": [[1, 0], [0, 1]]},
        {"j": 0, "jp": 0, "local": {"n": 5, "q": 2, "m1": 1, "m2": 1}},
    ]
    points["1"] = [
        {"j": 0, "jp": 0, "local": [[3, 0], [1, 1]]},
        {"j": 0, "jp": 0, "local": {"n": 5, "q": 3, "m1": 1, "m2": 1}},
    ]
    return parse_cover_json(json.dumps(doc))


_TOTALS_CASES = [
    *(
        (path.name, lambda path=path: load_cover_path(str(path)))
        for path in sorted(COVERS.glob("*.json"))
    ),
    *(
        (name, lambda name=name: load_cover_path(str(DOCUMENTS / name)))
        for name in (
            "shuffled.json", "both_orientations.json", "grid_4.json", "repeated_points.json",
            "many_sheets.json", "failing_receipts.json",
        )
    ),
    ("mixed points", _mixed_points_document),
]


@pytest.mark.parametrize("load", [c[1] for c in _TOTALS_CASES], ids=[c[0] for c in _TOTALS_CASES])
def test_totals_and_receipts_recomputed_point_by_point(load):
    # Plain Fraction sums over the model, one point at a time: each point is
    # classified with local_type and resolved with resolve, as the paper's
    # formulas read, and nothing is shared with the walk.  The walk answers
    # twice: on the model as loaded, and on its twin, which shares no tuple,
    # point or local and so computes every crossing's shape.
    base, cover = load()
    d = cover.degree
    rr = Fraction(0)
    for comp in base.components:
        for sheet in cover.sheets_for(comp.id):
            rr += comp.self_int * Fraction((sheet.e - 1) ** 2 * sheet.f, sheet.e)
    correction_total, s_total = Fraction(0), 0
    receipts = {}
    for crossing in base.crossings:
        first = cover.sheets_for(crossing.pair[0])
        second = cover.sheets_for(crossing.pair[1])
        points = cover.points_for(crossing.index)
        cross, correction, s = Fraction(0), Fraction(0), 0
        for pt in points:
            lt = local_type(pt.local) if isinstance(pt.local, LatticeSubgroup) else pt.local
            cross += 2 * Fraction((first[pt.j].e - 1) * (second[pt.jp].e - 1), lt.n)
            if lt.n > 1:
                rd = resolve(SingularityType(lt.n, lt.q))
                correction += rd.correction
                s += len(rd.chain.b)
        rr += cross
        correction_total += correction
        s_total += s
        receipts[f"rr_cross[crossing {crossing.index}]"] = (cross, 2 * d)
        receipts[f"correction[crossing {crossing.index}]"] = (correction, max(d, 2 * len(points)))
        receipts[f"exceptional_s[crossing {crossing.index}]"] = (s, d)

    def check(model):
        cert = degree_linear_certificate(base, model)
        assert (cert.report.RR, cert.report.correction_total, cert.report.exceptional_s) == (
            rr, correction_total, s_total
        )
        got = {name: (value, bound) for name, value, bound, *_ in cert.receipts if name in receipts}
        assert got == receipts

    check(cover)
    check(twin(cover))


# ------------------------------------------- fibres alone on E x P1, closed form


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_fibres_alone_on_an_elliptic_ruled_surface_match_their_closed_form(r, n):
    # A Z/n cover with unit weights w_i on r fibres of E x P1 needs sum w_i = 0
    # mod n, which has a solution exactly when r(n - 1) is even.  Fibres do not
    # meet, so the cover has no crossing: it is pulled back from P1.  Its height
    # is then -r(n - 1)/2 and the linear coefficient 2r/3, so |deg_det|/(c d)
    # tends to 3/4: the slack of the linear bound, in closed form (g_C = 1).
    units = [w for w in range(1, n) if math.gcd(w, n) == 1]
    weights = next((ws for ws in itertools.product(units, repeat=r) if sum(ws) % n == 0), None)
    assert (weights is not None) == (r * (n - 1) % 2 == 0)
    if weights is None:
        return
    base, cover = ruled_cover(1, n, weights, [])
    violations, certificate, error = examine(base, cover, strict=True)
    assert (violations, error) == ([], None) and certificate.satisfied
    assert certificate.deg_det == Fraction(-r * (n - 1), 2)
    assert certificate.deg_det.denominator == 1
    assert linear_coefficient(base) == certificate.linear_coefficient == Fraction(2 * r, 3)


# -------------------------------------------------------------- certificates


def test_linear_coefficient_of_square_base():
    assert linear_coefficient(square_base()) == 6


def test_certificate_double_cover_receipts():
    cert = degree_linear_certificate(*double_cover())
    assert cert.satisfied
    assert cert.deg_det_within_linear
    assert cert.deg_det_within_fibration is None
    assert cert.linear_coefficient == 6 and cert.degree == 2
    by_name = {name: (value, bound) for name, value, bound, *_ in cert.receipts}
    for cid in ("D1", "D2", "D3", "D4"):
        assert by_name[f"branch_mult[{cid}]"][0] == 1
        assert by_name[f"rr_diagonal_factor[{cid}]"][0] == Fraction(1, 2)
    for idx in range(4):
        assert by_name[f"rr_cross[crossing {idx}]"] == (1, 4)
        assert by_name[f"correction[crossing {idx}]"][0] == 0
        assert by_name[f"exceptional_s[crossing {idx}]"][0] == 1
    assert by_name["deg_det_vs_linear"] == (0, 12)
    assert all(ok for *_, ok in cert.receipts)


def test_certificate_with_fibration_inputs():
    fib = FibrationInputs(gF=0, Dhor_dot_F=2, gC=0, nDC=2, nS=0)
    cert = degree_linear_certificate(*double_cover(), fibration=fib)
    assert cert.fibration_bound == 9
    assert cert.deg_det_within_fibration is True
    assert [name for name, *_ in tuple(cert.receipts)[-2:]] == [
        "deg_det_vs_linear", "deg_det_vs_fibration"
    ]
    assert cert.satisfied


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_certificate_power_family(a, b):
    cert = degree_linear_certificate(*power_map_cover(a, b))
    assert cert.satisfied
    assert cert.deg_det_within_linear
    assert abs(cert.deg_det) <= cert.linear_coefficient * cert.degree


def test_a_hand_built_certificate_reads_its_verdicts_by_position():
    base, cover = double_cover()
    fields = dict(
        degree=1,
        report=invariant_report(base, cover),
    )
    one = Fraction(1)
    head = (("x", 1, 2, one, True),)
    linear = ("deg_det_vs_linear", 3, 2, one, False)
    receipts = Receipts(head, [], [], (), (linear,))
    cert = BoundCertificate(receipts=receipts, fibration_inputs=None, **fields)
    assert cert.deg_det_within_linear is False and not cert.satisfied
    assert (cert.deg_det_within_fibration, cert.fibration_bound) == (None, None)
    assert cert.linear_row is linear and cert.linear_coefficient is one
    assert tuple(cert.receipts) == (*head, linear)
    fib = FibrationInputs(0, 2, 0, 2, 0)
    fibration = ("deg_det_vs_fibration", 3, 9, one, True)
    cert = BoundCertificate(
        receipts=Receipts(head, [], [], (), (linear, fibration)), fibration_inputs=fib, **fields,
    )
    assert (cert.deg_det_within_linear, cert.deg_det_within_fibration) == (False, True)
    assert cert.fibration_bound == 9
    assert cert.linear_row is linear
    text = ReportDocument(False, base, cover, (), cert, None).to_text()
    assert "|deg_det| <= c*d = 2: VIOLATED" in text
    # a failing head row alone fails the certificate, however its tail reads
    passing = ("deg_det_vs_linear", 1, 2, one, True)
    cert = BoundCertificate(
        receipts=Receipts((("x", 3, 2, one, False),), [], [], (), (passing,)),
        fibration_inputs=None, **fields,
    )
    assert cert.deg_det_within_linear and not cert.satisfied
    # the certificate's deg_det is its report's, and its coefficient and
    # fibration bound are its rows', so none of them can disagree; it keeps
    # no copy of the base's Euler data, which derived_euler_data reads
    assert cert.deg_det == fields["report"].deg_det
    for name, value in (("deg_det", cert.deg_det + 1), ("linear_coefficient", one),
                        ("fibration_bound", Fraction(9)),
                        ("derived_base", derived_euler_data(base))):
        with pytest.raises(TypeError, match=name):
            BoundCertificate(receipts=receipts, fibration_inputs=None, **fields, **{name: value})
    assert list(inspect.signature(BoundCertificate).parameters) == [
        "receipts", "degree", "report", "fibration_inputs"
    ]


def test_receipts_come_in_report_order_with_their_verdicts():
    # A document whose receipts fail over D1 and over crossings 0 and 1.
    base, cover = load_cover_path(str(DOCUMENTS / "failing_receipts.json"))
    cert = degree_linear_certificate(base, cover)
    d = cert.degree
    ids = [c.id for c in base.components]
    assert [name for name, *_ in cert.receipts] == [
        *(f"branch_mult[{i}]" for i in ids),
        *(f"rr_diagonal_factor[{i}]" for i in ids),
        *(f"{kind}[crossing {x.index}]"
          for x in base.crossings for kind in ("rr_cross", "correction", "exceptional_s")),
        "deg_det_vs_linear",
    ]
    rows = {name: row for name, *row in cert.receipts}
    for x in base.crossings:
        at = f"crossing {x.index}"
        bound = max(d, 2 * len(cover.points_for(x.index)))
        assert rows[f"rr_cross[{at}]"][1:3] == [2 * d, 2]
        assert rows[f"correction[{at}]"][1:3] == [bound, 2]
        assert rows[f"exceptional_s[{at}]"][1:3] == [d, 1]
    failing = [name for name, *_, ok in cert.receipts if not ok]
    assert failing == [
        "branch_mult[D1]", "rr_diagonal_factor[D1]", "rr_cross[crossing 0]",
        "exceptional_s[crossing 0]", "rr_cross[crossing 1]",
    ]
    assert rows["rr_cross[crossing 0]"][0] == Fraction(21, 5)  # 3 + 6/5, over n = 2 and n = 5
    assert not cert.satisfied


def _certified(path) -> bool:
    """Whether the document at ``path`` loads and its walk gives a certificate."""
    try:
        return examine(*load_cover_path(str(path)))[1] is not None
    except ValueError:  # InvalidInputError or InputFormatError
        return False


_SHIPPED = [
    path
    for path in sorted([*COVERS.glob("*.json"), *COVERS.glob("malformed/*.json"),
                        *DOCUMENTS.glob("*.json")])
    if _certified(path)
]
_CERTIFIED = [
    ("identity", lambda: power_map_cover(1, 1)),
    ("double", double_cover),
    *((f"power_{a}_{b}", lambda a=a, b=b: power_map_cover(a, b)) for a, b in ((2, 3), (5, 4))),
    *((f"{p.parent.name}/{p.name}", lambda p=p: load_cover_path(str(p))) for p in _SHIPPED),
]


@pytest.mark.parametrize("fibration", [None, FibrationInputs(0, 2, 0, 2, 0)], ids=["", "fib"])
@pytest.mark.parametrize("load", [c[1] for c in _CERTIFIED], ids=[c[0] for c in _CERTIFIED])
def test_every_verdict_is_its_value_within_its_bound(load, fibration):
    # The walk decides each verdict once, through its own cross-multiplied
    # comparison; here each is decided again with Fraction's abs and <=.
    cert = degree_linear_certificate(*load(), fibration)
    for name, value, bound, _, ok in cert.receipts:
        assert ok is (abs(Fraction(value)) <= Fraction(bound)), name
    assert cert.satisfied == all(ok for *_, ok in cert.receipts)


def _twelve_c_summed(base, cert) -> Fraction:
    """12 c, summed from the per-degree factor ``p`` of each of ``cert``'s own rows."""
    p = {name: per_degree for name, _, _, per_degree, _ in cert.receipts}
    euler = derived_euler_data(base)
    fib = Fraction(abs(1 - base.genus_C), 2) * (
        abs(base.KX_dot_F) + sum(c.fiber_deg * p[f"branch_mult[{c.id}]"] for c in base.components)
    )
    return 12 * fib + abs(base.KX_sq) + sum(
        2 * abs(c.KX_dot) * p[f"branch_mult[{c.id}]"]
        + abs(c.self_int) * p[f"rr_diagonal_factor[{c.id}]"]
        for c in base.components
    ) + sum(
        p[f"rr_cross[crossing {k}]"] + p[f"correction[crossing {k}]"]
        + p[f"exceptional_s[crossing {k}]"] + 1
        for k in (x.index for x in base.crossings)
    ) + abs(euler.e_c_U) + sum(abs(e_c) for _, e_c in euler.open_components)


# c is the receipts' per-degree factors summed, each weighted by the base
# number its row bounds; a change to one term of c must keep this relation.
@pytest.mark.parametrize("path", _SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_c_is_the_receipts_per_degree_factors_summed(path):
    base, cover = load_cover_path(str(path))
    cert = degree_linear_certificate(base, cover)
    assert 12 * cert.linear_coefficient == _twelve_c_summed(base, cert)


@settings(max_examples=40, deadline=None)
@given(ruled_weights())
def test_c_is_the_receipts_per_degree_factors_summed_on_ruled_covers(drawn):
    base, cover = ruled_cover(*drawn)
    cert = degree_linear_certificate(base, cover)
    assert 12 * cert.linear_coefficient == _twelve_c_summed(base, cert)


def _many_shapes():
    """A Z/n cover of P1 x P1 whose 1 296 crossings hold 1 223 distinct point lists.

    n = 10 007, a prime, on 36 fibres and 36 sections.  In each family 35
    unit weights are drawn (seed 5) and the last, which the builder checks is
    a unit, makes their sum 0 mod n.  The point over a crossing has a type
    fixed by the ratio of its two weights, so most crossings have their own.
    """
    n, rnd = 10_007, random.Random(5)
    drawn = [[rnd.randrange(1, n) for _ in range(35)] for _ in "FS"]
    weights = (ws + [-sum(ws) % n] for ws in drawn)
    base, cover = parse_cover_json(dumps_document(*ruled_cover(0, n, *weights)))
    assert len({id(points) for _, points in cover.points_above}) == 1223
    return base, cover


def _one_failing_crossing(local=LocalCoverType(5, 4, 1, 1)):
    """The identity cover with ``local`` over crossing 0; an A_4 point fails only its ``s``."""
    base, cover = power_map_cover(1, 1)
    point = PointAbove(0, 0, local)
    points_above = tuple(
        (idx, (point,) if idx == 0 else points) for idx, points in cover.points_above
    )
    return base, replace(cover, points_above=points_above)


_EV = FibrationInputs(1, 2, 0, 2, 3)
_CONTRACT = [
    *((f"{p.parent.name}/{p.name}", lambda p=p: load_cover_path(str(p))) for p in _SHIPPED),
    ("many_shapes", _many_shapes),
    ("one_failing_crossing", _one_failing_crossing),
    # a (101, 1) point: its correction -9801/101 fails against the bound 2
    ("one_failing_correction", lambda: _one_failing_crossing(LocalCoverType(101, 1, 1, 1))),
]


def _receipts_contract(base, cover, strict, fibration):
    violations, cert, error = examine(base, cover, fibration, strict=strict)
    assert error is None
    rows = reference_receipts(base, cover, cert)
    receipts = cert.receipts
    assert isinstance(receipts, invariants.Receipts)
    assert list(receipts) == list(rows)
    assert receipts == rows and rows == receipts and not receipts != rows
    assert hash(receipts) == hash(rows)
    # The verdicts read the reference rows by name.
    by_name = {row[0]: row for row in rows}
    linear = by_name["deg_det_vs_linear"]
    assert cert.linear_row == linear
    assert cert.satisfied == all(ok for *_, ok in rows)
    assert cert.deg_det_within_linear == linear[-1]
    assert cert.deg_det_within_fibration == (
        None if fibration is None else by_name["deg_det_vs_fibration"][-1]
    )
    # Both writers write the reference rows.
    doc = ReportDocument(strict, base, cover, tuple(violations), cert, None)
    reference = json.dumps(reference_report(doc), indent=2, sort_keys=True) + "\n"
    assert "".join(doc.to_json()) == reference
    lines = doc.to_text().splitlines()
    start = lines.index("linear bound certificate:") + 1
    assert lines[start:start + len(rows)] == [
        f"  {name}: |{value}| <= {bound}  {'ok' if ok else 'VIOLATED'}"
        for name, value, bound, _, ok in rows
    ]
    assert lines[start + len(rows)].endswith(
        f"|deg_det| <= c*d = {linear[2]}: {'ok' if linear[-1] else 'VIOLATED'}"
    )
    assert lines[start + len(rows) + 1] == f"  satisfied: {'yes' if cert.satisfied else 'no'}"


@pytest.mark.parametrize("fibration", [None, _EV], ids=["", "ev"])
@pytest.mark.parametrize("strict", [False, True], ids=["standard", "strict"])
@pytest.mark.parametrize("load", [c[1] for c in _CONTRACT], ids=[c[0] for c in _CONTRACT])
def test_receipts_by_shape_read_as_the_eager_rows(load, strict, fibration):
    # Receipts stored by crossing shape are, row for row, the tuple of rows
    # an eager walk builds: in every reading, in the certificate's verdicts
    # and in both reports' bytes.
    _receipts_contract(*load(), strict, fibration)


def test_receipts_compare_only_with_tuples_and_receipts():
    # Any other object is left to its own ``==``: a list of the same rows
    # is not equal, and an object that claims equality is asked.
    receipts = degree_linear_certificate(*double_cover()).receipts
    rows = list(receipts)
    assert receipts.__eq__(rows) is NotImplemented
    assert receipts != rows and not receipts == rows
    assert receipts.__eq__(None) is NotImplemented

    class Anything:
        def __eq__(self, other):
            return True

    assert receipts == Anything()


def test_a_failing_crossing_row_alone_fails_the_certificate():
    cert = examine(*_one_failing_crossing())[1]
    assert [name for name, *_, ok in cert.receipts if not ok] == ["exceptional_s[crossing 0]"]
    assert not cert.satisfied


def test_one_module_names_the_receipts():
    # The walk names every receipt; the writers read the names it gives.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "ramcov"
    prefixes = ("rr_cross[", "correction[", "exceptional_s[", "branch_mult[",
                "rr_diagonal_factor[", "deg_det_vs_", "[crossing ")
    homes = {
        prefix: [path.stem for path in sorted(package.glob("*.py")) if prefix in path.read_text()]
        for prefix in prefixes
    }
    assert homes == {prefix: ["invariants"] for prefix in prefixes}


# ------------------------------------------------------------ fibration bound


def test_arakelov_degree_bound_examples():
    assert arakelov_degree_bound(0, 0, 0, 0, 0, 1) == 0
    assert arakelov_degree_bound(0, 2, 0, 2, 0, 2) == 9
    assert arakelov_degree_bound(2, 4, 1, 3, 5, 7) == 280
    assert arakelov_degree_bound(1, 1, 1, 0, 0, 3) == Fraction(27, 4)
    assert isinstance(arakelov_degree_bound(0, 1, 0, 0, 0, 1), Fraction)


def test_arakelov_degree_bound_monotone_in_every_argument():
    grid = [(0, 0, 0, 0, 0, 1), (1, 2, 1, 1, 2, 3), (2, 3, 0, 2, 1, 5)]
    for args in grid:
        here = arakelov_degree_bound(*args)
        for pos in range(6):
            bumped = list(args)
            bumped[pos] += 1
            assert arakelov_degree_bound(*bumped) >= here, (args, pos)


def test_arakelov_degree_bound_rejections():
    with pytest.raises(InvalidInputError):
        arakelov_degree_bound(-1, 0, 0, 0, 0, 1)
    with pytest.raises(InvalidInputError):
        arakelov_degree_bound(0, 0, 0, 0, 0, 0)
    with pytest.raises(InvalidInputError):
        arakelov_degree_bound(0, 0, 0, 0, 0, -2)
    with pytest.raises(InvalidInputError):
        arakelov_degree_bound(True, 0, 0, 0, 0, 1)
    with pytest.raises(InvalidInputError):
        FibrationInputs(gF=0, Dhor_dot_F=0, gC=0, nDC=-1, nS=0)


# ---------------------------------------------------------------- height log


@pytest.mark.parametrize(
    "d,nB,h,coeff,argument",
    [
        (2, 1, 0, 44, 8),
        (2, 3, 0, 84, 24),
        (3, 1, 0, 81, 27),
        (4, 2, 0, 208, 128),
    ],
)
def test_height_log_closed_form(d, nB, h, coeff, argument):
    assert plane_model_terms(d, nB) == (coeff, argument)
    got = height_log_decimal(d, nB, h)
    mpmath.mp.dps = 60
    want = mpmath.log(h + 1) + coeff * mpmath.log(argument)
    assert abs(float(got) - float(want)) <= 1e-12 * float(want)


def test_height_log_with_rational_height():
    got = height_log_decimal(2, 1, Fraction(3, 2))
    mpmath.mp.dps = 60
    want = mpmath.log(mpmath.mpf(5) / 2) + 44 * mpmath.log(8)
    assert abs(float(got) - float(want)) <= 1e-12
    assert height_log_decimal(2, 1, Fraction(3, 2)) == got  # deterministic


def test_height_log_decimal_carries_its_pinned_precision():
    dec = height_log_decimal(3, 2, 1)
    assert HEIGHT_LOG_PRECISION == 50
    assert len(dec.as_tuple().digits) == HEIGHT_LOG_PRECISION


def test_height_log_rejections():
    with pytest.raises(InvalidInputError):
        height_log_decimal(1, 1)
    with pytest.raises(InvalidInputError):
        height_log_decimal(2, 0)
    with pytest.raises(InvalidInputError):
        height_log_decimal(2, 1, -1)
    with pytest.raises(InvalidInputError):
        height_log_decimal(True, 1)
    for d, nB in ((1, 1), (2, 0), (2.0, 1), (2, False)):
        with pytest.raises(InvalidInputError):
            plane_model_terms(d, nB)
