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

import dataclasses
import json
import pathlib
from fractions import Fraction

import mpmath
import pytest

from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover, identity_cover, power_map_cover, square_base
from ramcov.invariants import (
    HEIGHT_LOG_PRECISION,
    BoundCertificate,
    BoundTerm,
    FibrationInputs,
    InvariantReport,
    arakelov_degree_bound,
    deg_det,
    degree_linear_certificate,
    examine,
    height_log_decimal,
    invariant_report,
    linear_coefficient,
    plane_model_height_log,
    plane_model_terms,
)
from ramcov.hj import SingularityType, resolve
from ramcov.loader import load_cover_path, parse_cover_json
from ramcov.local_cover import LatticeSubgroup, LocalCoverType, local_type
from ramcov.model import CoverDescription, PointAbove, validate

CYCLIC_5 = pathlib.Path(__file__).resolve().parents[1] / "demos" / "covers" / "cyclic_5_1_4_2_3.json"


def quadric_dot(u, v):
    """Intersection form of the quadric in ruling coordinates."""
    return u[0] * v[1] + u[1] * v[0]


def terms_by_name(base, cover):
    return {t.name: t for t in degree_linear_certificate(base, cover).terms}


# ------------------------------------------------------------ branch divisor


def test_branch_divisor_examples():
    report = invariant_report(*identity_cover())
    assert dict(report.B_mult) == {"D1": 0, "D2": 0, "D3": 0, "D4": 0}
    report = invariant_report(*double_cover())
    assert dict(report.B_mult) == {"D1": 1, "D2": 1, "D3": 1, "D4": 1}
    report = invariant_report(*power_map_cover(3, 2))
    assert dict(report.B_mult) == {"D1": 4, "D2": 4, "D3": 3, "D4": 3}


# -------------------------------------------------------------------- (R,R)


def test_rr_examples():
    assert invariant_report(*identity_cover()).RR == 0
    by_name = terms_by_name(*double_cover())
    for cid in ("D1", "D2", "D3", "D4"):
        assert by_name[f"rr_diagonal_factor[{cid}]"].value == Fraction(1, 2)
    for idx in range(4):
        # the receipt counts both orientations of the unordered 1/2
        assert by_name[f"rr_cross[crossing {idx}]"].value == 2 * Fraction(1, 2)
    assert invariant_report(*double_cover()).RR == 4
    assert invariant_report(*power_map_cover(2, 1)).RR == 0


@pytest.mark.parametrize(
    "builder", [identity_cover, double_cover, lambda: power_map_cover(3, 4)]
)
def test_rr_cross_counts_both_orientations(builder):
    base, cover = builder()
    cross_terms = [
        t.value for t in degree_linear_certificate(base, cover).terms
        if t.name.startswith("rr_cross[")
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
    report = invariant_report(*identity_cover())
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
    report = invariant_report(*identity_cover())
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
    assert deg_det(*identity_cover()) == 0
    assert deg_det(*double_cover()) == 0


def test_deg_det_power_family_exact():
    for a in range(1, 7):
        for b in range(1, 7):
            assert deg_det(*power_map_cover(a, b)) == 1 - a, (a, b)


def test_deg_det_linear_growth_profile():
    # Fixing a fixes the value outright; along the diagonal family the
    # ratio |deg_det| / degree = (a - 1) / a^2 decreases, comfortably
    # inside any linear envelope.
    values_fixed_a = {deg_det(*power_map_cover(4, b)) for b in range(1, 8)}
    assert values_fixed_a == {-3}
    ratios = [
        Fraction(abs(deg_det(*power_map_cover(a, a))), a * a) for a in range(2, 8)
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
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    assert InvariantReport(**fields) == report
    for name in ("KYprime_sq", "euler_Yprime", "chi", "deg_det"):
        with pytest.raises(TypeError, match=name):
            InvariantReport(**fields, **{name: getattr(report, name) + 1})


def test_invariants_raise_on_bad_local_type():
    base, cover = double_cover()
    bad_pt = (PointAbove(j=0, jp=0, local=LocalCoverType(n=4, q=2, m1=1, m2=1)),)
    pts = tuple((idx, bad_pt if idx == 0 else points) for idx, points in cover.points_above)
    bad = CoverDescription(degree=2, ramification=cover.ramification, points_above=pts)
    with pytest.raises(InvalidInputError, match="invalid local type"):
        invariant_report(base, bad)
    with pytest.raises(InvalidInputError, match="invalid local type"):
        degree_linear_certificate(base, bad)


@pytest.mark.parametrize("j,jp", [(3, 0), (0, 1)], ids=["j", "jp"])
def test_invariants_raise_on_out_of_range_sheet_index(j, jp):
    base, cover = double_cover()
    # Every line of the double cover has one sheet, so only index 0 exists.
    (_, (node,)), *rest = cover.points_above
    bad_pt = (PointAbove(j=j, jp=jp, local=node.local),)
    bad = CoverDescription(
        degree=2, ramification=cover.ramification, points_above=((0, bad_pt), *rest)
    )
    message = rf"crossing 0: point sheet index out of range: \(j, jp\) = \({j}, {jp}\)"
    with pytest.raises(InvalidInputError, match=message):
        invariant_report(base, bad)
    with pytest.raises(InvalidInputError, match=message):
        degree_linear_certificate(base, bad)


def _double_cover_with(points_over: dict):
    """The double cover with the points over some crossings replaced."""
    base, cover = double_cover()
    pts = tuple((idx, points_over.get(idx, points)) for idx, points in cover.points_above)
    return base, CoverDescription(degree=2, ramification=cover.ramification, points_above=pts)


_NOT_COPRIME = (PointAbove(j=0, jp=0, local=LocalCoverType(n=4, q=2, m1=1, m2=1)),)
_JP_OUT_OF_RANGE = (PointAbove(j=0, jp=1, local=LatticeSubgroup((2, 0), (1, 1))),)


@pytest.mark.parametrize(
    "at_0,at_3,message",
    [
        (_NOT_COPRIME, _JP_OUT_OF_RANGE, r"crossing 0: invalid local type: n and q must be coprime"),
        (_JP_OUT_OF_RANGE, _NOT_COPRIME, r"crossing 0: point sheet index out of range: \(j, jp\) = \(0, 1\)"),
    ],
    ids=["invalid-type-first", "index-first"],
)
def test_certificate_names_the_first_failing_point(at_0, at_3, message):
    base, cover = _double_cover_with({0: at_0, 3: at_3})
    with pytest.raises(InvalidInputError, match=f"^{message}"):
        degree_linear_certificate(base, cover)


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
    by_name = terms_by_name(base, cover)
    for idx in range(4):
        # A_{5,2} and A_{5,3}: chains [3, 2] and [2, 3]
        assert by_name[f"correction[crossing {idx}]"].value == Fraction(-2, 5)
        assert by_name[f"exceptional_s[crossing {idx}]"].value == 2


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
        for name in ("shuffled.json", "both_orientations.json")
    ),
    ("mixed points", _mixed_points_document),
]


@pytest.mark.parametrize("load", [c[1] for c in _TOTALS_CASES], ids=[c[0] for c in _TOTALS_CASES])
def test_totals_and_receipts_recomputed_point_by_point(load):
    # Plain Fraction sums over the model, one point at a time: each point is
    # classified with local_type and resolved with resolve, as the paper's
    # formulas read, and nothing is shared with the walk.
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

    cert = degree_linear_certificate(base, cover)
    assert (cert.report.RR, cert.report.correction_total, cert.report.exceptional_s) == (
        rr, correction_total, s_total
    )
    got = {t.name: (t.value, t.bound) for t in cert.terms if t.name in receipts}
    assert got == receipts
    for t in cert.terms:
        assert type(t.value) is Fraction and type(t.bound) is Fraction, t.name


# -------------------------------------------------------------- certificates


def test_linear_coefficient_of_square_base():
    assert linear_coefficient(square_base()) == 6


def test_certificate_double_cover_receipts():
    cert = degree_linear_certificate(*double_cover())
    assert cert.satisfied
    assert cert.deg_det_within_linear
    assert cert.deg_det_within_fibration is None
    assert cert.linear_coefficient == 6 and cert.degree == 2
    by_name = {t.name: t for t in cert.terms}
    for cid in ("D1", "D2", "D3", "D4"):
        assert by_name[f"branch_mult[{cid}]"].value == 1
        assert by_name[f"rr_diagonal_factor[{cid}]"].value == Fraction(1, 2)
    for idx in range(4):
        assert by_name[f"rr_cross[crossing {idx}]"].value == 1
        assert by_name[f"rr_cross[crossing {idx}]"].bound == 4
        assert by_name[f"correction[crossing {idx}]"].value == 0
        assert by_name[f"exceptional_s[crossing {idx}]"].value == 1
    assert by_name["deg_det_vs_linear"].value == 0
    assert by_name["deg_det_vs_linear"].bound == 12
    assert all(t.ok for t in cert.terms)


def test_certificate_with_fibration_inputs():
    fib = FibrationInputs(gF=0, Dhor_dot_F=2, gC=0, nDC=2, nS=0)
    cert = degree_linear_certificate(*double_cover(), fibration=fib)
    assert cert.fibration_bound == 9
    assert cert.deg_det_within_fibration is True
    names = [t.name for t in cert.terms]
    assert names[-1] == "deg_det_vs_fibration"
    assert cert.satisfied


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_certificate_power_family(a, b):
    cert = degree_linear_certificate(*power_map_cover(a, b))
    assert cert.satisfied
    assert cert.deg_det_within_linear
    assert abs(cert.deg_det) <= cert.linear_coefficient * cert.degree


def test_bound_term_and_certificate_failure_logic():
    bad = BoundTerm(name="x", value=Fraction(3), bound=Fraction(2), per_degree=Fraction(1))
    good = BoundTerm(name="y", value=Fraction(-2), bound=Fraction(2), per_degree=Fraction(1))
    assert not bad.ok and good.ok
    report = invariant_report(*double_cover())
    report = dataclasses.replace(report, fibration_term=Fraction(3) - report.chi)
    cert = BoundCertificate(
        terms=(good, bad),
        linear_coefficient=Fraction(1),
        degree=1,
        report=report,
        fibration_inputs=None,
        fibration_bound=None,
    )
    assert not cert.satisfied
    assert not cert.deg_det_within_linear
    # the certificate's deg_det is its report's, so the two cannot disagree
    assert cert.deg_det == 3
    with pytest.raises(TypeError, match="deg_det"):
        BoundCertificate(
            terms=(good,),
            linear_coefficient=Fraction(1),
            degree=1,
            deg_det=report.deg_det + 1,
            fibration_inputs=None,
            fibration_bound=None,
            report=report,
        )


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
    got = plane_model_height_log(d, nB, h)
    mpmath.mp.dps = 60
    want = mpmath.log(h + 1) + coeff * mpmath.log(argument)
    assert abs(float(got) - float(want)) <= 1e-12 * float(want)


def test_height_log_with_rational_height():
    got = plane_model_height_log(2, 1, Fraction(3, 2))
    mpmath.mp.dps = 60
    want = mpmath.log(mpmath.mpf(5) / 2) + 44 * mpmath.log(8)
    assert abs(float(got) - float(want)) <= 1e-12
    assert plane_model_height_log(2, 1, Fraction(3, 2)) == got  # deterministic


def test_height_log_decimal_agrees_with_fraction_snapshot():
    dec = height_log_decimal(3, 2, 1)
    frac = plane_model_height_log(3, 2, 1)
    assert frac == Fraction(dec)
    assert HEIGHT_LOG_PRECISION == 50


def test_height_log_rejections():
    with pytest.raises(InvalidInputError):
        plane_model_height_log(1, 1)
    with pytest.raises(InvalidInputError):
        plane_model_height_log(2, 0)
    with pytest.raises(InvalidInputError):
        plane_model_height_log(2, 1, -1)
    with pytest.raises(InvalidInputError):
        plane_model_height_log(True, 1)
    for d, nB in ((1, 1), (2, 0), (2.0, 1), (2, False)):
        with pytest.raises(InvalidInputError):
            plane_model_terms(d, nB)
