"""Numerical invariants of a resolved branched cover and its degree bounds.

Everything here comes from one walk over a base-plus-cover description,
made by :func:`examine`.  It passes once over the branch components, in id
order, and then once over the crossings, in index order.  Where it reads a
component's sheets or a point's local type it checks the coherence
identities V1 to V5 (see :mod:`ramcov.model`), and it emits each receipt of
the linear degree bound where its value is computed:

* per component, the branch multiplicity ``B_mult(i) = sum_j (e_ij - 1) f_ij``
  and the diagonal (R,R) factor ``sum_j (e_ij - 1)^2 f_ij / e_ij``;
* per crossing, from the local type of each point above it (classified
  once per walk, see :meth:`PointAbove.local_cover_type`), the ordered
  cross term ``2 sum_y (e_1(y) - 1)(e_2(y) - 1) / n_y`` of (R,R), the
  resolution correction and the exceptional curve count ``s`` of its
  quotient points.  Each distinct quotient type is resolved once per walk,
  in O(log n) steps by :func:`~ramcov.hj.resolution_numbers`.

The same values, with ``d_i = sum_j f_ij`` and the point counts, are added
into the totals of the chain

    branch divisor B  ->  (R,R)  ->  K_Y^2  ->  K_{Y'}^2
    Euler data        ->  e_c(Y) ->  e_c(Y')
    chi = (K_{Y'}^2 + e_c(Y'))/12
    deg_det = chi-part + fibration part

entirely in exact rational arithmetic, where Y is the cover compactified
over the branch configuration and Y' its minimal resolution along the
cyclic quotient points sitting over the crossings.  The final quantity is
the degree, on the base curve, of the determinant of cohomology of the
structure sheaf pushed down the fibration: a height-like measure of the
cover.

The walk's findings are :func:`~ramcov.model.validate`'s, and its
certificate, which carries the receipts so a failure localizes, is
:func:`degree_linear_certificate`'s; :func:`invariant_report` is the
certificate's report alone.  Beside them sit an Arakelov-type bound for
semistable fibrations and a logarithmic height bound for plane models, the
single place the package leaves exact arithmetic (flagged as such).
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import InvalidInputError
# resolve is not called here; it stays bound because perfbench/tracer.py
# wraps it under this module's name.
from .hj import SingularityType, resolution_numbers, resolve
from .model import BaseGeometry, CoverDescription, Violation, derived_euler_data

__all__ = [
    "InvariantReport",
    "BoundTerm",
    "BoundCertificate",
    "FibrationInputs",
    "deg_det",
    "invariant_report",
    "degree_linear_certificate",
    "examine",
    "linear_coefficient",
    "arakelov_degree_bound",
    "plane_model_terms",
    "plane_model_height_log",
    "height_log_decimal",
    "HEIGHT_LOG_PRECISION",
]


@dataclass(frozen=True)
class InvariantReport:
    """All invariants of one cover, with the per-term breakdown.

    ``KY_sq = d*K_X^2 + 2*(K_X . B) + (R,R)``, and resolving the quotient
    points adds ``correction_total``, the sum over singular points of
    ``sum_i a_i (b_i - 2)`` of their exceptional chains.  ``euler_Y``
    stratifies the base into the divisor complement (counted ``d`` times),
    the punctured components (``d_i`` times) and one point per listed
    point; resolution glues in ``exceptional_s`` rational curves.
    Riemann-Roch on the resolved cover, pushed to the base curve, gives

        deg_det = (1/12)(K_{Y'}^2 + e_c(Y')) + (1/2)(1 - g_C)(d*(K_X.F) + (B.F)),

    whose last summand is ``fibration_term``; ``KYprime_sq``, ``euler_Yprime``,
    ``chi`` and ``deg_det`` are derived.  Integrality of the last two is
    surfaced as flags because non-integrality signals geometrically
    inconsistent input, not an arithmetic error.
    """

    B_mult: tuple[tuple[str, int], ...]
    KX_dot_B: int
    B_dot_F: int
    RR: Fraction
    KY_sq: Fraction
    correction_total: Fraction
    euler_Y: int
    exceptional_s: int
    fibration_term: Fraction

    @cached_property
    def KYprime_sq(self) -> Fraction:
        return self.KY_sq + self.correction_total

    @cached_property
    def euler_Yprime(self) -> int:
        return self.euler_Y + self.exceptional_s

    @cached_property
    def chi(self) -> Fraction:
        return Fraction(self.KYprime_sq + self.euler_Yprime, 12)

    @cached_property
    def deg_det(self) -> Fraction:
        return self.chi + self.fibration_term

    @property
    def chi_is_integral(self) -> bool:
        return self.chi.denominator == 1

    @property
    def deg_det_is_integral(self) -> bool:
        return self.deg_det.denominator == 1


def invariant_report(base: BaseGeometry, cover: CoverDescription) -> InvariantReport:
    """The report of :func:`degree_linear_certificate`'s walk.

    It builds the whole certificate, receipts included, and returns only
    its report: a caller that needs the receipts too should ask for the
    certificate.
    """
    return degree_linear_certificate(base, cover).report


def deg_det(base: BaseGeometry, cover: CoverDescription) -> Fraction:
    """Degree of the determinant of cohomology on the base curve.

    The ``deg_det`` of :func:`invariant_report`; for geometrically
    consistent input it is an integer.  Like :func:`invariant_report`, it
    builds the whole certificate, receipts included.
    """
    return invariant_report(base, cover).deg_det


@dataclass(frozen=True)
class FibrationInputs:
    """Caller-asserted data for the semistable fibration bound.

    The hypotheses behind the bound (semistable fibration with connected
    fibres; branch divisor splits into an etale-over-C horizontal part and
    fibre components) cannot be checked from the numerical data, so they
    are asserted by whoever supplies these numbers and echoed in reports.
    """

    gF: int
    Dhor_dot_F: int
    gC: int
    nDC: int
    nS: int

    def __post_init__(self) -> None:
        for name in ("gF", "Dhor_dot_F", "gC", "nDC", "nS"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidInputError(f"{name} must be a non-negative integer (got {value!r})")


def arakelov_degree_bound(
    gF: int, Dhor_dot_F: int, gC: int, nDC: int, nS: int, d: int
) -> Fraction:
    """Upper bound for |deg_det| of a semistable fibred cover, exactly.

    Evaluates ``(gF + (Dhor.F)/2) * (gC + 2*nDC + (1 + nS)/2) * d`` as an
    exact rational.  ``gF`` is the fibre genus upstairs, ``Dhor.F`` the
    fibre degree of the horizontal branch part, ``nDC`` the number of base
    points under the vertical branch part, ``nS`` the number of singular
    fibres (set cardinality; inflating it only weakens the bound).  Weakly
    increasing in every argument.
    """
    FibrationInputs(gF=gF, Dhor_dot_F=Dhor_dot_F, gC=gC, nDC=nDC, nS=nS)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidInputError(f"d must be a positive integer (got {d!r})")
    return (gF + Fraction(Dhor_dot_F, 2)) * (gC + 2 * nDC + Fraction(1 + nS, 2)) * d


#: Significant digits used for the logarithms in the plane-model height
#: bound; everything else in the package is exact.
HEIGHT_LOG_PRECISION = 50


def plane_model_terms(d: int, nB: int) -> tuple[int, int]:
    """The integers ``(5 d^2 nB + 12 d, d^3 nB)`` of the plane-model height bound.

    The bound is ``log(h + 1) + coefficient * log(base)`` for a cover of
    degree ``d >= 2`` branched over ``nB >= 1`` points of the line; this
    returns ``(coefficient, base)``, exactly.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise InvalidInputError(f"degree must be an integer >= 2 (got {d!r})")
    if not isinstance(nB, int) or isinstance(nB, bool) or nB < 1:
        raise InvalidInputError(f"branch point count must be a positive integer (got {nB!r})")
    return 5 * d * d * nB + 12 * d, d ** 3 * nB


def height_log_decimal(d: int, nB: int, h: Union[Fraction, int] = 0) -> decimal.Decimal:
    """Decimal evaluation of the plane-model height bound, natural log scale.

    Computes ``log(h + 1) + (5 d^2 nB + 12 d) log(d^3 nB)`` (see
    :func:`plane_model_terms`) where ``d`` is the cover degree, ``nB`` the
    number of branch points on the line, and ``h`` the affine logarithmic
    height of the defining polynomial.  The logarithms of exact integers are
    taken at ``HEIGHT_LOG_PRECISION`` significant digits; this is the
    package's only non-exact operation.
    """
    coeff, base = plane_model_terms(d, nB)
    h = Fraction(h)
    if h < 0:
        raise InvalidInputError(f"height must be non-negative (got {h})")
    h1 = h + 1
    with decimal.localcontext() as ctx:
        ctx.prec = HEIGHT_LOG_PRECISION
        log_h1 = decimal.Decimal(h1.numerator).ln() - decimal.Decimal(h1.denominator).ln()
        return log_h1 + coeff * decimal.Decimal(base).ln()


def plane_model_height_log(d: int, nB: int, h: Union[Fraction, int] = 0) -> Fraction:
    """The plane-model height bound as an exact rational snapshot.

    Same quantity as :func:`height_log_decimal`, converted exactly from its
    fixed-precision decimal evaluation so downstream consumers stay in
    rational arithmetic.  The precision cutoff is inherited, and flagged,
    from the decimal step.
    """
    return Fraction(height_log_decimal(d, nB, h))


@dataclass(frozen=True)
class BoundTerm:
    """One receipt of the linear-bound certificate."""

    name: str
    value: Fraction
    bound: Fraction
    per_degree: Fraction

    @cached_property
    def ok(self) -> bool:
        # |value| <= bound, cross-multiplied over the positive denominators
        # (Fraction's own abs and comparison cost four times as much).  A
        # report asks for each term's verdict and for ``satisfied``; the
        # term keeps its verdict, so the comparison runs once.
        v, b = self.value, self.bound
        return abs(v.numerator) * b.denominator <= b.numerator * v.denominator


@dataclass(frozen=True)
class BoundCertificate:
    """Receipts showing |deg_det| is linearly bounded in the cover degree.

    ``linear_coefficient`` is assembled from the base configuration alone,
    so one coefficient serves every cover of the same base; the terms
    instantiate the individual estimates that make the aggregate work, and
    ``satisfied`` holds exactly when every term's |value| is within its
    bound.  The optional fibration bound is carried along for comparison
    when its inputs are supplied.  ``report`` is summed in the walk that
    emits the receipts; its ``deg_det`` is the certificate's.
    """

    terms: tuple[BoundTerm, ...]
    linear_coefficient: Fraction
    degree: int
    report: InvariantReport
    fibration_inputs: Optional[FibrationInputs]
    fibration_bound: Optional[Fraction]

    @property
    def deg_det(self) -> Fraction:
        return self.report.deg_det

    @property
    def satisfied(self) -> bool:
        return all(t.ok for t in self.terms)

    @property
    def deg_det_within_linear(self) -> bool:
        return abs(self.deg_det) <= self.linear_coefficient * self.degree

    @property
    def deg_det_within_fibration(self) -> Optional[bool]:
        if self.fibration_bound is None:
            return None
        return abs(self.deg_det) <= self.fibration_bound


def linear_coefficient(base: BaseGeometry) -> Fraction:
    """The degree-free coefficient c with |deg_det| <= c * degree.

    Aggregates the worst case of every term in the invariant chain using
    only base data: canonical intersection numbers, component
    self-intersections, crossing counts, and the Euler stratification.
    Conservative by construction; the certificate's per-term receipts show
    where the slack lives.
    """
    euler = derived_euler_data(base)
    n_cross = len(base.crossings)
    twelfth = (
        abs(base.KX_sq)
        + 2 * sum(abs(c.KX_dot) for c in base.components)
        + sum(abs(c.self_int) for c in base.components)
        + 2 * n_cross  # cross part of (R,R)
        + 2 * n_cross  # resolution corrections
        + n_cross  # exceptional curve count s
        + abs(euler.e_c_U)
        + sum(abs(v) for _, v in euler.open_components)
        + n_cross  # points above the crossings
    )
    fib = Fraction(abs(1 - base.genus_C), 2) * (
        abs(base.KX_dot_F) + sum(c.fiber_deg for c in base.components)
    )
    return Fraction(twelfth, 12) + fib


def examine(
    base: BaseGeometry,
    cover: CoverDescription,
    fibration: Optional[FibrationInputs] = None,
    *,
    strict: bool = False,
) -> tuple[list[Violation], Optional[BoundCertificate], Optional[str]]:
    """Check V1 to V5 and instantiate the linear degree bound, in one walk.

    Returns ``(violations, certificate, error)``.  The violations are
    :func:`~ramcov.model.validate`'s sorted findings (V4 only when
    ``strict``).  The certificate has one term per estimate, emitted
    where its value is computed: branch multiplicities are at most d, the
    diagonal (R,R) factors lie in [0, d), each crossing's ordered cross term
    is at most 2d in absolute value, per-crossing resolution corrections lie
    in (-d, 2 * points], per-crossing exceptional counts are at most d, and
    finally |deg_det| itself against ``linear_coefficient * d``.  When
    fibration inputs are supplied the comparison against the semistable
    bound is appended as a term as well.  The same values are summed into
    the carried report, as integer numerators over each quotient order n.

    The first point, in crossing index order, whose sheet index is out of
    range or whose local type breaks a range or gcd constraint becomes
    ``error``: from there on the walk sums nothing and returns no
    certificate, but it still checks every point.  References are checked
    by :func:`~ramcov.model.check_references`, not here: a point whose sheet
    index is out of range has no findings.
    """
    d = cover.degree
    # Receipts repeat a few small integers (s, max(d, 2 * points)): one
    # Fraction each per certificate.
    small: dict[int, Fraction] = {}

    def exact(i: int) -> Fraction:
        f = small.get(i)
        if f is None:
            f = small[i] = Fraction(i)
        return f

    one, two, fd = exact(1), exact(2), exact(d)
    f2d = exact(2 * d)
    zero = Fraction(0)
    euler = derived_euler_data(base)
    found: list[Violation] = []
    error: Optional[str] = None

    terms: list[BoundTerm] = []
    diagonal_terms: list[BoundTerm] = []
    b_mults = []
    kx_dot_b = b_dot_f = 0
    rr = zero
    euler_y = d * euler.e_c_U
    for comp in base.components:
        sheets = cover.sheets_for(comp.id)
        total = sum(s.e * s.f for s in sheets)
        if total != d:
            found.append(Violation("V1", (comp.id,), (
                f"component {comp.id!r}: sum of e*f over sheets is {total}, expected degree {d}"
            )))
        b_mult = sum((s.e - 1) * s.f for s in sheets)
        diagonal = sum((Fraction((s.e - 1) ** 2 * s.f, s.e) for s in sheets), zero)
        b_mults.append((comp.id, b_mult))
        kx_dot_b += b_mult * comp.KX_dot
        b_dot_f += b_mult * comp.fiber_deg
        rr += diagonal * comp.self_int
        euler_y += sum(s.f for s in sheets) * euler.open_component(comp.id)
        terms.append(
            BoundTerm(
                name=f"branch_mult[{comp.id}]",
                value=Fraction(b_mult),
                bound=fd,
                per_degree=one,
            )
        )
        diagonal_terms.append(
            BoundTerm(
                name=f"rr_diagonal_factor[{comp.id}]",
                value=diagonal,
                bound=fd,
                per_degree=one,
            )
        )
    terms += diagonal_terms

    # (n, q) -> chain length, correction numerator and the correction over n
    resolutions: dict[tuple[int, int], tuple[int, int, Fraction]] = {}
    # n -> sum of the numerators over n, of the ordered cross terms and of
    # the corrections of all points
    cross_sums: dict[int, int] = {}
    correction_sums: dict[int, int] = {}
    s_total = 0
    for crossing in base.crossings:
        at = f"crossing {crossing.index}"
        first_id, second_id = crossing.pair
        first, second = cover.sheets_for(first_id), cover.sheets_for(second_id)
        points = cover.points_for(crossing.index)
        euler_y += len(points)
        # The local degree total (V2) and, per sheet, the local degrees of
        # the upstairs curve: m2 on the first component, m1 on the second (V4).
        total = 0
        m2_on = [0] * len(first)
        m1_on = [0] * len(second)
        cross = correction = zero
        s = 0
        for k, pt in enumerate(points):
            if pt.j >= len(first) or pt.jp >= len(second):
                error = error or (
                    f"{at}: point sheet index out of range: "
                    f"(j, jp) = ({pt.j}, {pt.jp}), but {first_id} has "
                    f"{len(first)} sheet(s) and {second_id} has {len(second)}"
                )
                continue
            lt = pt.local_cover_type()
            total += lt.d_y
            m2_on[pt.j] += lt.m2
            m1_on[pt.jp] += lt.m1
            e1, e2 = first[pt.j].e, second[pt.jp].e
            if lt.e1 != e1:
                found.append(Violation("V3", (at, f"point {k}"), (
                    f"{at}, point {k}: local e1={lt.e1} but sheet {pt.j} of {first_id!r} has e={e1}"
                )))
            if lt.e2 != e2:
                found.append(Violation("V3", (at, f"point {k}"), (
                    f"{at}, point {k}: local e2={lt.e2} but "
                    f"sheet {pt.jp} of {second_id!r} has e={e2}"
                )))
            problems = lt.invariant_problems()
            for problem in problems:
                found.append(Violation("V5", (at, f"point {k}"), f"{at}, point {k}: {problem}"))
            if problems and error is None:
                error = f"{at}: invalid local type: {problems[0]}"
            if error is not None:
                continue
            n = lt.n
            num = 2 * (e1 - 1) * (e2 - 1)
            cross_sums[n] = cross_sums.get(n, 0) + num
            term = Fraction(num, n)
            cross = term if cross is zero else cross + term  # a first term as it is
            if n > 1:
                rd = resolutions.get((n, lt.q))
                if rd is None:
                    length, num = resolution_numbers(SingularityType(n, lt.q))
                    rd = resolutions[n, lt.q] = (length, num, Fraction(num, n))
                length, num, term = rd
                correction_sums[n] = correction_sums.get(n, 0) + num
                correction = term if correction is zero else correction + term
                s += length
        if total != d:
            found.append(Violation("V2", (at,), (
                f"{at}: sum of local degrees d_y is {total}, expected degree {d}"
            )))
        if strict:
            # Per-sheet incidence: over a crossing the points on one sheet
            # must exhaust its degree over the downstairs component.
            for cid, sheets, sums, j, m in (
                (first_id, first, m2_on, "j", "m2"),
                (second_id, second, m1_on, "jp", "m1"),
            ):
                for jj, sheet in enumerate(sheets):
                    if sums[jj] != sheet.f:
                        found.append(Violation("V4", (at, f"sheet {j}={jj}"), (
                            f"{at}: {m} over sheet {jj} of {cid!r} sums to {sums[jj]}, "
                            f"expected f={sheet.f}"
                        )))
        if error is not None:
            continue
        s_total += s
        terms.append(
            BoundTerm(
                name=f"rr_cross[{at}]",
                value=cross,
                bound=f2d,
                per_degree=two,
            )
        )
        terms.append(
            BoundTerm(
                name=f"correction[{at}]",
                value=correction,
                bound=exact(max(d, 2 * len(points))),
                per_degree=two,
            )
        )
        terms.append(
            BoundTerm(
                name=f"exceptional_s[{at}]",
                value=exact(s),
                bound=fd,
                per_degree=one,
            )
        )
    found.sort()
    if error is not None:
        return found, None, error

    rr += sum((Fraction(num, den) for den, num in cross_sums.items()), zero)
    correction_total = sum((Fraction(num, den) for den, num in correction_sums.items()), zero)
    report = InvariantReport(
        B_mult=tuple(b_mults),
        KX_dot_B=kx_dot_b,
        B_dot_F=b_dot_f,
        RR=rr,
        KY_sq=d * base.KX_sq + 2 * kx_dot_b + rr,
        correction_total=correction_total,
        euler_Y=euler_y,
        exceptional_s=s_total,
        fibration_term=Fraction(1 - base.genus_C, 2) * (d * base.KX_dot_F + b_dot_f),
    )

    coeff = linear_coefficient(base)
    terms.append(
        BoundTerm(
            name="deg_det_vs_linear",
            value=report.deg_det,
            bound=coeff * d,
            per_degree=coeff,
        )
    )

    fib_bound = None
    if fibration is not None:
        fi = fibration
        fib_bound = arakelov_degree_bound(fi.gF, fi.Dhor_dot_F, fi.gC, fi.nDC, fi.nS, d)
        terms.append(
            BoundTerm(
                name="deg_det_vs_fibration",
                value=report.deg_det,
                bound=fib_bound,
                per_degree=Fraction(fib_bound, d),
            )
        )

    certificate = BoundCertificate(
        terms=tuple(terms),
        linear_coefficient=coeff,
        degree=d,
        report=report,
        fibration_inputs=fibration,
        fibration_bound=fib_bound,
    )
    return found, certificate, None


def degree_linear_certificate(
    base: BaseGeometry,
    cover: CoverDescription,
    fibration: Optional[FibrationInputs] = None,
) -> BoundCertificate:
    """The linear degree bound with per-term receipts: :func:`examine`'s certificate.

    Raises :class:`InvalidInputError` at the first point, in crossing index
    order, whose sheet index is out of range or whose local type breaks a
    range or gcd constraint.
    """
    _, certificate, error = examine(base, cover, fibration)
    if error is not None:
        raise InvalidInputError(error)
    return certificate
