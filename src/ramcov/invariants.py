"""Numerical invariants of a resolved branched cover and its degree bounds.

Everything here comes from one walk over a base-plus-cover description,
made by :func:`examine`.  It passes once over the branch components, in id
order, and then once over the crossings, in index order.  Where it reads a
component's sheets or a point's local type it checks the coherence
identities V1 to V5 (see :mod:`ramcov.model`), and it emits each receipt of
the linear degree bound where its value is computed:

* per component, the branch multiplicity ``B_mult(i) = sum_j (e_ij - 1) f_ij``
  and the diagonal (R,R) factor ``sum_j (e_ij - 1)^2 f_ij / e_ij``, each
  computed and decided once per distinct sheet list;
* per crossing, from the local type of each point above it, the ordered
  cross term ``2 sum_y (e_1(y) - 1)(e_2(y) - 1) / n_y`` of (R,R), the
  resolution correction and the exceptional curve count ``s`` of its
  quotient points.  Each distinct ``local`` value is classified (see
  :meth:`PointAbove.local_cover_type`) and, at a quotient point, resolved
  in O(log n) steps by :func:`~ramcov.hj.resolution_numbers`, once per walk.

A crossing's numbers depend only on its two sheet lists and its points,
so the walk computes them, with their verdicts, once per distinct
``(id(first sheets), id(second sheets), id(points))`` with no finding and
no ``error`` (see :func:`_crossing_shape`); the loader gives byte-equal
lists one tuple.  Each crossing then adds only its shape number to the
receipts, which name the crossings in the base's index order: a
certificate exists only when every crossing was summed.  A crossing whose
shape has a finding or an ``error`` is examined on its own, and its
findings are written, with its label ``crossing {index}``, where they are
found.  The memo keys on identity, never on list contents, and lives for
one walk, so a model whose crossings share nothing pays once per crossing
and keeps one entry per shape, beside the rows the receipts keep anyway.

The receipts' values, with ``d_i = sum_j f_ij`` and the point counts, are
the only terms of the totals: each crossing shape adds its rows' cross
term, correction and ``s`` times the number of its crossings, and the
points are counted once over the cover's point lists, whose keys are all
crossings.  The totals make up the chain

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
certificate's report alone.  Every receipt reads as one plain row
``(name, value, bound, per_degree, ok)``, decided once, where the walk
emits it; the certificate holds them in one :class:`Receipts`, stored by
sheet-list and crossing shape in one table per group of rows and named by
one rule as they are read, and its verdicts and both reports read them
there.  Beside them sit an Arakelov-type bound for semistable fibrations
and a logarithmic height bound for plane models, the single place the
package leaves exact arithmetic (flagged as such).
"""

from __future__ import annotations

import decimal
from collections import Counter
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Union

from .errors import InvalidInputError, check_int
# resolve is not called here; it stays bound because perfbench/tracer.py
# wraps it under this module's name.
from .hj import SingularityType, resolution_numbers, resolve
from .model import BaseGeometry, CoverDescription, Crossing, Violation
from .model import check_references, derived_euler_data
from .value import Value

__all__ = [
    "InvariantReport",
    "BoundCertificate",
    "Receipts",
    "FibrationInputs",
    "invariant_report",
    "degree_linear_certificate",
    "examine",
    "linear_coefficient",
    "arakelov_degree_bound",
    "plane_model_terms",
    "height_log_decimal",
    "HEIGHT_LOG_PRECISION",
]


class InvariantReport(Value):
    """All invariants of one cover, with the per-term breakdown.

    ``KY_sq = d*K_X^2 + 2*(K_X . B) + (R,R)``, and resolving the quotient
    points adds ``correction_total``, the sum over singular points of
    ``sum_i a_i (b_i - 2)`` of their exceptional chains.  ``euler_Y``
    stratifies the base into the divisor complement (counted ``d`` times),
    the punctured components (``d_i`` times) and one point per listed
    point; resolution glues in ``exceptional_s`` rational curves.
    Riemann-Roch on the resolved cover, pushed to the base curve, gives

        deg_det = (1/12)(K_{Y'}^2 + e_c(Y')) + (1/2)(1 - g_C)(d*(K_X.F) + (B.F)),

    whose last summand is ``fibration_term``.  The constructor works out
    ``KYprime_sq``, ``euler_Yprime``, ``chi`` and ``deg_det`` once, from the
    fields, and keeps them in private slots, as :class:`BaseGeometry` keeps
    its Euler data; they take no part in ``==``, the hash or the repr, and a
    copy or a pickle is built by the constructor, so it derives its own.
    Integrality of the last two is surfaced as flags because
    non-integrality signals geometrically inconsistent input, not an
    arithmetic error.
    """

    __slots__ = (
        "B_mult", "KX_dot_B", "B_dot_F", "RR", "KY_sq", "correction_total", "euler_Y",
        "exceptional_s", "fibration_term",
        "_KYprime_sq", "_euler_Yprime", "_chi", "_deg_det",
    )

    def __new__(
        cls,
        B_mult: tuple,
        KX_dot_B: int,
        B_dot_F: int,
        RR: Fraction,
        KY_sq: Fraction,
        correction_total: Fraction,
        euler_Y: int,
        exceptional_s: int,
        fibration_term: Fraction,
    ):
        KYprime_sq = KY_sq + correction_total
        euler_Yprime = euler_Y + exceptional_s
        chi = Fraction(KYprime_sq + euler_Yprime, 12)
        return cls._derived(
            B_mult, KX_dot_B, B_dot_F, RR, KY_sq, correction_total, euler_Y, exceptional_s,
            fibration_term, KYprime_sq, euler_Yprime, chi, chi + fibration_term,
        )

    @property
    def KYprime_sq(self) -> Fraction:
        return self._KYprime_sq

    @property
    def euler_Yprime(self) -> int:
        return self._euler_Yprime

    @property
    def chi(self) -> Fraction:
        return self._chi

    @property
    def deg_det(self) -> Fraction:
        return self._deg_det

    @property
    def chi_is_integral(self) -> bool:
        return self._chi.denominator == 1

    @property
    def deg_det_is_integral(self) -> bool:
        return self._deg_det.denominator == 1


def invariant_report(base: BaseGeometry, cover: CoverDescription):
    """The report of :func:`degree_linear_certificate`'s walk.

    It runs the whole walk and returns only its report; a caller that needs
    the receipts too should ask for the certificate.  The receipts it drops
    are stored by shape, at one shape number per component and per crossing.
    """
    return degree_linear_certificate(base, cover).report


class FibrationInputs(Value):
    """Caller-asserted data for the semistable fibration bound.

    The hypotheses behind the bound (semistable fibration with connected
    fibres; branch divisor splits into an etale-over-C horizontal part and
    fibre components) cannot be checked from the numerical data, so they
    are asserted by whoever supplies these numbers and echoed in reports.
    """

    __slots__ = ("gF", "Dhor_dot_F", "gC", "nDC", "nS")

    def __new__(cls, gF: int, Dhor_dot_F: int, gC: int, nDC: int, nS: int):
        for name, value in zip(cls.__slots__, (gF, Dhor_dot_F, gC, nDC, nS)):
            check_int(value, name, 0)
        return cls._derived(gF, Dhor_dot_F, gC, nDC, nS)


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
    check_int(d, "d", 1)
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
    check_int(d, "degree", 2)
    check_int(nB, "branch point count", 1)
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


def _within(value, bound) -> bool:
    """Every receipt's verdict, ``|value| <= bound``, for rationals or ints.

    Cross-multiplied over the positive denominators: Fraction's own abs and
    comparison cost four times as much.
    """
    return abs(value.numerator) * bound.denominator <= bound.numerator * value.denominator


class Receipts:
    """A certificate's receipts, stored by shape and named when read.

    The rows are those of ``groups``, in order, then ``tail``, the
    ``deg_det`` rows: the linear row, then the fibration row when there is
    one.  A group ``(kinds, label, keys, numbers, shapes)`` holds per key
    ``keys[k]`` the shape number ``numbers[k]``, and per shape number its
    rows less their names, one per kind; a key's rows are those of its
    shape, named by :meth:`row_name` after their kind, the label and the
    key, every kind's row of one key before the next key's.
    :func:`examine` gives three groups: ``("branch_mult",)`` and then
    ``("rr_diagonal_factor",)``, both keyed by the base's component ids in
    order with the numbers of their sheet-list shapes, so every
    ``branch_mult`` row comes before every ``rr_diagonal_factor`` row; and
    the three crossing kinds, keyed by the base's crossing indices in order
    with the numbers of their crossing shapes, label ``"crossing "``.
    Iteration is the one reader of the rows: it builds each row ``(name,
    value, bound, per_degree, ok)`` as it is read, and ``==``, ``hash`` and
    ``repr`` are those of the tuple of the rows it gives.  Every shape is
    some key's, so :attr:`satisfied` reads each once.
    """

    __slots__ = ("groups", "tail")

    def __init__(self, groups: tuple, tail: tuple):
        self.groups, self.tail = groups, tail

    @staticmethod
    def row_name(kind: str, label: str, key) -> str:
        """The name of ``key``'s ``kind`` row in a group labelled ``label``:
        ``branch_mult[D1]`` or ``rr_diagonal_factor[D1]`` for a component,
        ``rr_cross[crossing 12]``, ``correction[crossing 12]`` or
        ``exceptional_s[crossing 12]`` for a crossing."""
        return f"{kind}[{label}{key}]"

    def __iter__(self):
        for kinds, label, keys, numbers, shapes in self.groups:
            for key, number in zip(keys, numbers):
                for kind, row in zip(kinds, shapes[number]):
                    yield (self.row_name(kind, label, key), *row)
        yield from self.tail

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, Receipts)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    @property
    def satisfied(self) -> bool:
        shaped = (rows for *_, shapes in self.groups for rows in shapes)
        return all(row[-1] for rows in (*shaped, self.tail) for row in rows)


class BoundCertificate(Value):
    """Receipts showing |deg_det| is linearly bounded in the cover degree.

    ``receipts`` instantiate the individual estimates that make the
    aggregate work, one row ``(name, value, bound, per_degree, ok)`` each,
    in report order, with the verdict ``|value| <= bound`` decided where
    the walk emits it (see :class:`Receipts`); ``satisfied`` holds exactly
    when every verdict does.  Their ``tail`` holds the ``deg_det`` rows:
    ``linear_row`` compares ``deg_det`` with ``c * degree``, and when
    ``fibration_inputs`` are set the row after it compares ``deg_det`` with
    their semistable bound.  Nothing else stores a row's number:
    ``linear_coefficient``, c, is the linear row's per-degree value,
    assembled from the base configuration alone, so one coefficient serves
    every cover of the same base; ``fibration_bound`` is the fibration
    row's bound.  ``deg_det_within_linear`` and ``deg_det_within_fibration``
    are those rows' verdicts, and the text report's ``c*d`` is the linear
    row's bound.  ``report`` is summed in the walk that emits the receipts; its
    ``deg_det`` is the certificate's.
    """

    __slots__ = ("receipts", "degree", "report", "fibration_inputs")

    @property
    def deg_det(self) -> Fraction:
        return self.report.deg_det

    @property
    def satisfied(self) -> bool:
        return self.receipts.satisfied

    @property
    def linear_row(self) -> tuple:
        """The row comparing ``deg_det`` with ``linear_coefficient * degree``."""
        return self.receipts.tail[0]

    @property
    def linear_coefficient(self) -> Fraction:
        return self.linear_row[3]

    @property
    def deg_det_within_linear(self) -> bool:
        return self.linear_row[-1]

    @property
    def fibration_bound(self) -> Optional[Fraction]:
        return None if self.fibration_inputs is None else self.receipts.tail[1][2]

    @property
    def deg_det_within_fibration(self) -> Optional[bool]:
        return None if self.fibration_inputs is None else self.receipts.tail[1][-1]


def linear_coefficient(base: BaseGeometry) -> Fraction:
    """The degree-free coefficient c with |deg_det| <= c * degree.

    Aggregates the worst case of every term in the invariant chain using
    only base data: canonical intersection numbers, component
    self-intersections, crossing counts, and the Euler stratification, which
    the base derived as it was built (:func:`~ramcov.model.derived_euler_data`).
    Conservative by construction; the certificate's per-term receipts show
    where the slack lives.  This is the one statement of c: :func:`examine`
    calls it for the linear row.
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


def _crossing_shape(
    base: BaseGeometry,
    cover: CoverDescription,
    crossing: Crossing,
    first: tuple,
    second: tuple,
    points: tuple,
    strict: bool,
    classified: dict,
) -> tuple:
    """What ``crossing`` gives :func:`examine`, from its sheets and points alone.

    Returns ``(violations, error, rows)``.  ``violations`` are its V2
    to V5 findings, each named after the crossing where it is found.
    ``error`` names the crossing and the first range or gcd problem of a
    point's local type, or is None; the numbers are summed only up to that
    point.  ``rows`` are its three receipts less their names (see
    :class:`Receipts`): the cross term, the correction and the exceptional
    curve count ``s``, each with its bound, per-degree factor and verdict.
    ``classified`` is the walk's memo of each distinct ``local`` value: its
    type, that type's problems and, at a valid quotient point, ``(chain
    length, correction)`` from :func:`~ramcov.hj.resolution_numbers`, else
    None.  A sheet index out of range raises
    :func:`~ramcov.model.check_references`' error.
    """
    d = cover.degree
    at = f"crossing {crossing.index}"
    first_id, second_id = crossing.pair
    found = []
    problem = None
    total = 0
    # Per sheet carrying a point, the local degrees of the upstairs curve:
    # m2 on the first component, m1 on the second (V4).
    m2_on, m1_on = {}, {}
    cross = correction = Fraction(0)
    s = 0
    for k, pt in enumerate(points):
        if pt.j >= len(first) or pt.jp >= len(second):
            check_references(base, cover)  # raises, naming this point
            raise AssertionError(f"point {k}: check_references passed an out-of-range index")
        known = classified.get(pt.local)
        if known is None:
            lt = pt.local_cover_type()
            problems = lt.invariant_problems()
            resolved = None
            if lt.n > 1 and not problems:
                length, num = resolution_numbers(SingularityType(lt.n, lt.q))
                resolved = (length, Fraction(num, lt.n))
            known = classified[pt.local] = (lt, problems, resolved)
        lt, problems, resolved = known
        total += lt.d_y
        if strict:
            m2_on[pt.j] = m2_on.get(pt.j, 0) + lt.m2
            m1_on[pt.jp] = m1_on.get(pt.jp, 0) + lt.m1
        e1, e2 = first[pt.j].e, second[pt.jp].e
        if lt.e1 != e1 or lt.e2 != e2 or problems:
            where = f"point {k}"
            sides = ((1, lt.e1, pt.j, first_id, e1), (2, lt.e2, pt.jp, second_id, e2))
            for side, local, j, cid, e in sides:
                if local != e:
                    found.append(Violation("V3", (at, where), (
                        f"{at}, {where}: local e{side}={local} but sheet {j} of {cid!r} has e={e}"
                    )))
            found += [Violation("V5", (at, where), f"{at}, {where}: {p}") for p in problems]
            if problems and problem is None:
                problem = problems[0]
        if problem is not None:
            continue
        cross += Fraction(2 * (e1 - 1) * (e2 - 1), lt.n)
        if resolved is not None:
            length, term = resolved
            correction += term
            s += length
    if total != d:
        found.append(Violation("V2", (at,), (
            f"{at}: sum of local degrees d_y is {total}, expected degree {d}"
        )))
    if strict:
        # Per-sheet incidence: over a crossing the points on one sheet must
        # exhaust its degree over the downstairs component.  A sheet without
        # points sums to 0 < f, so the first sheet that is off and the count
        # of those that are come from the sums alone: one finding per
        # component, in O(points) rather than O(sheets).
        for cid, sheets, sums, j, m in (
            (first_id, first, m2_on, "j", "m2"), (second_id, second, m1_on, "jp", "m1")
        ):
            jj = 0
            while jj in sums and sums[jj] == sheets[jj].f:
                jj += 1
            if jj < len(sheets):
                off = len(sheets) - sum(got == sheets[i].f for i, got in sums.items())
                found.append(Violation("V4", (at, f"sheet {j}={jj}"), (
                    f"{at}: {m} over sheet {jj} of {cid!r} sums to {sums.get(jj, 0)}, "
                    f"expected f={sheets[jj].f}; {off} of {len(sheets)} sheet(s) off"
                )))
    twice, bound = 2 * d, max(d, 2 * len(points))
    rows = (
        (cross, twice, 2, _within(cross, twice)),
        (correction, bound, 2, _within(correction, bound)),
        (s, d, 1, _within(s, d)),
    )
    error = None if problem is None else f"{at}: invalid local type: {problem}"
    return found, error, rows


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
    ``strict``).  The certificate has one receipt per estimate, emitted,
    with its verdict, where its value is computed: branch multiplicities
    are at most d, the diagonal (R,R) factors lie in [0, d), each
    crossing's ordered cross term is at most 2d in absolute value,
    per-crossing resolution corrections lie in (-d, 2 * points],
    per-crossing exceptional counts are at most d, and finally |deg_det|
    itself against ``linear_coefficient * d``.  When fibration inputs are
    supplied the comparison against the semistable bound is appended as a
    receipt as well.  The same values are summed into the carried report.
    Its e_c(Y) reads the Euler data that the base derived as it was built:
    each component adds its ``d_i`` times its open part's e_c as its sheets
    are read, in the one pass over the components.  c is
    :func:`linear_coefficient`'s.  The receipts are stored by
    shape in three groups (see :class:`Receipts`): the ``branch_mult`` and
    the ``rr_diagonal_factor`` group share the component ids, in id order,
    and each component's sheet-list shape number, and the crossing group
    holds the crossing indices, in the base's index order, and each
    crossing's shape number.  A component or crossing is named in its rows
    only when they are read.

    Each distinct crossing shape, ``(id(first sheets), id(second sheets),
    id(points))``, with no finding and no ``error`` is computed once per
    walk; a crossing whose shape has either is computed on its own, and
    its findings name it.  Within those, each distinct ``local`` value is
    classified, its range and gcd constraints checked and, at a quotient
    point, its resolution numbers found, once.
    Likewise each distinct sheet list, ``id(sheets)``, gives its sum of
    ``e*f``, ``B_mult``, diagonal factor, ``d_i`` and its two rows, with
    their verdicts, once per walk; a component adds only its own products,
    its V1 finding, its list's shape number and, when its self-intersection
    is not 0, its list's diagonal factor times that self-intersection to
    (R,R).
    The shape and sheet-list memos key on identity, the local memo on value
    (a local is hashed only where a shape is computed), and all three live
    for the call.  The loader gives byte-equal lists one tuple, so a loaded
    document computes each shape and sheet list once for each way its lists
    are written; a model built by hand with equal but distinct lists gets
    the same answer and computes a shape per crossing and a sheet list per
    component.

    A reference that does not resolve raises the error of
    :func:`~ramcov.model.check_references`, called only then: before the
    walk for a key of the cover that names nothing in the base, at its
    point for a sheet index out of range.  The first point, in crossing
    index order, whose local type breaks a range or gcd constraint becomes
    ``error``: the walk still checks every point, but it sums nothing and
    returns no certificate.
    """
    if not (cover._sheets.keys() <= base._components.keys()
            and cover._points.keys() <= base._crossings.keys()):
        check_references(base, cover)
    d = cover.degree
    zero = Fraction(0)
    found: list[Violation] = []
    error: Optional[str] = None

    b_mults = []
    kx_dot_b = b_dot_f = 0
    # e_c(Y) over the open components: the sum of d_i * e_c(D_i less its
    # crossings), with d_i = sum_j f_ij, added as each component is read
    euler = derived_euler_data(base)
    e_c_branch = 0
    # id(sheets) -> (diagonal, sum of e*f, b_mult, d_i, its sheet-list shape
    # number)
    sheet_lists: dict[int, tuple] = {}
    # per sheet-list shape number, its branch_mult and its rr_diagonal_factor
    # row less their names
    mult_rows, diagonal_rows = [], []
    lists = []  # per component, in id order, its sheet-list shape number
    rr = zero
    # cover.sheets_for and cover.points_for, read straight from the cover's
    # indexes: the crossing loop below runs once per crossing.
    sheets_for = cover._sheets.get
    for comp, (_, e_c) in zip(base.components, euler.open_components):
        sheets = sheets_for(comp.id, ())
        known = sheet_lists.get(id(sheets))
        if known is None:
            b_mult = sum((s.e - 1) * s.f for s in sheets)
            diagonal = sum((Fraction((s.e - 1) ** 2 * s.f, s.e) for s in sheets if s.e > 1), zero)
            known = sheet_lists[id(sheets)] = (
                diagonal, sum(s.e * s.f for s in sheets), b_mult, sum(s.f for s in sheets),
                len(mult_rows),
            )
            mult_rows.append(((b_mult, d, 1, _within(b_mult, d)),))
            diagonal_rows.append(((diagonal, d, 1, _within(diagonal, d)),))
        diagonal, total, b_mult, d_i, number = known
        if comp.self_int:
            rr += diagonal * comp.self_int
        if total != d:
            found.append(Violation("V1", (comp.id,), (
                f"component {comp.id!r}: sum of e*f over sheets is {total}, expected degree {d}"
            )))
        b_mults.append((comp.id, b_mult))
        kx_dot_b += b_mult * comp.KX_dot
        b_dot_f += b_mult * comp.fiber_deg
        e_c_branch += d_i * e_c
        lists.append(number)

    # a point's local data -> its local type, that type's problems and its
    # (chain length, correction) at a valid quotient point, else None
    classified: dict = {}
    # (id(first sheets), id(second sheets), id(points)) -> the shape number
    # of a crossing shape with no finding and no error
    shapes: dict[tuple[int, int, int], int] = {}
    crossing_rows = []  # per shape number, its crossings' three rows less their names
    numbers = []  # per crossing, in index order, its shape number
    points_for = cover._points.get
    for crossing in base.crossings:
        first_id, second_id = crossing.pair
        first, second = sheets_for(first_id, ()), sheets_for(second_id, ())
        points = points_for(crossing.index, ())
        key = (id(first), id(second), id(points))
        number = shapes.get(key)
        if number is None:
            violations, shape_error, rows = _crossing_shape(
                base, cover, crossing, first, second, points, strict, classified
            )
            number = len(crossing_rows)
            crossing_rows.append(rows)
            if violations or shape_error is not None:
                found += violations
                if error is None:
                    error = shape_error
            else:
                shapes[key] = number
        numbers.append(number)
    found.sort(key=attrgetter(*Violation.__match_args__))
    if error is not None:
        return found, None, error

    # each shape's values, times the number of its crossings
    s_total = 0
    correction_total = zero
    for number, count in Counter(numbers).items():
        (cross, *_), (correction, *_), (s, *_) = crossing_rows[number]
        rr += count * cross
        correction_total += count * correction
        s_total += count * s

    # every key of points_above is a crossing, so these are all the points
    n_points = sum(map(len, cover._points.values()))
    report = InvariantReport(
        B_mult=tuple(b_mults),
        KX_dot_B=kx_dot_b,
        B_dot_F=b_dot_f,
        RR=rr,
        KY_sq=d * base.KX_sq + 2 * kx_dot_b + rr,
        correction_total=correction_total,
        euler_Y=d * euler.e_c_U + n_points + e_c_branch,
        exceptional_s=s_total,
        fibration_term=Fraction(1 - base.genus_C, 2) * (d * base.KX_dot_F + b_dot_f),
    )

    dd = report.deg_det
    coeff = linear_coefficient(base)
    tail = [("deg_det_vs_linear", dd, coeff * d, coeff, _within(dd, coeff * d))]
    if fibration is not None:
        fi = fibration
        fib_bound = arakelov_degree_bound(fi.gF, fi.Dhor_dot_F, fi.gC, fi.nDC, fi.nS, d)
        tail.append(
            ("deg_det_vs_fibration", dd, fib_bound, Fraction(fib_bound, d), _within(dd, fib_bound))
        )

    ids, indices = list(base._components), list(base._crossings)
    groups = (
        (("branch_mult",), "", ids, lists, mult_rows),
        (("rr_diagonal_factor",), "", ids, lists, diagonal_rows),
        (("rr_cross", "correction", "exceptional_s"), "crossing ", indices, numbers, crossing_rows),
    )
    certificate = BoundCertificate(
        receipts=Receipts(groups, tuple(tail)),
        degree=d,
        report=report,
        fibration_inputs=fibration,
    )
    return found, certificate, None


def degree_linear_certificate(
    base: BaseGeometry,
    cover: CoverDescription,
    fibration: Optional[FibrationInputs] = None,
) -> BoundCertificate:
    """The linear degree bound with per-term receipts: :func:`examine`'s certificate.

    Raises :class:`InvalidInputError`: :func:`~ramcov.model.check_references`'
    error when a reference does not resolve, else :func:`examine`'s, which
    names the first point, in crossing index order, whose local type breaks
    a range or gcd constraint.
    """
    _, certificate, error = examine(base, cover, fibration)
    if error is not None:
        raise InvalidInputError(error)
    return certificate
