"""deg_det of cyclic covers of C x P1 against the Esnault-Viehweg splitting.

The base is ``C x P1`` for a curve ``C`` of genus ``g``, fibred over ``C`` by
its first projection, branched on fibres ``{c_k} x P1`` and sections
``C x {t_l}``.  The cover is the Z/n cover whose branch weights are units:
``w_k`` on the fibres and ``v_l`` on the sections, each family summing to 0
mod n.  Every line is totally ramified, so it lies under one sheet with
``e = n`` and ``f = 1``, and over the crossing of a fibre of weight ``w``
and a section of weight ``v`` sits one point whose lattice is the kernel
of ``(s, t) -> s w + t v`` mod n, generated by ``(n, 0)`` and ``(c, 1)``
with ``w c + v = 0`` mod n.  Its quotient point is of type ``1/n(1, q)``
for a ``q`` that the weights choose, so most draws are not du Val.

The oracle shares no code with ``ramcov.invariants`` or ``ramcov.hj``.
The pushforward of ``O_Y`` splits into eigensheaves ``O(-L_i)``,
``0 <= i < n``, with ``L_i = p_i F + q_i S``, where ``p_i = sum_k {i w_k / n}``
and ``q_i = sum_l {i v_l / n}`` are integers and ``F``, ``S`` are the classes
of a fibre and a section (Esnault-Viehweg).  On ``C x P1``,
``chi(O(-pF - qS)) = (1 - g - p)(1 - q)`` and its fibre rank is ``1 - q``,
so the degree of the determinant of its pushforward to ``C`` is
``chi - rank (1 - g) = -p (1 - q)``, and ``deg_det`` is the sum of these
over ``0 < i < n``.  The genus cancels: the walk's ``(1 - g_C)`` factors
must too.

That sum takes n steps.  For units ``u`` and ``v``,
``sum_{0<i<n} {i u / n} {i v / n} = s(v u^-1, n) + (n - 1)/4``, where ``s``
is the Dedekind sum, and ``sum_{0<i<n} {i u / n} = (n - 1)/2``, so with ``r``
fibres ``deg_det = -r (n - 1)/2 + sum_{k, l} [s(v_l w_k^-1, n) + (n - 1)/4]``.
The test's Dedekind sum follows reciprocity in O(log n) steps and shares
no code with ``ramcov.hj``'s, which the walk's corrections use, so the
comparison at n past 10^18 cannot pass through one fault made twice.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramcov.invariants import examine
from ramcov.local_cover import LatticeSubgroup
from ramcov.model import (
    BaseGeometry, BranchComponent, CoverDescription, Crossing, PointAbove, RamSheet,
)
from test_metamorphic import base_change


def ruled_cyclic_cover(g: int, n: int, fibre_weights, section_weights):
    """The Z/n cover of ``C x P1``, ``g(C) = g``, with these unit weights on fibres and sections."""
    fibres = [f"F{k}" for k in range(len(fibre_weights))]
    sections = [f"S{l}" for l in range(len(section_weights))]
    components = [
        BranchComponent(id=cid, genus=0, self_int=0, KX_dot=-2, fiber_deg=0) for cid in fibres
    ] + [
        BranchComponent(id=cid, genus=g, self_int=0, KX_dot=2 * g - 2, fiber_deg=1)
        for cid in sections
    ]
    pairs = [(f, s) for f in fibres for s in sections]
    base = BaseGeometry(
        genus_C=g,
        KX_sq=8 * (1 - g),
        euler_X=4 * (1 - g),
        KX_dot_F=-2,
        components=tuple(components),
        crossings=tuple(Crossing(index=x, pair=pair) for x, pair in enumerate(pairs)),
        pair_counts=tuple((pair, 1) for pair in pairs),
    )
    sheet = (RamSheet(e=n, f=1),)
    points_above = []
    for x, (w, v) in enumerate((w, v) for w in fibre_weights for v in section_weights):
        c = -v * pow(w, -1, n) % n
        lattice = LatticeSubgroup((n, 0), (c, 1))
        points_above.append((x, (PointAbove(j=0, jp=0, local=lattice),)))
    cover = CoverDescription(
        degree=n,
        ramification=tuple((cid, sheet) for cid in fibres + sections),
        points_above=tuple(points_above),
    )
    return base, cover


def ev_deg_det(n: int, fibre_weights, section_weights) -> int:
    """``sum_{0<i<n} -p_i (1 - q_i)``: the Esnault-Viehweg height of the cover above."""
    total = 0
    for i in range(1, n):
        p = sum(Fraction(i * w % n, n) for w in fibre_weights)
        q = sum(Fraction(i * v % n, n) for v in section_weights)
        assert p.denominator == q.denominator == 1
        total += -p * (1 - q)
    return int(total)


def dedekind_sum(h: int, k: int) -> Fraction:
    """``s(h, k)`` for coprime ``h`` and ``k > 0``, by reciprocity.

    ``s(h, k) = s(h mod k, k)`` and ``s(h, k) + s(k, h) = (h/k + k/h +
    1/(hk))/12 - 1/4`` for coprime positive ``h`` and ``k``; ``s(0, 1) = 0``.
    """
    total, sign = Fraction(0), 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k, sign = k % h, h, -sign
    return total


def closed_deg_det(n: int, fibre_weights, section_weights) -> Fraction:
    """:func:`ev_deg_det` in O(log n) steps per crossing, through Dedekind sums."""
    return Fraction(-len(fibre_weights) * (n - 1), 2) + sum(
        dedekind_sum(v * pow(w, -1, n), n) + Fraction(n - 1, 4)
        for w in fibre_weights
        for v in section_weights
    )


def _sawtooth(x: Fraction) -> Fraction:
    return x - math.floor(x) - Fraction(1, 2) if x.denominator > 1 else Fraction(0)


def test_dedekind_sum_by_reciprocity_is_its_defining_sum():
    for k in range(1, 60):
        for h in range(k):
            if math.gcd(h, k) == 1:
                assert dedekind_sum(h, k) == sum(
                    _sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k)
                ), (h, k)


@st.composite
def _unit_weights(draw, n: int):
    """2 to 4 units mod n summing to 0 mod n; a single unit cannot."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    # Units of an even n are odd, so an even n needs an even count.
    count = draw(st.sampled_from([2, 4] if n % 2 == 0 else [2, 3, 4]))
    weights = draw(st.lists(st.sampled_from(units), min_size=count - 1, max_size=count - 1))
    last = -sum(weights) % n
    assume(math.gcd(last, n) == 1)
    return weights + [last]


@st.composite
def _ruled_covers(draw):
    n = draw(st.integers(2, 23))
    g = draw(st.integers(0, 3))
    return g, n, draw(_unit_weights(n)), draw(_unit_weights(n))


@settings(max_examples=300, deadline=None)
@given(_ruled_covers(), st.integers(2, 5), st.integers(0, 4))
def test_deg_det_of_a_cyclic_cover_of_c_x_p1_is_its_esnault_viehweg_sum(drawn, m, extra):
    g, n, fibre_weights, section_weights = drawn
    base, cover = ruled_cyclic_cover(g, n, fibre_weights, section_weights)
    violations, certificate, error = examine(base, cover, strict=True)
    assert (violations, error) == ([], None)
    assert certificate.satisfied
    assert certificate.report.deg_det == ev_deg_det(n, fibre_weights, section_weights)
    # Base change along C' -> C of degree m: each fibre becomes m fibres of
    # its weight, so the changed cover is the one on C' x P1 with the fibre
    # weights repeated m times, and its height is m times this one's.
    R = max(0, 2 * m - 2 - 2 * m * g) + 2 * extra  # the least even R with g' >= 0, plus extra
    violations, changed, error = examine(*base_change((base, cover), m, R), strict=True)
    assert (violations, error) == ([], None)
    assert changed.report.deg_det == m * certificate.report.deg_det == ev_deg_det(
        n, fibre_weights * m, section_weights
    )


def test_a_cover_of_an_elliptic_ruled_surface_by_hand():
    # n = 5 on E x P1, fibre weights (1, 4) and section weights (1, 1, 3).
    # p_i = {i/5} + {4i/5} = 1 for every i; q_i = 2{i/5} + {3i/5} is 1, 1,
    # 2, 2 for i = 1..4, so deg_det = 0 + 0 + 1 + 1 = 2.  Over F1 and S0
    # (w = 4, v = 1, c = 1) the point is of type 1/5(1, 1), not du Val.
    base, cover = ruled_cyclic_cover(1, 5, [1, 4], [1, 1, 3])
    assert ev_deg_det(5, [1, 4], [1, 1, 3]) == 2
    assert cover.points_for(3)[0].local_cover_type().q == 1
    violations, certificate, error = examine(base, cover, strict=True)
    assert (violations, error, certificate.report.deg_det) == ([], None, 2)


@pytest.mark.parametrize("n", range(2, 40))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_the_closed_form_is_the_esnault_viehweg_sum(n, data):
    fibre_weights, section_weights = data.draw(_unit_weights(n)), data.draw(_unit_weights(n))
    assert closed_deg_det(n, fibre_weights, section_weights) == ev_deg_det(
        n, fibre_weights, section_weights
    )


@pytest.mark.parametrize("n", [10**18 + 9, 2**61 - 1, 10**30 + 57])
def test_deg_det_at_a_huge_quotient_order_is_the_closed_form(n):
    # Two fibres and three sections on an elliptic C; the ev sum would take
    # n steps, the walk and the closed form O(log n) each.
    fibre_weights = [n // 7, n - n // 7]
    section_weights = [n // 3, n // 5, n - n // 3 - n // 5]
    assert all(math.gcd(w, n) == 1 for w in fibre_weights + section_weights)
    base, cover = ruled_cyclic_cover(1, n, fibre_weights, section_weights)
    violations, certificate, error = examine(base, cover, strict=True)
    assert (violations, error) == ([], None)
    assert certificate.report.deg_det == closed_deg_det(n, fibre_weights, section_weights)
