"""deg_det of cyclic covers of C x P1 against the Esnault-Viehweg splitting.

The covers are :func:`ramcov.golden.ruled_cyclic_cover`'s: the Z/n cover of
``C x P1``, ``g(C) = g``, branched on fibres ``F0, F1, ...`` with unit
weights ``w_k`` and sections ``S0, S1, ...`` with unit weights ``v_l``,
each family summing to 0 mod n.  Over the crossing of a fibre of weight
``w`` and a section of weight ``v`` sits a quotient point of type
``1/n(1, q)`` for a ``q`` that the weights choose, so most draws are not du
Val.

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
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcov.errors import InvalidInputError
from ramcov.golden import ruled_cyclic_cover
from ramcov.invariants import examine, linear_coefficient
from ruled_documents import ruled_cover, ruled_weights, unit_weights
from test_metamorphic import base_change


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


@settings(max_examples=300, deadline=None)
@given(ruled_weights(), st.integers(2, 5), st.integers(0, 4))
def test_deg_det_of_a_cyclic_cover_of_c_x_p1_is_its_esnault_viehweg_sum(drawn, m, extra):
    g, n, fibre_weights, section_weights = drawn
    base, cover = ruled_cover(g, n, fibre_weights, section_weights)
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
    base, cover = ruled_cover(1, 5, [1, 4], [1, 1, 3])
    assert ev_deg_det(5, [1, 4], [1, 1, 3]) == 2
    assert cover.points_for(3)[0].local_cover_type().q == 1
    violations, certificate, error = examine(base, cover, strict=True)
    assert (violations, error, certificate.report.deg_det) == ([], None, 2)


@pytest.mark.parametrize("n", range(2, 40))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_the_closed_form_is_the_esnault_viehweg_sum(n, data):
    fibre_weights, section_weights = data.draw(unit_weights(n)), data.draw(unit_weights(n))
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
    base, cover = ruled_cover(1, n, fibre_weights, section_weights)
    violations, certificate, error = examine(base, cover, strict=True)
    assert (violations, error) == ([], None)
    assert certificate.report.deg_det == closed_deg_det(n, fibre_weights, section_weights)


@pytest.mark.parametrize("n", range(3, 32))
def test_linear_coefficient_along_the_all_ones_tower(n):
    # n fibres and n sections of weight 1 on P1 x P1.  The linear coefficient
    # is (3n^2 + 2n + 8)/4 and deg_det = n^3/3 + O(n^2), so deg_det/(c d)
    # rises from 0.065 at n = 3 to 0.393 at n = 31, towards 4/9.
    ones = [1] * n
    base, cover = ruled_cover(0, n, ones, ones)
    violations, certificate, error = examine(base, cover, strict=True)
    assert (violations, error) == ([], None) and certificate.satisfied
    c = Fraction(3 * n * n + 2 * n + 8, 4)
    assert linear_coefficient(base) == certificate.linear_coefficient == c
    assert certificate.deg_det == closed_deg_det(n, ones, ones)
    assert 0 < certificate.deg_det / (c * n) < Fraction(4, 9)


@pytest.mark.parametrize("g, n, fibres, sections, message", [
    (0, 4, {"F0": 1, "F1": 2}, {}, "weight 2 of 'F1' is not a unit mod 4"),
    (0, 5, {"F0": 1, "F1": 4}, {"S0": 1, "S1": 1}, "section weights sum to 2 mod 5, not 0"),
    (0, 5, {"F0": 1.0, "F1": 4}, {}, "weight of 'F0' must be an integer (got 1.0)"),
    (-1, 2, {}, {}, "genus g must be >= 0 (got -1)"),
    (0, 0, {}, {}, "cyclic order n must be >= 1 (got 0)"),
    (True, 2, {}, {}, "genus g must be an integer (got True)"),
    (0, 2.0, {}, {}, "cyclic order n must be an integer (got 2.0)"),
])
def test_the_builder_refuses_bad_input_in_one_line(g, n, fibres, sections, message):
    with pytest.raises(InvalidInputError) as raised:
        ruled_cyclic_cover(g, n, fibres, sections)
    assert str(raised.value) == message
