"""Continued fraction expansion, evaluation, and discrepancy solving.

The two directions of the expansion check each other; the discrepancy
solver is checked against an independent exact linear solve (sympy) on the
full tridiagonal system.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcov.errors import InvalidInputError
from ramcov.hj import (
    HJChain,
    ResolutionData,
    SingularityType,
    chain_length,
    discrepancies,
    hj_evaluate,
    hj_expand,
    resolution_numbers,
    resolve,
)
from ramcov.hj import _dedekind12  # private: checked against its definition


def oracle_discrepancies(entries):
    """Exact solve of the tridiagonal system with a general-purpose CAS."""
    lam = len(entries)
    m = sympy.zeros(lam, lam)
    for i, bi in enumerate(entries):
        m[i, i] = bi
        if i > 0:
            m[i, i - 1] = -1
        if i + 1 < lam:
            m[i, i + 1] = -1
    rhs = sympy.Matrix([2 - bi for bi in entries])
    sol = m.LUsolve(rhs)
    return tuple(Fraction(int(x.p), int(x.q)) for x in sol)


# --- types ----------------------------------------------------------------


def test_singularity_type_validation():
    SingularityType(2, 1)
    SingularityType(7, 5)
    with pytest.raises(InvalidInputError):
        SingularityType(1, 1)
    with pytest.raises(InvalidInputError):
        SingularityType(4, 0)
    with pytest.raises(InvalidInputError):
        SingularityType(4, 4)
    with pytest.raises(InvalidInputError):
        SingularityType(4, 2)  # gcd 2
    with pytest.raises(InvalidInputError):
        SingularityType(5, -1)


@pytest.mark.parametrize(
    "n,q,message",
    [
        (2.0, 1, "n must be an integer (got 2.0)"),
        (5, "2", "q must be an integer (got '2')"),
        (None, 1, "n must be an integer (got None)"),
        (5, True, "q must be an integer (got True)"),
        (True, 1, "n must be an integer (got True)"),
    ],
)
def test_singularity_type_rejects_non_integers(n, q, message):
    with pytest.raises(InvalidInputError) as info:
        SingularityType(n, q)
    assert str(info.value) == message


class _Int(int):
    pass


def test_singularity_type_accepts_int_subclasses():
    sing = SingularityType(_Int(5), _Int(2))
    assert sing == SingularityType(5, 2)
    assert hj_expand(sing).b == (3, 2)
    assert resolution_numbers(SingularityType(_Int(5), 2)) == resolution_numbers(sing)


def test_chain_validation():
    assert HJChain((2, 3)).length == 2
    assert HJChain((4,)).length == 1 and not hasattr(HJChain, "__len__")
    with pytest.raises(InvalidInputError):
        HJChain(())
    with pytest.raises(InvalidInputError):
        HJChain((2, 1))
    with pytest.raises(InvalidInputError):
        HJChain((0,))


def test_du_val_flag():
    assert SingularityType(2, 1).is_du_val
    assert SingularityType(9, 8).is_du_val
    assert not SingularityType(9, 2).is_du_val


# --- expansion / evaluation ----------------------------------------------


def test_expand_examples():
    assert hj_expand(SingularityType(2, 1)).b == (2,)
    assert hj_expand(SingularityType(5, 2)).b == (3, 2)
    assert hj_expand(SingularityType(7, 5)).b == (2, 2, 3)
    assert hj_expand(SingularityType(4, 1)).b == (4,)
    assert hj_expand(SingularityType(12, 5)).b == (3, 2, 3)


def test_evaluate_examples():
    assert hj_evaluate(HJChain((2,))) == 2
    assert hj_evaluate(HJChain((3, 2))) == Fraction(5, 2)
    assert hj_evaluate(HJChain((2, 2, 3))) == Fraction(7, 5)
    assert hj_evaluate(HJChain((4,))) == 4
    assert hj_evaluate(HJChain((2,) * 9)) == Fraction(10, 9)


def test_evaluate_rejects_bad_chains():
    with pytest.raises(InvalidInputError):
        hj_evaluate(HJChain(()))
    with pytest.raises(InvalidInputError):
        hj_evaluate(HJChain((3, 1)))
    # A list would make an unhashable chain unequal to the tuple's.
    with pytest.raises(InvalidInputError, match="must be a tuple"):
        HJChain([2, 3])


def test_roundtrip_small_exhaustive():
    for n in range(2, 61):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            chain = hj_expand(SingularityType(n, q))
            assert hj_evaluate(chain) == Fraction(n, q), (n, q)


# The chain of A_{n, n-1} has n - 1 entries, so one example near n = 10^6
# costs a few hundred ms: the deadline is sized to that linear cost.
@settings(max_examples=200, deadline=2000)
@given(st.integers(min_value=2, max_value=10**6), st.data())
def test_roundtrip_random(n, data):
    q = data.draw(st.integers(min_value=1, max_value=n - 1))
    # reduce to a coprime pair instead of discarding the draw
    g = math.gcd(n, q)
    n, q = n // g, q // g
    chain = hj_expand(SingularityType(n, q))
    value = hj_evaluate(chain)
    assert value.numerator == n and value.denominator == q


def test_reversal_swaps_q_for_its_inverse():
    for n in range(2, 50):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            reverse = tuple(reversed(hj_expand(SingularityType(n, q)).b))
            assert reverse == hj_expand(SingularityType(n, pow(q, -1, n))).b, (n, q)


# --- discrepancies --------------------------------------------------------


def test_discrepancy_examples():
    # (v, c) with v_i = n a_i and c = n * correction
    assert discrepancies(HJChain((3,))) == ((-1,), -1)  # n = 3
    assert discrepancies(HJChain((3, 2))) == ((-2, -1), -2)  # n = 5
    assert discrepancies(HJChain((2, 2, 2))) == ((0, 0, 0), 0)  # n = 4
    assert discrepancies(HJChain((4,))) == ((-2,), -4)  # n = 4


def test_discrepancies_match_cas_solve_on_expansions():
    for n in range(2, 40):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            chain = hj_expand(SingularityType(n, q))
            v, _ = discrepancies(chain)
            assert tuple(Fraction(vi, n) for vi in v) == oracle_discrepancies(chain.b), (n, q)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=12))
def test_discrepancies_match_cas_solve_on_arbitrary_chains(entries):
    chain = HJChain(tuple(entries))
    v, c = discrepancies(chain)
    n = hj_evaluate(chain).numerator
    a = tuple(Fraction(vi, n) for vi in v)
    assert a == oracle_discrepancies(entries)
    assert Fraction(c, n) == sum(ai * (bi - 2) for ai, bi in zip(a, entries))


def test_reversed_chain_has_reversed_discrepancies():
    # Reversing the chain swaps its two continuant recursions.
    for n in range(2, 200):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            chain = hj_expand(SingularityType(n, q))
            v, c = discrepancies(chain)
            assert discrepancies(HJChain(tuple(reversed(chain.b)))) == (v[::-1], c), (n, q)


def test_resolution_data_invariants():
    data = resolve(SingularityType(12, 5))
    assert data.chain.b == (3, 2, 3)
    assert data.v == (-6, -6, -6) and data.correction_num == -12
    assert data.a == (Fraction(-1, 2),) * 3 and data.correction == -1
    w = (0, *data.v, 0)
    assert all(
        bi * w[i + 1] - w[i] - w[i + 2] == (2 - bi) * 12 for i, bi in enumerate(data.chain.b)
    )
    assert all(-1 < ai <= 0 for ai in data.a)
    assert -12 < data.correction <= 2

    with pytest.raises(InvalidInputError):
        ResolutionData(
            sing=SingularityType(5, 2),
            chain=HJChain((3, 2)),
            v=(-2,),  # wrong length
            correction_num=-2,
        )
    with pytest.raises(InvalidInputError, match=r"must lie in \(-1, 0\] \(got a_1 = -7/5\)"):
        ResolutionData(
            sing=SingularityType(5, 2),
            chain=HJChain((3, 2)),
            v=(-7, -1),  # out of range
            correction_num=-2,
        )


def test_du_val_chains():
    for n in range(2, 31):
        data = resolve(SingularityType(n, n - 1))
        assert data.chain.b == (2,) * (n - 1)
        assert set(data.a) == {0}
        assert data.correction == 0


def test_bounds_small_exhaustive():
    for n in range(2, 81):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            data = resolve(SingularityType(n, q))
            b = data.chain.b
            assert len(b) <= n
            assert all(2 <= bi <= n for bi in b)
            assert sum(bi - 2 for bi in b) <= n - q - 1
            assert -n < data.correction <= 2


def test_chain_length_matches_the_expansion():
    # The O(log n) count from the regular continued fraction against the
    # length of the chain the remainder recursion builds.
    for n in range(2, 300):
        for q in range(1, n):
            if math.gcd(n, q) == 1:
                sing = SingularityType(n, q)
                assert chain_length(sing) == hj_expand(sing).length, (n, q)


def test_resolution_numbers_match_the_chain():
    # The O(log n) closed form against the chain resolve builds and the
    # correction its continuants give, integer against integer.
    for n in range(2, 400):
        for q in range(1, n):
            if math.gcd(n, q) == 1:
                sing = SingularityType(n, q)
                data = resolve(sing)
                assert resolution_numbers(sing) == (data.chain.length, data.correction_num), (n, q)


def _closed_form_pairs():
    """Every coprime ``(n, q)`` with ``n < 300``, then 2 000 drawn with ``n < 10**30``."""
    for n in range(2, 300):
        yield from ((n, q) for q in range(1, n) if math.gcd(n, q) == 1)
    rnd = random.Random(5701)
    for _ in range(2000):
        n = rnd.randrange(2, 10**30)
        q = rnd.randrange(1, n)
        while math.gcd(n, q) != 1:
            q = rnd.randrange(1, n)
        yield n, q


def test_resolution_numbers_satisfy_their_dualities():
    # Reversing the chain (q -> q') keeps both numbers; the dual chain of
    # A_{n,n-q} has length lambda + 1 + (T(q, n) - q - q')/n (Riemenschneider
    # duality with the entry sum above), and T is odd in q, so the two
    # corrections sum to 4n - 4 - n(lambda + mu).  The O(log n) forms alone,
    # no chain built, so the orders reach 10**30.
    for n, q in _closed_form_pairs():
        q_inv = pow(q, -1, n)
        t = _dedekind12(q, n)
        lam, c = resolution_numbers(SingularityType(n, q))
        mu, c_dual = resolution_numbers(SingularityType(n, n - q))
        assert (t - q - q_inv) % n == 0, (n, q)
        assert mu == lam + 1 + (t - q - q_inv) // n, (n, q)
        assert resolution_numbers(SingularityType(n, q_inv)) == (lam, c), (n, q)
        assert c + c_dual == 4 * n - 4 - n * (lam + mu), (n, q)
        assert _dedekind12(n - q, n) == -t, (n, q)


def test_dedekind_term_is_twelve_n_times_the_dedekind_sum():
    # T(q, n) = 12 n s(q, n), with s summed from its definition.
    def saw(x: Fraction) -> Fraction:
        return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)

    for n in range(1, 40):
        for q in range(0, n):
            if math.gcd(n, q) == 1:
                s = sum((saw(Fraction(i, n)) * saw(Fraction(q * i, n)) for i in range(1, n)), Fraction(0))
                assert _dedekind12(q, n) == 12 * n * s, (q, n)


def test_resolution_numbers_at_a_huge_order():
    # A_{n,n-1} has a chain of n - 1 twos and no correction; A_{n,1} one entry n.
    n = 10**18
    assert resolution_numbers(SingularityType(n, n - 1)) == (n - 1, 0)
    assert resolution_numbers(SingularityType(n, 1)) == (1, -((n - 2) ** 2))
