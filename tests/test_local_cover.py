"""Lattice subgroup classification and enumeration.

Canonical bases are cross-checked two independent ways: via an explicit
membership formula for Hermite-form representatives, and by invariance
under unimodular changes of the generating pair.  Enumeration counts are
checked against the divisor-sum function from sympy.
"""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcov.errors import EnumerationLimitError, InvalidInputError
from ramcov.hj import SingularityType
from ramcov.local_cover import (
    ENUMERATION_CAP,
    LatticeSubgroup,
    LocalCoverType,
    canonical_basis,
    check_enumeration_bound,
    enumerate_subgroups,
    local_type,
)


def member_of_hermite(a, c, m, v):
    """(x, y) lies in the subgroup generated by (a, 0), (c, m)."""
    x, y = v
    if y % m:
        return False
    return (x - (y // m) * c) % a == 0


def test_subgroup_validation():
    LatticeSubgroup((2, 0), (1, 1))
    with pytest.raises(InvalidInputError):
        LatticeSubgroup((2, 0), (4, 0))
    with pytest.raises(InvalidInputError):
        LatticeSubgroup((0, 0), (0, 1))
    with pytest.raises(InvalidInputError):
        LatticeSubgroup((2, 0), (1,))  # type: ignore[arg-type]


class _Int(int):
    pass


class _Pair(tuple):
    pass


@pytest.mark.parametrize(
    "g1,g2,message",
    [
        ([2, 0], (1, 1), "generators must be integer pairs (got [2, 0])"),
        ((2, 0), (True, 1), "generator coordinate must be an integer (got True)"),
        ((2, 0), (1, 1.0), "generator coordinate must be an integer (got 1.0)"),
        ((2, 0, 0), (1, 1), "generators must be integer pairs (got (2, 0, 0))"),
        ((2, 0), "11", "generators must be integer pairs (got '11')"),
        ((2, 0), (4, 0), "generators must be linearly independent (got (2, 0), (4, 0))"),
        ((_Int(2), 0), (0, 0), "generators must be linearly independent (got (2, 0), (0, 0))"),
    ],
)
def test_subgroup_rejection_messages(g1, g2, message):
    with pytest.raises(InvalidInputError) as info:
        LatticeSubgroup(g1, g2)
    assert str(info.value) == message


def test_subgroup_accepts_int_and_tuple_subclasses():
    # Not exact tuples of exact ints, but integer pairs all the same.
    gamma = LatticeSubgroup(_Pair((_Int(2), 0)), (1, _Int(1)))
    assert gamma.index == 2
    assert local_type(gamma) == LocalCoverType(n=2, q=1, m1=1, m2=1)


def test_canonical_basis_examples():
    assert canonical_basis(LatticeSubgroup((1, 0), (0, 1))) == (1, 0, 1)
    assert canonical_basis(LatticeSubgroup((2, 0), (1, 1))) == (2, 1, 1)
    assert canonical_basis(LatticeSubgroup((4, 0), (2, 1))) == (4, 2, 1)


def test_local_type_examples():
    lt = local_type(LatticeSubgroup((1, 0), (0, 1)))
    assert (lt.n, lt.q, lt.m1, lt.m2) == (1, 0, 1, 1)
    assert lt.d_y == 1 and lt.e1 == 1 and lt.e2 == 1
    assert lt.singularity() is None

    lt = local_type(LatticeSubgroup((2, 0), (1, 1)))
    assert (lt.n, lt.q, lt.m1, lt.m2) == (2, 1, 1, 1)
    assert lt.d_y == 2 and (lt.e1, lt.e2) == (2, 2)
    assert lt.singularity() == SingularityType(2, 1)

    lt = local_type(LatticeSubgroup((2, 0), (0, 2)))
    assert (lt.n, lt.q, lt.m1, lt.m2) == (1, 0, 2, 2)
    assert lt.d_y == 4 and (lt.e1, lt.e2) == (2, 2)

    lt = local_type(LatticeSubgroup((4, 0), (2, 1)))
    assert (lt.n, lt.q, lt.m1, lt.m2) == (2, 1, 2, 1)
    assert lt.d_y == 4 and (lt.e1, lt.e2) == (4, 2)
    assert lt.singularity() == SingularityType(2, 1)


def test_local_type_invariant_problems():
    assert LocalCoverType(n=2, q=1, m1=1, m2=1).invariant_problems() == []
    assert LocalCoverType(n=1, q=0, m1=3, m2=2).invariant_problems() == []
    assert LocalCoverType(n=4, q=2, m1=1, m2=1).invariant_problems()  # gcd
    assert LocalCoverType(n=3, q=0, m1=1, m2=1).invariant_problems()  # q=0, n>1
    assert LocalCoverType(n=2, q=5, m1=1, m2=1).invariant_problems()  # range
    assert LocalCoverType(n=0, q=0, m1=1, m2=1).invariant_problems()  # n < 1
    assert LocalCoverType(n=2, q=1, m1=0, m2=1).invariant_problems()  # m1 < 1
    assert LocalCoverType(n=3, q=2, m1=1, m2=0).invariant_problems() == [
        "m2 must be >= 1 (got 0)"
    ]
    assert LocalCoverType(n=3, q=2, m1=-1, m2=-4).invariant_problems() == [
        "m1 must be >= 1 (got -1)",
        "m2 must be >= 1 (got -4)",
    ]


def test_enumeration_counts_match_divisor_sums():
    subgroups = enumerate_subgroups(6)
    assert len(subgroups) == 33
    counts = {}
    for g in subgroups:
        counts[g.index] = counts.get(g.index, 0) + 1
    for k in range(1, 7):
        assert counts[k] == int(sympy.divisor_sigma(k, 1)), k
    assert len(enumerate_subgroups(1)) == 1
    assert len(enumerate_subgroups(2)) == 4


def test_enumeration_is_deterministic_and_duplicate_free():
    first = enumerate_subgroups(12)
    second = enumerate_subgroups(12)
    assert first == second
    assert len(set(first)) == len(first)
    for g in first:
        # Hermite representative: lower triangular, first column positive,
        # shear reduced
        assert g.g1[1] == 0 and g.g1[0] >= 1
        assert g.g2[1] >= 1 and 0 <= g.g2[0] < g.g1[0]


def test_enumeration_cap():
    with pytest.raises(EnumerationLimitError, match="max_index 1001 exceeds the enumeration cap 1000"):
        enumerate_subgroups(ENUMERATION_CAP + 1)
    # The cap itself passes the check; enumerating to it would take seconds.
    assert ENUMERATION_CAP == 1000
    assert check_enumeration_bound("max_index", ENUMERATION_CAP, 1) is None
    with pytest.raises(InvalidInputError):
        enumerate_subgroups(0)


def test_canonical_basis_against_membership_formula():
    for g in enumerate_subgroups(25):
        a, m = g.g1[0], g.g2[1]
        c = g.g2[0]
        n_prime, q_prime, m2 = canonical_basis(g)
        assert member_of_hermite(a, c, m, (n_prime, 0))
        assert member_of_hermite(a, c, m, (q_prime, m2))
        assert n_prime * m2 == g.index
        # minimality of both canonical generators
        assert not any(member_of_hermite(a, c, m, (t, 0)) for t in range(1, n_prime))
        assert not any(
            member_of_hermite(a, c, m, (x, y))
            for y in range(1, m2)
            for x in range(n_prime)
        )


_UNIMODULAR = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((0, -1), (1, 0)),
    ((2, 1), (1, 1)),
    ((3, -2), (1, -1)),
]


def test_canonical_basis_invariant_under_generator_change():
    for g in enumerate_subgroups(15):
        expected = canonical_basis(g)
        for (p, q_), (r, s) in _UNIMODULAR:
            assert p * s - q_ * r in (1, -1)
            h1 = (p * g.g1[0] + q_ * g.g2[0], p * g.g1[1] + q_ * g.g2[1])
            h2 = (r * g.g1[0] + s * g.g2[0], r * g.g1[1] + s * g.g2[1])
            assert canonical_basis(LatticeSubgroup(h1, h2)) == expected


@settings(max_examples=300)
@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
def test_local_type_identities_random(a, b, c, d):
    if a * d - b * c == 0:
        return
    g = LatticeSubgroup((a, b), (c, d))
    lt = local_type(g)
    assert lt.d_y == g.index
    assert lt.e1 == lt.n * lt.m1 and lt.e2 == lt.n * lt.m2
    assert lt.invariant_problems() == []
    assert g.contains((lt.e1, 0))
    assert g.contains((lt.q * lt.m1, lt.m2))


def test_axis_swap_duality_exhaustive():
    for g in enumerate_subgroups(30):
        lt = local_type(g)
        sw = local_type(g.swapped())
        assert sw.n == lt.n
        assert (sw.m1, sw.m2) == (lt.m2, lt.m1)
        if lt.n > 1:
            assert (lt.q * sw.q) % lt.n == 1
        else:
            assert sw.q == 0


def test_membership_by_cramer():
    g = LatticeSubgroup((4, 0), (2, 1))
    assert g.contains((4, 0))
    assert g.contains((2, 1))
    assert g.contains((6, 1))
    assert g.contains((0, 2))
    assert not g.contains((2, 0))
    assert not g.contains((1, 1))
