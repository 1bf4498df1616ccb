"""Self-check sweeps: they pass on the real code and fail on corrupted code.

The mutation tests monkeypatch the functions the sweeps exercise and
assert that the sweeps notice.  Without these, a sweep that checks
nothing would look identical to a sweep that checks everything.
"""

import math
import types

import pytest
import sympy

import ramcov.verify as verify
from ramcov.errors import EnumerationLimitError, InvalidInputError
from ramcov.hj import HJChain, discrepancies, hj_evaluate, hj_expand
from ramcov.local_cover import (
    DEFAULT_ENUMERATION_CAP,
    LatticeSubgroup,
    LocalCoverType,
    enumerate_subgroups,
    local_type,
)


def test_hj_sweep_clean():
    res = verify.hj_sweep(60)
    assert res.ok
    assert res.suite == "hj"
    assert res.failures == ()
    expected = sum(int(sympy.totient(n)) for n in range(2, 61))
    assert res.checked == expected


def test_lattice_sweep_clean():
    res = verify.lattice_sweep(12)
    assert res.ok
    assert res.suite == "lattice"
    assert res.checked == sum(int(sympy.divisor_sigma(k, 1)) for k in range(1, 13))


def test_lattice_sweep_cap_propagates():
    with pytest.raises(EnumerationLimitError):
        verify.lattice_sweep(40, cap=20)


def test_hj_sweep_cap():
    with pytest.raises(EnumerationLimitError, match="max_n 21 exceeds the enumeration cap 20"):
        verify.hj_sweep(21, cap=20)
    assert verify.hj_sweep(20, cap=20).ok
    with pytest.raises(EnumerationLimitError, match="cap 1000"):
        verify.hj_sweep(DEFAULT_ENUMERATION_CAP + 1)


@pytest.mark.parametrize(
    "sweep,bound,message",
    [
        (verify.hj_sweep, 2.5, "max_n must be an integer (got 2.5)"),
        (verify.hj_sweep, "5", "max_n must be an integer (got '5')"),
        (verify.hj_sweep, True, "max_n must be an integer (got True)"),
        (verify.lattice_sweep, 3.0, "max_index must be an integer (got 3.0)"),
        (enumerate_subgroups, True, "max_index must be an integer (got True)"),
    ],
)
def test_sweep_bounds_must_be_integers(sweep, bound, message):
    # A float or a string is no bound, and a bool is not the int it equals.
    with pytest.raises(InvalidInputError) as info:
        sweep(bound)
    assert str(info.value) == message


def test_hj_sweep_detects_corrupted_expansion(monkeypatch):
    def bad_expand(sing):
        chain = hj_expand(sing)
        if sing.n == 17 and chain.length > 1:
            return HJChain(chain.b[::-1])
        return chain

    monkeypatch.setattr(verify, "hj_expand", bad_expand)
    res = verify.hj_sweep(30)
    assert not res.ok
    assert any(f.witness["n"] == 17 for f in res.failures)
    assert res.suite == "hj"


def test_hj_sweep_stop_on_failure(monkeypatch):
    def bad_expand(sing):
        chain = hj_expand(sing)
        return HJChain(chain.b + (2,)) if sing.n >= 10 else chain

    monkeypatch.setattr(verify, "hj_expand", bad_expand)
    res = verify.hj_sweep(30)
    assert not res.ok
    # stops at the first bad witness, though several properties may fire on it
    assert len({(f.witness["n"], f.witness["q"]) for f in res.failures}) == 1
    assert res.checked < sum(int(sympy.totient(n)) for n in range(2, 31))
    assert all(f.message for f in res.failures)


def test_hj_sweep_detects_a_discrepancy_off_by_one(monkeypatch):
    def bad_discrepancies(chain):
        v, c = discrepancies(chain)
        if len(v) == 3:
            v = (v[0], v[1] - 1, v[2])
        return v, c

    monkeypatch.setattr(verify, "discrepancies", bad_discrepancies)
    res = verify.hj_sweep(30)
    props = {f.prop for f in res.failures}
    assert "recursion-residual" in props
    assert all(len(f.witness["chain"]) == 3 for f in res.failures)


def _shift_entry(k, as_list):
    """A ``discrepancies`` that lowers entry ``k`` (negative from the end) of chains of length 5."""

    def shifted(chain):
        v, c = discrepancies(chain)
        if len(v) == 5:
            v = list(v)
            v[k] -= 1
            v = v if as_list else tuple(v)
        return v, c

    return shifted


@pytest.mark.parametrize("as_list", [False, True], ids=["tuple", "list"])
@pytest.mark.parametrize("k,index", [(0, 1), (2, 2), (-1, 4)], ids=["first", "middle", "last"])
def test_hj_sweep_names_the_first_index_with_a_nonzero_residual(monkeypatch, k, index, as_list):
    # A shifted v_j breaks the recursion at j - 1, j and j + 1 where those
    # exist, so the first index named is j - 1, or 1 when j = 1.
    monkeypatch.setattr(verify, "discrepancies", _shift_entry(k, as_list))
    res = verify.hj_sweep(30)
    residual = [f for f in res.failures if f.prop == "recursion-residual"]
    assert len(residual) == 1 and len(residual[0].witness["chain"]) == 5
    assert residual[0].message == f"nonzero residual at index {index}"


def test_hj_sweep_reports_a_short_discrepancy_vector(monkeypatch):
    def bad_discrepancies(chain):
        v, c = discrepancies(chain)
        return v[:-1], c

    monkeypatch.setattr(verify, "discrepancies", bad_discrepancies)
    res = verify.hj_sweep(10)
    assert (res.failures[0].prop, res.failures[0].witness["n"]) == ("discrepancy-length", 2)
    assert "recursion-residual" not in {f.prop for f in res.failures}


def test_hj_sweep_detects_a_correction_off_by_one(monkeypatch):
    # A wrong correction inside the range (-n, 2] is caught only by
    # comparing it with the sum it is defined as.
    def bad_discrepancies(chain):
        v, c = discrepancies(chain)
        return v, (c - 1 if chain.b == (3, 2) else c)

    monkeypatch.setattr(verify, "discrepancies", bad_discrepancies)
    res = verify.hj_sweep(30)
    assert [(f.prop, f.witness["n"], f.witness["q"]) for f in res.failures] == [
        ("correction-sum", 5, 2)
    ]


def test_hj_sweep_detects_a_wrong_evaluation(monkeypatch):
    # The expansion is right; only reading it back is wrong, on one chain.
    def bad_evaluate(chain):
        value = hj_evaluate(chain)
        return value + 1 if chain.b == (2, 2, 3) else value

    monkeypatch.setattr(verify, "hj_evaluate", bad_evaluate)
    res = verify.hj_sweep(10)
    assert [(f.prop, f.witness["n"], f.witness["q"]) for f in res.failures] == [
        ("reconstruction", 7, 5)
    ]
    assert res.failures[0].message == "evaluates to 12/5, expected 7/5"


def _chain_at(target, entries):
    """An ``hj_expand`` that gives the type ``target = (n, q)`` the chain ``entries``."""

    def expand(sing):
        return HJChain(entries) if (sing.n, sing.q) == target else hj_expand(sing)

    return expand


def _correction_plus_one_at_2_2(chain):
    v, c = discrepancies(chain)
    return v, (c + 1 if chain.b == (2, 2) else c)


# (property, name patched in verify, mutant, the first type that fails)
_HJ_MUTANTS = [
    # six 2s for A_{5,4}: a chain longer than n
    ("length", "hj_expand", _chain_at((5, 4), (2,) * 6), (5, 4)),
    # four 2s for A_{5,2}: every entry 2 off the du Val line
    ("du-val-entries", "hj_expand", _chain_at((5, 2), (2,) * 4), (5, 2)),
    # a correction of 1/3 on A_{3,2}, which is du Val
    ("du-val-correction", "discrepancies", _correction_plus_one_at_2_2, (3, 2)),
    # five 2s for A_{5,4}: a du Val chain of n entries, not n - 1
    ("du-val-length", "hj_expand", _chain_at((5, 4), (2,) * 5), (5, 4)),
]


@pytest.mark.parametrize("prop,name,mutant,first", _HJ_MUTANTS, ids=[m[0] for m in _HJ_MUTANTS])
def test_hj_sweep_names_the_property_at_the_first_failing_type(
    monkeypatch, prop, name, mutant, first
):
    monkeypatch.setattr(verify, name, mutant)
    res = verify.hj_sweep(30)
    coprime = [(n, q) for n in range(2, 31) for q in range(1, n) if math.gcd(n, q) == 1]
    assert res.checked == coprime.index(first) + 1
    assert {(f.witness["n"], f.witness["q"]) for f in res.failures} == {first}
    assert prop in {f.prop for f in res.failures}


def test_lattice_sweep_detects_corrupted_classification(monkeypatch):
    def bad_type(gamma):
        lt = local_type(gamma)
        if lt.d_y == 6 and lt.n > 1:
            return LocalCoverType(n=lt.n, q=lt.n - lt.q, m1=lt.m1, m2=lt.m2)
        return lt

    monkeypatch.setattr(verify, "local_type", bad_type)
    res = verify.lattice_sweep(8)
    assert not res.ok
    assert res.suite == "lattice"


def test_lattice_sweep_detects_corrupted_enumeration(monkeypatch):
    real = verify.enumerate_subgroups

    def bad_enum(max_index, *, cap=None):
        return real(max_index, cap=cap)[:-1]

    monkeypatch.setattr(verify, "enumerate_subgroups", bad_enum)
    res = verify.lattice_sweep(6)
    assert not res.ok
    assert any(f.prop == "enumeration-count" for f in res.failures)


def test_lattice_sweep_detects_a_wrong_membership_test(monkeypatch):
    # Membership that refuses every vector off the first axis in the
    # subgroups of index 6: their canonical (q', m2) has m2 > 0.
    contains = LatticeSubgroup.contains

    def bad_contains(self, v):
        return contains(self, v) and not (self.index == 6 and v[1] != 0)

    monkeypatch.setattr(LatticeSubgroup, "contains", bad_contains)
    res = verify.lattice_sweep(8)
    assert "canonical-membership" in {f.prop for f in res.failures}
    assert res.checked == sum(int(sympy.divisor_sigma(k, 1)) for k in range(1, 6)) + 1


def test_lattice_sweep_detects_a_wrong_axis_swap(monkeypatch):
    # A swap that exchanges nothing keeps m1 and m2 in place: (1, 0), (0, 2)
    # of index 2 is the first subgroup with m1 != m2.
    monkeypatch.setattr(LatticeSubgroup, "swapped", lambda self: self)
    res = verify.lattice_sweep(8)
    assert {f.prop for f in res.failures} & {"axis-swap-shape", "axis-swap-duality"}
    assert [(f.witness["g1"], f.witness["g2"]) for f in res.failures] == [([1, 0], [0, 2])]


def _type_at(target, **changes):
    """A ``local_type`` that changes these attributes of the type of the subgroup ``target``.

    The type is a namespace of the seven attributes the sweep reads, so a
    derived one (``e1``, ``d_y``) can change alone.
    """

    def classify(gamma):
        lt = local_type(gamma)
        if (gamma.g1, gamma.g2) != target:
            return lt
        fields = {name: getattr(lt, name) for name in ("n", "q", "m1", "m2", "d_y", "e1", "e2")}
        return types.SimpleNamespace(**{**fields, **changes})

    return classify


# (test id, property, mutant, the first subgroup that fails)
_LATTICE_MUTANTS = [
    # e1 = 3 on (2, 0), (1, 1), whose n = 2 and m1 = 1
    ("ramification-split", "ramification-split",
     _type_at(((2, 0), (1, 1)), e1=3), ((2, 0), (1, 1))),
    ("positivity", "positivity", _type_at(((1, 0), (0, 2)), m1=0), ((1, 0), (0, 2))),
    # q = 2 and q = 5 on (4, 0), (1, 1), whose n = 4 and q = 1
    ("primitivity", "primitivity", _type_at(((4, 0), (1, 1)), q=2), ((4, 0), (1, 1))),
    ("q-range", "q-range", _type_at(((4, 0), (1, 1)), q=5), ((4, 0), (1, 1))),
    # q = 2 on (5, 0), (2, 1), and its swap given q = 1 in place of 3
    ("axis-swap-duality-singular", "axis-swap-duality",
     _type_at(((0, 5), (1, 2)), q=1), ((5, 0), (2, 1))),
    # the product lattice (2, 0), (0, 1), and its smooth swap given q = 1
    ("axis-swap-duality-smooth", "axis-swap-duality",
     _type_at(((0, 2), (1, 0)), q=1), ((2, 0), (0, 1))),
]


@pytest.mark.parametrize(
    "prop,mutant,first", [m[1:] for m in _LATTICE_MUTANTS], ids=[m[0] for m in _LATTICE_MUTANTS]
)
def test_lattice_sweep_names_the_property_at_the_first_failing_subgroup(
    monkeypatch, prop, mutant, first
):
    monkeypatch.setattr(verify, "local_type", mutant)
    res = verify.lattice_sweep(8)
    subgroups = [(g.g1, g.g2) for g in enumerate_subgroups(8)]
    assert res.checked == subgroups.index(first) + 1
    assert {(tuple(f.witness["g1"]), tuple(f.witness["g2"])) for f in res.failures} == {first}
    assert prop in {f.prop for f in res.failures}


def _rebased(g, a, b, c, d):
    """The same subgroup on the generators a*g1 + b*g2, c*g1 + d*g2."""
    assert abs(a * d - b * c) == 1
    (x1, y1), (x2, y2) = g.g1, g.g2
    return LatticeSubgroup((a * x1 + b * x2, a * y1 + b * y2), (c * x1 + d * x2, c * y1 + d * y2))


def test_least_axis_multiple_matches_the_scan():
    # The scan over t = 1, 2, ... is the oracle of the closed form, on the
    # Hermite generators, their axis swap, and non-Hermite generators of
    # the same subgroups, where both congruences of Cramer's rule bind;
    # (index, 0) lies in every subgroup, so the scan ends there.
    bases = [(1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1), (0, 1, -1, 3), (-3, 2, 5, -3)]
    for h in enumerate_subgroups(80):
        for g in (h, h.swapped()):
            for basis in bases:
                r = _rebased(g, *basis)
                scan = next(t for t in range(1, r.index + 1) if r.contains((t, 0)))
                assert verify._least_axis_multiple(r) == scan, r


def test_least_axis_multiple_of_literal_subgroups():
    cases = [
        (((1, 0), (0, 1)), 1),
        (((2, 0), (1, 1)), 2),
        (((1, 0), (0, 2)), 1),
        (((1, 1), (0, 2)), 2),  # (1, 0) is not in it, (2, 0) = 2(1, 1) - (0, 2) is
        (((0, 3), (2, 1)), 6),  # det -6: (t, 0) = x(0, 3) + y(2, 1) needs t = -6x
        (((0, 2), (1, 0)), 1),
    ]
    for (g1, g2), least in cases:
        assert verify._least_axis_multiple(LatticeSubgroup(g1, g2)) == least, (g1, g2)


def test_lattice_sweep_detects_a_non_minimal_first_generator(monkeypatch):
    # m1 doubled on the product lattice (3, 0), (0, 4): the first generator
    # (6, 0) and the second (0, 4) still lie in the subgroup, but (3, 0) is
    # shorter.
    def bad_type(gamma):
        lt = local_type(gamma)
        if (gamma.g1, gamma.g2) == ((3, 0), (0, 4)):
            return LocalCoverType(n=lt.n, q=lt.q, m1=2 * lt.m1, m2=lt.m2)
        return lt

    monkeypatch.setattr(verify, "local_type", bad_type)
    res = verify.lattice_sweep(12)
    props = [f.prop for f in res.failures]
    assert "first-generator-minimality" in props
    assert "canonical-membership" not in props
    assert {(tuple(f.witness["g1"]), tuple(f.witness["g2"])) for f in res.failures} == {
        ((3, 0), (0, 4))
    }
    assert "for t < 6" in res.failures[props.index("first-generator-minimality")].message


@pytest.mark.parametrize("max_index", [45, 120], ids=["45", "120"])
def test_lattice_sweep_membership_tests_per_subgroup(monkeypatch, max_index):
    # Three membership tests per subgroup, whatever the index: the two
    # canonical basis vectors and the product test.  Minimality takes none,
    # where a scan over t < n' would make 41 108 at index 45 and 61 per
    # subgroup at 120.
    calls = 0
    contains = LatticeSubgroup.contains

    def counting(self, v):
        nonlocal calls
        calls += 1
        return contains(self, v)

    monkeypatch.setattr(LatticeSubgroup, "contains", counting)
    res = verify.lattice_sweep(max_index)
    assert res.ok and calls == 3 * res.checked
