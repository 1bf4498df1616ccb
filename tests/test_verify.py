"""Self-check sweeps: they pass on the real code and fail on corrupted code.

The mutation tests monkeypatch the functions the sweeps exercise and
assert that the sweeps notice.  Without these, a sweep that checks
nothing would look identical to a sweep that checks everything.
"""

import math
import types
from fractions import Fraction

import pytest
import sympy

import ramcov.verify as verify
from ramcov.errors import EnumerationLimitError, InvalidInputError
from ramcov.hj import HJChain, SingularityType, discrepancies, hj_evaluate, hj_expand
from ramcov.local_cover import (
    ENUMERATION_CAP,
    LatticeSubgroup,
    LocalCoverType,
    check_enumeration_bound,
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
    with pytest.raises(EnumerationLimitError, match="max_index 1001 exceeds the enumeration cap 1000"):
        verify.lattice_sweep(ENUMERATION_CAP + 1)


def test_hj_sweep_cap(monkeypatch):
    def no_sweep_work(sing):
        raise AssertionError("the hj sweep started")

    monkeypatch.setattr(verify, "hj_expand", no_sweep_work)
    with pytest.raises(EnumerationLimitError, match="max_n 1001 exceeds the enumeration cap 1000"):
        verify.hj_sweep(ENUMERATION_CAP + 1)
    # The cap itself passes the check; sweeping to it would take seconds.
    assert ENUMERATION_CAP == 1000
    assert check_enumeration_bound("max_n", ENUMERATION_CAP, 2) is None


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


def _hj_at(monkeypatch, target, **given):
    """Patch ``hj_expand``, ``hj_evaluate`` and ``discrepancies`` to give the type ``target``.

    ``given`` may name its chain ``b``, its ``value``, its discrepancies
    ``v`` and its correction ``c``; what it does not name is computed as
    usual, and every other type is left alone.
    """
    at = [False]

    def expand(sing):
        at[0] = (sing.n, sing.q) == target
        return HJChain._derived(given["b"]) if at[0] and "b" in given else hj_expand(sing)

    def evaluate(chain):
        return given["value"] if at[0] and "value" in given else hj_evaluate(chain)

    def solve(chain):
        v, c = discrepancies(chain)
        return (given.get("v", v), given.get("c", c)) if at[0] else (v, c)

    monkeypatch.setattr(verify, "hj_expand", expand)
    monkeypatch.setattr(verify, "hj_evaluate", evaluate)
    monkeypatch.setattr(verify, "discrepancies", solve)


# (the properties the type fails, the type, what the mutant gives it), one
# row per property and one for the residual at the last index.  Eight fail
# alone.  Five cannot:
# * discrepancy-range: over entries >= 2 the recursion has one solution,
#   and it lies in (-n, 0], so a discrepancy out of range breaks the
#   recursion, an entry or the vector's length;
# * correction-range: the terms v_i (b_i - 2) of the correction sum lie in
#   (-n (b_i - 2), 0], so given the entry excess only a correction that is
#   not that sum leaves (-n^2, 2n];
# * du-val-entries, du-val-discrepancies, du-val-correction: given the
#   recursion, all entries are 2 exactly when every v_i is 0, and given the
#   correction sum exactly when c is 0.
_HJ_ISOLATED = [
    (["reconstruction"], (2, 1), {"value": Fraction(3)}),
    # five entries for A_{4,1}, on which the recursion has integer solutions
    (["length"], (4, 1), {"b": (2, 2, 4, 2, 2), "v": (-1, -2, -3, -2, -1), "c": -6,
                          "value": Fraction(4)}),
    # A_{8,3}'s chain (3, 3) blown up at its node: same n/q, one entry 1
    (["entry-range"], (8, 3), {"b": (4, 1, 4), "v": (-4, 0, -4), "c": -16}),
    (["entry-excess"], (5, 1), {"b": (3, 5, 2), "v": (-3, -4, -2), "c": -15,
                                "value": Fraction(5)}),
    (["discrepancy-length"], (2, 1), {"v": ()}),
    (["discrepancy-range", "recursion-residual"], (3, 1), {"v": (-3,), "c": -3}),
    # v_2 one lower on A_{9,7}: residuals -1, 2, -1 at 1, 2, 3, none at 4
    (["recursion-residual"], (9, 7), {"v": (-1, -3, -3, -4)}),
    (["correction-sum"], (3, 1), {"c": -2}),
    (["correction-sum", "correction-range"], (3, 1), {"c": -9}),
    (["du-val-entries", "du-val-discrepancies", "du-val-correction"], (3, 1),
     {"b": (2, 2), "v": (0, 0), "c": 0, "value": Fraction(3)}),
    (["recursion-residual", "du-val-discrepancies"], (2, 1), {"v": (-1,)}),
    (["correction-sum", "du-val-correction"], (2, 1), {"c": -1}),
    (["du-val-length"], (2, 1), {"b": (2, 2), "v": (0, 0), "value": Fraction(2)}),
    # a residual at the last index only, with the correction that the
    # recursion's sum would give
    (["recursion-residual", "correction-sum"], (3, 1), {"v": (-2,), "c": 1}),
]


@pytest.mark.parametrize(
    "props,target,given", _HJ_ISOLATED, ids=["+".join(row[0]) for row in _HJ_ISOLATED]
)
def test_hj_sweep_fails_each_property_at_the_first_type_that_breaks_it(
    monkeypatch, props, target, given
):
    # A property the one-pass test forgot would pass its type.
    _hj_at(monkeypatch, target, **given)
    res = verify.hj_sweep(10)
    coprime = [(n, q) for n in range(2, 11) for q in range(1, n) if math.gcd(n, q) == 1]
    assert res.checked == coprime.index(target) + 1
    chain = list(given.get("b", hj_expand(SingularityType(*target)).b))
    witness = {"n": target[0], "q": target[1], "chain": chain}
    assert [f.witness for f in res.failures] == [witness] * len(props)
    assert [f.prop for f in res.failures] == props


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

    def bad_enum(max_index):
        return real(max_index)[:-1]

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


def _types_at(changes):
    """A ``local_type`` that changes the attributes ``changes`` maps each subgroup ``(g1, g2)`` to.

    The type is a namespace of the seven attributes the sweep reads, so a
    derived one (``e1``, ``d_y``) can change alone.
    """

    def classify(gamma):
        lt = local_type(gamma)
        if (gamma.g1, gamma.g2) not in changes:
            return lt
        fields = {name: getattr(lt, name) for name in ("n", "q", "m1", "m2", "d_y", "e1", "e2")}
        return types.SimpleNamespace(**{**fields, **changes[gamma.g1, gamma.g2]})

    return classify


def _type_at(target, **changes):
    """A ``local_type`` that changes these attributes of the type of the subgroup ``target``."""
    return _types_at({target: changes})


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


_real_contains = LatticeSubgroup.contains
_real_least_axis_multiple = verify._least_axis_multiple


# (the properties the subgroup fails, the names patched in verify or on
# LatticeSubgroup with their mutants, the subgroup), one row per property,
# and one per term where the one conjunction tests a property with more
# than one.  Nine fail alone.  Two cannot: a q with q * q_swapped = 1 mod n
# is prime to n, so primitivity fails only beside axis-swap-duality; and
# n' m2 = n m1 m2, so canonical-index fails only beside index-identity.
_SMOOTH = ((1, 0), (0, 1))  # Z^2, swapped to ((0, 1), (1, 0))
_LATTICE_ISOLATED = [
    (["index-identity"], {"local_type": _type_at(_SMOOTH, d_y=2)}, _SMOOTH),
    (["ramification-split"], {"local_type": _type_at(_SMOOTH, e1=2)}, _SMOOTH),
    (["ramification-split"], {"local_type": _type_at(_SMOOTH, e2=2)}, _SMOOTH),
    # Z x 2Z typed, with its swap, as if both m were negative
    (["positivity"], {"local_type": _types_at({
        ((1, 0), (0, 2)): {"m1": -1, "m2": -2, "e1": -1, "e2": -2},
        ((0, 1), (2, 0)): {"m1": -2, "m2": -1},
    })}, ((1, 0), (0, 2))),
    # One m below 1 and the other not needs n < 0, so q = 0, and a product
    # canonical basis, which an honest membership test would make the
    # product the subgroup is not: here (2, 0) and (-2, 0) are answered as
    # members of ((4, 0), (2, 1)).
    (["positivity"], {
        "local_type": _types_at({
            ((4, 0), (2, 1)): {"n": -2, "q": 0, "m1": -1, "m2": 2, "e1": 2, "e2": -4},
            ((0, 4), (1, 2)): {"n": -2, "q": 0, "m1": 2, "m2": -1},
        }),
        "contains": lambda self, v: v == (2, 0) or _real_contains(self, v),
    }, ((4, 0), (2, 1))),
    (["positivity"], {
        "local_type": _types_at({
            ((4, 0), (2, 1)): {"n": -2, "q": 0, "m1": 1, "m2": -2, "e1": -2, "e2": 4},
            ((0, 4), (1, 2)): {"n": -2, "q": 0, "m1": -2, "m2": 1},
        }),
        "contains": lambda self, v: v == (-2, 0) or _real_contains(self, v),
    }, ((4, 0), (2, 1))),
    # n' = 4, q' = 2 not split by their gcd 2: n = 4, q = 2, m1 = 1
    (["primitivity", "axis-swap-duality"], {"local_type": _types_at({
        ((4, 0), (2, 1)): {"n": 4, "q": 2, "m1": 1, "e2": 4},
        ((0, 4), (1, 2)): {"n": 4, "m1": 1, "m2": 1},
    })}, ((4, 0), (2, 1))),
    (["q-range"], {"local_type": _type_at(_SMOOTH, q=1)}, _SMOOTH),
    # q = 1 -/+ 4 on A_{4,1}: the same q' mod n' and inverse mod 4
    (["q-range"], {"local_type": _type_at(((4, 0), (1, 1)), q=-3)}, ((4, 0), (1, 1))),
    (["q-range"], {"local_type": _type_at(((4, 0), (1, 1)), q=5)}, ((4, 0), (1, 1))),
    # q = 2 on A_{3,1}, whose swap 2 still inverts mod 3, but (2, 1) is not in it
    (["canonical-membership"], {"local_type": _types_at({
        ((3, 0), (1, 1)): {"q": 2}, ((0, 3), (1, 1)): {"q": 2},
    })}, ((3, 0), (1, 1))),
    (["index-identity", "canonical-index"], {"local_type": _types_at({
        _SMOOTH: {"m2": 2, "e2": 2}, ((0, 1), (1, 0)): {"m1": 2},
    })}, _SMOOTH),
    # as if Z^2 held (0, 0) as its least point (t, 0), t > 0
    (["first-generator-minimality"],
     {"_least_axis_multiple": lambda g: _real_least_axis_multiple(g) - 1}, _SMOOTH),
    (["axis-swap-shape"], {"local_type": _type_at(((0, 1), (1, 0)), n=2)}, _SMOOTH),
    (["axis-swap-shape"], {"local_type": _type_at(((0, 1), (1, 0)), m1=2)}, _SMOOTH),
    (["axis-swap-shape"], {"local_type": _type_at(((0, 1), (1, 0)), m2=2)}, _SMOOTH),
    (["axis-swap-duality"], {"local_type": _type_at(((0, 1), (1, 0)), q=1)}, _SMOOTH),
    # every (0, y), y >= 1, a member: ((2, 0), (1, 1)) is the first subgroup
    # that holds no (0, 1) yet is not smooth
    (["smoothness"],
     {"contains": lambda self, v: v[0] == 0 < v[1] or _real_contains(self, v)}, ((2, 0), (1, 1))),
]


@pytest.mark.parametrize(
    "props,mutants,target", _LATTICE_ISOLATED, ids=["+".join(row[0]) for row in _LATTICE_ISOLATED]
)
def test_lattice_sweep_fails_each_property_at_the_first_subgroup_that_breaks_it(
    monkeypatch, props, mutants, target
):
    # A property the one conjunction forgot would pass its subgroup.
    for name, mutant in mutants.items():
        monkeypatch.setattr(LatticeSubgroup if name == "contains" else verify, name, mutant)
    res = verify.lattice_sweep(8)
    subgroups = [(g.g1, g.g2) for g in enumerate_subgroups(8)]
    assert res.checked == subgroups.index(target) + 1
    lt = verify.local_type(LatticeSubgroup(*target))
    witness = {"g1": list(target[0]), "g2": list(target[1]), "n": lt.n, "q": lt.q, "m1": lt.m1,
               "m2": lt.m2}
    assert [f.witness for f in res.failures] == [witness] * len(props)
    assert [f.prop for f in res.failures] == props


def test_clean_sweeps_itemize_nothing(monkeypatch):
    # Every item of a clean sweep is cleared by the one test, with no call
    # to the itemized lists.
    def itemized(*args):
        raise AssertionError("a clean item was itemized")

    monkeypatch.setattr(verify, "_hj_failures", itemized)
    monkeypatch.setattr(verify, "_lattice_failures", itemized)
    assert verify.hj_sweep(100).ok and verify.lattice_sweep(45).ok


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
