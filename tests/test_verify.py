"""Self-check sweeps: they pass on the real code and fail on corrupted code.

The mutation tests monkeypatch the functions the sweeps exercise and
assert that the sweeps notice.  Without these, a sweep that checks
nothing would look identical to a sweep that checks everything.
"""

import pytest
import sympy

import ramcov.verify as verify
from ramcov.errors import EnumerationLimitError
from ramcov.hj import HJChain, discrepancies, hj_expand
from ramcov.local_cover import DEFAULT_ENUMERATION_CAP, LocalCoverType, local_type


def test_hj_sweep_clean():
    res = verify.hj_sweep(60)
    assert res.ok
    assert res.suite == "hj"
    assert res.failures == []
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


def test_hj_sweep_detects_corrupted_expansion(monkeypatch):
    def bad_expand(sing):
        chain = hj_expand(sing)
        if sing.n == 17 and len(chain) > 1:
            return HJChain(chain.b[::-1])
        return chain

    monkeypatch.setattr(verify, "hj_expand", bad_expand)
    res = verify.hj_sweep(30, stop_on_failure=False)
    assert not res.ok
    assert any(f.witness["n"] == 17 for f in res.failures)
    assert all(f.suite == "hj" for f in res.failures)


def test_hj_sweep_stop_on_failure(monkeypatch):
    def bad_expand(sing):
        chain = hj_expand(sing)
        return HJChain(chain.b + (2,)) if sing.n >= 10 else chain

    monkeypatch.setattr(verify, "hj_expand", bad_expand)
    res = verify.hj_sweep(30, stop_on_failure=True)
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
    res = verify.hj_sweep(30, stop_on_failure=False)
    props = {f.prop for f in res.failures}
    assert "recursion-residual" in props
    assert all(len(f.witness["chain"]) == 3 for f in res.failures)


def test_hj_sweep_detects_a_correction_off_by_one(monkeypatch):
    # A wrong correction inside the range (-n, 2] is caught only by
    # comparing it with the sum it is defined as.
    def bad_discrepancies(chain):
        v, c = discrepancies(chain)
        return v, (c - 1 if chain.b == (3, 2) else c)

    monkeypatch.setattr(verify, "discrepancies", bad_discrepancies)
    res = verify.hj_sweep(30, stop_on_failure=False)
    assert [(f.prop, f.witness["n"], f.witness["q"]) for f in res.failures] == [
        ("correction-sum", 5, 2)
    ]


def test_lattice_sweep_detects_corrupted_classification(monkeypatch):
    def bad_type(gamma):
        lt = local_type(gamma)
        if lt.d_y == 6 and lt.n > 1:
            return LocalCoverType(n=lt.n, q=lt.n - lt.q, m1=lt.m1, m2=lt.m2)
        return lt

    monkeypatch.setattr(verify, "local_type", bad_type)
    res = verify.lattice_sweep(8, stop_on_failure=False)
    assert not res.ok
    assert all(f.suite == "lattice" for f in res.failures)


def test_lattice_sweep_detects_corrupted_enumeration(monkeypatch):
    real = verify.enumerate_subgroups

    def bad_enum(max_index, *, cap=None):
        return real(max_index, cap=cap)[:-1]

    monkeypatch.setattr(verify, "enumerate_subgroups", bad_enum)
    res = verify.lattice_sweep(6, stop_on_failure=False)
    assert not res.ok
    assert any(f.prop == "enumeration-count" for f in res.failures)
