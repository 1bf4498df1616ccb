"""End-to-end acceptance checks, one per shipped guarantee.

Each test is tagged with the ``acceptance`` marker so the run prints a
one-line PASS/FAIL verdict per criterion (see conftest).  Tolerances and
time budgets are pinned here on purpose: loosening them would change what
the package promises.
"""

import json
import pathlib
import time
from fractions import Fraction

import mpmath
import pytest
import sympy

from ramcov.cli import main
from ramcov.golden import double_cover, power_map_cover
from ramcov.invariants import (
    arakelov_degree_bound,
    degree_linear_certificate,
    height_log_decimal,
    invariant_report,
)
from ramcov.loader import load_cover_path
from ramcov.model import validate
from ramcov.verify import hj_sweep, lattice_sweep

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"


@pytest.mark.acceptance(1, "cyclic quotient sweep to n = 500 holds, within 60 s")
def test_criterion_1_hj_sweep():
    t0 = time.perf_counter()
    result = hj_sweep(500)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.failures[:3]
    assert result.checked == sum(int(sympy.totient(n)) for n in range(2, 501))
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"


@pytest.mark.acceptance(2, "lattice sweep to index 60 holds over all 3014 subgroups, within 10 s")
def test_criterion_2_lattice_sweep():
    t0 = time.perf_counter()
    result = lattice_sweep(60)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.failures[:3]
    expected = sum(int(sympy.divisor_sigma(k, 1)) for k in range(1, 61))
    assert result.checked == expected == 3014
    assert elapsed < 10.0, f"sweep took {elapsed:.1f} s"


@pytest.mark.acceptance(3, "golden covers reproduce their frozen invariants, within 5 s")
def test_criterion_3_golden_invariants():
    t0 = time.perf_counter()

    base, cover = load_cover_path(str(COVERS / "identity.json"))
    assert validate(base, cover, strict=True) == []
    assert invariant_report(base, cover).deg_det == 0

    base, cover = load_cover_path(str(COVERS / "bidouble.json"))
    assert validate(base, cover, strict=True) == []
    report = invariant_report(base, cover)
    assert report.KYprime_sq == 4
    assert report.euler_Yprime == 8
    assert report.chi == 1
    assert report.deg_det == 0

    base, cover = load_cover_path(str(COVERS / "kummer_2_1.json"))
    assert validate(base, cover, strict=True) == []
    assert invariant_report(base, cover).deg_det == -1

    for a in range(1, 7):
        for b in range(1, 7):
            base, cover = power_map_cover(a, b)
            assert validate(base, cover, strict=True) == []
            assert invariant_report(base, cover).deg_det == 1 - a, (a, b)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"golden evaluation took {elapsed:.1f} s"


@pytest.mark.acceptance(4, "linear-bound certificates hold on every golden cover, within 5 s")
def test_criterion_4_certificates():
    t0 = time.perf_counter()
    builders = [lambda: power_map_cover(1, 1), double_cover] + [
        (lambda a=a, b=b: power_map_cover(a, b))
        for a in range(1, 7)
        for b in range(1, 7)
    ]
    for builder in builders:
        base, cover = builder()
        cert = degree_linear_certificate(base, cover)
        assert cert.satisfied, [name for name, *_, ok in cert.receipts if not ok]
        assert cert.deg_det_within_linear
        assert abs(cert.deg_det) <= cert.linear_coefficient * cert.degree
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"certificate evaluation took {elapsed:.1f} s"


@pytest.mark.acceptance(5, "fibration degree bound is exact, monotone, and covers the double cover")
def test_criterion_5_fibration_bound():
    bound = arakelov_degree_bound(0, 2, 0, 2, 0, 2)
    assert bound == Fraction(9)
    assert abs(invariant_report(*double_cover()).deg_det) <= bound
    assert arakelov_degree_bound(2, 4, 1, 3, 5, 7) == 280
    for pos in range(6):
        args = [0, 2, 0, 2, 0, 2]
        args[pos] += 1
        assert arakelov_degree_bound(*args) >= bound, pos


@pytest.mark.acceptance(6, "integrality flags on goldens; CLI exit codes 1/1/2 on the malformed trio")
def test_criterion_6_integrality_and_exit_codes(capsys):
    for builder in (lambda: power_map_cover(1, 1), double_cover, lambda: power_map_cover(3, 2)):
        report = invariant_report(*builder())
        assert report.chi_is_integral and report.deg_det_is_integral

    code = main(["invariants", str(COVERS / "malformed" / "bad_v1.json")])
    out = capsys.readouterr().out
    assert code == 1 and "V1" in out

    code = main(["invariants", str(COVERS / "malformed" / "bad_v3.json")])
    out = capsys.readouterr().out
    assert code == 1 and "V3" in out

    code = main(["invariants", str(COVERS / "malformed" / "bad_parse.json")])
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err


@pytest.mark.acceptance(7, "plane-model height bound matches 84 log 24 to 1e-12 relative error")
def test_criterion_7_height_bound():
    got = Fraction(height_log_decimal(2, 3, 0))
    mpmath.mp.dps = 60
    reference = 84 * mpmath.log(24)
    rel_err = abs(mpmath.mpf(got.numerator) / got.denominator - reference) / reference
    assert rel_err <= mpmath.mpf("1e-12"), rel_err
