"""Self-checks of the benchmark: inputs, oracles and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS, LEAVES, SPANS, Tracer, _owner  # noqa: E402

from ramcov.invariants import invariant_report  # noqa: E402
from ramcov.loader import parse_cover_json  # noqa: E402
from ramcov.model import validate  # noqa: E402


def _requests(name: str, seed: int, count: int):
    workload = workloads.WORKLOADS[name]
    return [workload.request(seed, i) for i in range(count)]


@pytest.mark.parametrize("name, count", [("grid", 5), ("cyclic", 64)])
def test_generated_documents_pass_strict_validation(name, count):
    for req in _requests(name, 7, count):
        base, cover = parse_cover_json(req.document)
        assert validate(base, cover, strict=True) == []
        assert len(base.crossings) == req.crossings


def test_every_grid_size_class_is_checked_by_its_oracle():
    for k in workloads.GRID_K:
        base, cover = parse_cover_json(workloads.grid_document(k, random.Random(k)))
        assert invariant_report(base, cover).chi == workloads.grid_chi(k)


def test_ev_chi_agrees_with_invariant_report_for_small_orders():
    """Every cover of the cyclic family with n <= 12: a1 a unit, any a3."""
    checked = 0
    for n in range(2, 13):
        for a1 in range(1, n):
            if math.gcd(a1, n) != 1:
                continue
            for a3 in range(1, n):
                text, _ = workloads.cyclic_document(n, a1, a3, random.Random(n * 1000 + a1 * 20 + a3))
                base, cover = parse_cover_json(text)
                assert validate(base, cover, strict=True) == [], (n, a1, a3)
                expected = workloads.ev_chi(n, a1, a3)
                assert invariant_report(base, cover).chi == Fraction(expected), (n, a1, a3)
                checked += 1
    assert checked == sum(sum(math.gcd(a, n) == 1 for a in range(1, n)) * (n - 1) for n in range(2, 13))


def test_verify_oracle_counts():
    phi = {n: sum(math.gcd(n, q) == 1 for q in range(1, n)) for n in range(2, 61)}
    sigma = {k: sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, 61)}
    for bound in (2, 17, 60):
        assert workloads.totient_sum(bound) == sum(phi[n] for n in range(2, bound + 1))
        assert workloads.divisor_sum(bound) == sum(sigma[k] for k in range(1, bound + 1))


def test_requests_depend_on_the_seed_only():
    for name in workloads.WORKLOADS:
        assert _requests(name, 3, 10) == _requests(name, 3, 10)
    assert _requests("grid", 3, 5) != _requests("grid", 4, 5)
    assert _requests("cyclic", 3, 5) != _requests("cyclic", 4, 5)


def test_every_block_has_the_same_size_mix():
    classes = {"grid": sorted(workloads.GRID_K), "verify": sorted(workloads.VERIFY_SIZES)}
    sizes = {
        "grid": lambda r: r.expect["k"],
        "verify": lambda r: (int(r.argv[2]), int(r.argv[4])),
    }
    for name, size in sizes.items():
        block = workloads.WORKLOADS[name].block
        for seed in (1, 2):
            reqs = _requests(name, seed, 3 * block)
            for b in range(3):
                assert sorted(map(size, reqs[b * block:(b + 1) * block])) == classes[name]
    block = workloads.CYCLIC_BLOCK
    for seed in (1, 2):
        rs = sorted(r.expect["r"] for r in _requests("cyclic", seed, block))
        assert rs == sorted(list(range(1, workloads.CYCLIC_R + 1)) * (block // workloads.CYCLIC_R))


def test_oracles_import_nothing_from_ramcov():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print([m for m in sys.modules if m.split('.')[0] == 'ramcov'])"
    )
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_install_and_uninstall_restore_every_name():
    names = SPANS + LEAVES + COUNTERS
    before = [_owner(path).__dict__[attr] for path, attr, _ in names]
    saved = Tracer().install()
    assert all(_owner(path).__dict__[attr] is not original
               for (path, attr, _), original in zip(names, before))
    Tracer.uninstall(saved)
    assert [_owner(path).__dict__[attr] for path, attr, _ in names] == before


def test_scaling_takes_out_a_uniform_slowdown():
    calibrations = [calibrate.REFERENCE_S] * 10 + [1.5 * calibrate.REFERENCE_S] * 10
    times = [0.02] * 10 + [0.03] * 10
    out = calibrate.scaled(times, calibrations)
    assert out[:5] == pytest.approx([0.02] * 5)
    assert out[-5:] == pytest.approx([0.02] * 5)
    with pytest.raises(ValueError):
        calibrate.scaled(times, calibrations[1:])


def test_calibration_allocates_nothing_the_collector_tracks():
    import gc

    before = gc.get_count()[0]
    calibrate.calibrate()
    assert gc.get_count()[0] - before <= 2


def _traced(name: str, requests: int, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), f"--workload={name}", "--seed=11",
        f"--requests={requests}", "--traced", f"--workdir={workdir}",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name, requests", [("grid", 5), ("cyclic", 16), ("verify", 5)])
def test_two_traced_runs_of_one_seed_count_the_same_calls(name, requests, tmp_path):
    first = _traced(name, requests, tmp_path / "a")
    second = _traced(name, requests, tmp_path / "b")
    assert first["failed"] == second["failed"] == 0
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["calls"]["cli.main"] == requests


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload=grid", "--seed=1", "--seconds=1", "--trace=0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
