"""The demo scripts keep running clean (they assert their own claims); README's quick start holds."""

import doctest
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script",
    sorted(p.name for p in DEMOS.glob("0*.py")),
)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout  # each demo narrates something


def _make_kummer(*args):
    return subprocess.run(
        [sys.executable, str(DEMOS / "covers" / "make_kummer.py"), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_make_kummer_reproduces_shipped_file():
    proc = _make_kummer("2", "1")
    assert proc.returncode == 0
    assert proc.stdout == (DEMOS / "covers" / "kummer_2_1.json").read_text()

    assert _make_kummer().returncode == 2
    # Bad exponents end with one error line, as ramcov's command line does.
    for args, message in [
        (("x", "2"), "error: invalid literal for int() with base 10: 'x'\n"),
        (("0", "2"), "error: exponents must be positive (got a=0, b=2)\n"),
    ]:
        proc = _make_kummer(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_readme_quick_start_holds():
    # README's Python quick start is a doctest: each value in it is checked.
    # Its golden-regeneration block is plain code, which doctest skips.
    results = doctest.testfile(str(ROOT / "README.md"), module_relative=False, report=False)
    assert results.failed == 0
    assert results.attempted >= 22  # the quick start's examples, none dropped
