"""Frozen bytes of ``ramcov invariants`` on every shipped document.

Each fixture under ``tests/fixtures/invariants/`` is the stdout of one
command line; the test demands the same bytes and exit status, so any
change to a number, a receipt or the rendering shows here.  To freeze a new
case, add it to ``CASES`` and save the stdout of the same argv run through
``ramcov.cli.main``.

Besides the goldens this pins the Z/5 cover of the quadric branched on the
square with weights (1, 4, 2, 3), whose four points are the non-du-Val
quotients A_{5,2} and A_{5,3}: its correction total (-8/5) and exceptional
curve count (8) are the only nonzero ones among the shipped documents.
"""

import pathlib

import pytest

import ramcov.model
from ramcov.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "invariants"

# (fixture stem, document relative to demos/covers, extra flags, exit status)
_RUNS = [
    (f"{stem}{'.strict' if strict else ''}", f"{stem}.json", ("--strict",) if strict else (), 0)
    for stem in ("identity", "bidouble", "kummer_2_1", "cyclic_5_1_4_2_3")
    for strict in (False, True)
] + [
    ("bidouble.strict.ev", "bidouble.json", ("--strict", "--ev", "0", "2", "0", "2", "0"), 0),
    ("bad_v1", "malformed/bad_v1.json", (), 1),
    ("bad_v3", "malformed/bad_v3.json", (), 1),
]

#: (fixture file name, argv, exit status); text and --json for every run.
CASES = [
    (f"{stem}.{'json' if as_json else 'txt'}",
     ["invariants", str(COVERS / doc), *flags, *(["--json"] if as_json else [])],
     code)
    for stem, doc, flags, code in _RUNS
    for as_json in (False, True)
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_invariants_output_matches_frozen_bytes(capsys, name, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (FIXTURES / name).read_text(encoding="utf-8")


def test_invariants_classifies_each_point_at_most_three_times(capsys, monkeypatch):
    # One classification for validation and one for the walk that the report
    # and the certificate share; a second walk, or re-walking the
    # configuration per invariant, shows up here.
    calls = []
    original = ramcov.model.local_type

    def counting(gamma):
        calls.append(gamma)
        return original(gamma)

    monkeypatch.setattr(ramcov.model, "local_type", counting)
    assert main(["invariants", str(COVERS / "bidouble.json"), "--strict"]) == 0
    capsys.readouterr()
    n_points = 4
    assert 0 < len(calls) <= 2 * n_points
