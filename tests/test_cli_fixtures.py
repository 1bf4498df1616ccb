"""Frozen bytes of ``ramcov invariants`` on every shipped document.

Each fixture under ``tests/fixtures/invariants/`` is the stdout of one
command line; the test demands the same bytes and exit status, so any
change to a number, a receipt or the rendering shows here.  To freeze a new
case, add it to ``CASES`` and save the stdout of the same argv run through
``ramcov.cli.main``.  A document that cannot be loaded is frozen as its one
``error:`` line on stderr (``ERROR_CASES``, fixtures ending in ``.err``).

Besides the goldens this pins the Z/5 cover of the quadric branched on the
square with weights (1, 4, 2, 3), whose four points are the non-du-Val
quotients A_{5,2} and A_{5,3}: its correction total (-8/5) and exceptional
curve count (8) are the only nonzero ones among the shipped documents.

The documents under ``tests/fixtures/documents/`` pin list order.
``shuffled.json`` is a degree 4 cover of the quadric on the square whose
every list is out of order: components, crossings, declared pairs (some
reversed), ramification and points_above keys, and the three points over
crossings 2 and 3, given in both local forms with two points on the same
sheets.  Its report must not depend on that order.  Each ``two_*.json``
holds two errors of one kind, and its frozen line names the one that comes
first in canonical order.
"""

import functools
import pathlib
from collections import Counter

import pytest

import ramcov.model
from ramcov.cli import main
from ramcov.invariants import BoundTerm

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
TESTS = pathlib.Path(__file__).resolve().parent
DOCUMENTS = TESTS / "fixtures" / "documents"
FIXTURES = TESTS / "fixtures" / "invariants"

# (fixture stem, document, extra flags, exit status)
_RUNS = [
    (f"{stem}{'.strict' if strict else ''}", folder / f"{stem}.json",
     ("--strict",) if strict else (), 0)
    for folder, stems in (
        (COVERS, ("identity", "bidouble", "kummer_2_1", "cyclic_5_1_4_2_3")),
        (DOCUMENTS, ("shuffled",)),
    )
    for stem in stems
    for strict in (False, True)
] + [
    ("bidouble.strict.ev", COVERS / "bidouble.json", ("--strict", "--ev", "0", "2", "0", "2", "0"), 0),
    ("bad_v1", COVERS / "malformed" / "bad_v1.json", (), 1),
    ("bad_v3", COVERS / "malformed" / "bad_v3.json", (), 1),
]

#: (fixture file name, argv, exit status); text and --json for every run.
CASES = [
    (f"{stem}.{'json' if as_json else 'txt'}",
     ["invariants", str(doc), *flags, *(["--json"] if as_json else [])],
     code)
    for stem, doc, flags, code in _RUNS
    for as_json in (False, True)
]

#: (fixture file name, argv); a document that fails to load gives the same
#: one line on stderr whatever the flags.
ERROR_CASES = [
    (f"{stem}.err", ["invariants", str(DOCUMENTS / f"{stem}.json"), *flags])
    for stem in (
        "two_bad_sheet_lists",
        "two_dangling_points",
        "two_unknown_components",
        "two_bad_pair_counts",
    )
    for flags in ((), ("--json",), ("--strict",))
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_invariants_output_matches_frozen_bytes(capsys, name, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (FIXTURES / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name,argv", ERROR_CASES, ids=[f"{c[0]}{''.join(c[1][2:])}" for c in ERROR_CASES]
)
def test_invariants_error_matches_frozen_line(capsys, name, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (FIXTURES / name).read_text(encoding="utf-8")


def test_invariants_classifies_each_point_at_most_three_times(capsys, monkeypatch):
    # Each point keeps its classification, so validation and the walk that
    # the report and the certificate share classify it once between them; a
    # second classification of any point, a second walk, or re-walking the
    # configuration per invariant shows up here.
    calls = []
    original = ramcov.model.local_type

    def counting(gamma):
        calls.append(gamma)
        return original(gamma)

    monkeypatch.setattr(ramcov.model, "local_type", counting)
    assert main(["invariants", str(COVERS / "bidouble.json"), "--strict"]) == 0
    capsys.readouterr()
    n_points = 4
    assert 0 < len(calls) <= n_points


def test_a_second_run_classifies_every_point_again(capsys, monkeypatch):
    # The classification is kept by the points of one loaded document, not
    # by the process: a second request pays for its own.
    counts = []
    original = ramcov.model.local_type

    def counting(gamma):
        counts[-1] += 1
        return original(gamma)

    monkeypatch.setattr(ramcov.model, "local_type", counting)
    for _ in range(2):
        counts.append(0)
        assert main(["invariants", str(COVERS / "bidouble.json"), "--strict", "--json"]) == 0
    capsys.readouterr()
    assert counts == [4, 4]


@pytest.mark.parametrize("flags", [(), ("--json",), ("--ev", "0", "2", "0", "2", "0")])
def test_a_report_evaluates_each_receipt_once(capsys, monkeypatch, flags):
    # A report shows each receipt's verdict and whether all hold; the term
    # keeps its verdict, so each comparison runs once per report.
    calls = Counter()
    compare = BoundTerm.ok.func

    def counting(term):
        calls[id(term)] += 1
        return compare(term)

    ok = functools.cached_property(counting)
    ok.__set_name__(BoundTerm, "ok")
    monkeypatch.setattr(BoundTerm, "ok", ok)
    assert main(["invariants", str(COVERS / "cyclic_5_1_4_2_3.json"), *flags]) == 0
    capsys.readouterr()
    n_terms = 2 * 4 + 3 * 4 + 1 + (len(flags) > 1)
    assert len(calls) == n_terms
    assert set(calls.values()) == {1}
