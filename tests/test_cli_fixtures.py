"""Frozen bytes of ``ramcov invariants`` on every shipped document, of
``ramcov hj`` and of ``ramcov verify``.

Each fixture under ``tests/fixtures/invariants/`` is the stdout of one
command line; the test demands the same bytes and exit status, so any
change to a number, a receipt or the rendering shows here.  The fixtures
under ``tests/fixtures/hj/`` and ``tests/fixtures/verify/`` hold the whole
stdout (``.txt``) of a run that exits 0, or the whole stderr (``.err``) of
one that exits 2, with the other stream empty; the ``verify`` fixtures
named in ``MUTATED_CASES`` hold the stdout of a run that exits 1 because
one function of the arithmetic core was replaced by a corrupted one.  To
freeze a new case, add it to ``CASES`` and save the stdout of the same argv
run through ``ramcov.cli.main``.  A document that cannot be loaded is frozen as its one
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
first in canonical order.  ``two_bad_sheet_indices.json`` is
``shuffled.json`` with an out-of-range sheet index over crossings 3 and 2,
in that document order; crossing 2's is its second point, which is third
in canonical order, and the line names it by its document path.
``both_orientations.json`` is the bidouble cover with declared pairs given
in both orientations, ``["D3", "D1"]`` before ``["D1", "D3"]``: its echo
lists them by sorted pair and then as given.
``grid_4.json`` is the double cover of P1 x P1 branched on four fibres and
four sections, 16 crossings: its ``--strict`` report is the one frozen
``--json`` output with more than four crossings, and its ``points_above``
keys sort as strings ("10" before "2") in the echo, not as numbers.
"""

import functools
import pathlib
from collections import Counter

import pytest

import ramcov.loader
import ramcov.model
import ramcov.verify
from ramcov.cli import main
from ramcov.hj import HJChain, discrepancies, hj_expand
from ramcov.invariants import BoundTerm
from ramcov.loader import load_cover_path
from ramcov.local_cover import LatticeSubgroup, LocalCoverType, local_type

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
TESTS = pathlib.Path(__file__).resolve().parent
DOCUMENTS = TESTS / "fixtures" / "documents"
FIXTURES = TESTS / "fixtures" / "invariants"
HJ_FIXTURES = TESTS / "fixtures" / "hj"
VERIFY_FIXTURES = TESTS / "fixtures" / "verify"

# (fixture stem, document, extra flags, exit status)
_RUNS = [
    (f"{stem}{'.strict' if strict else ''}", folder / f"{stem}.json",
     ("--strict",) if strict else (), 0)
    for folder, stems in (
        (COVERS, ("identity", "bidouble", "kummer_2_1", "cyclic_5_1_4_2_3")),
        (DOCUMENTS, ("shuffled", "both_orientations")),
    )
    for stem in stems
    for strict in (False, True)
] + [
    ("bidouble.strict.ev", COVERS / "bidouble.json", ("--strict", "--ev", "0", "2", "0", "2", "0"), 0),
    ("grid_4.strict", DOCUMENTS / "grid_4.json", ("--strict",), 0),
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
        "two_bad_sheet_indices",
    )
    for flags in ((), ("--json",), ("--strict",))
]


#: (fixture path, argv, exit status) of ``hj`` and ``verify``.
STREAM_CASES = [
    (HJ_FIXTURES / f"{n}_{q}.{'txt' if code == 0 else 'err'}", ["hj", str(n), str(q)], code)
    for n, q, code in (
        (2, 1, 0), (5, 2, 0), (7, 5, 0), (12, 5, 0), (30, 29, 0), (997, 3, 0), (4, 2, 2), (1, 1, 2)
    )
] + [
    (VERIFY_FIXTURES / name, ["verify", *flags], code)
    for name, flags, code in (
        ("default.txt", (), 0),
        ("max_n_150_max_index_40.txt", ("--max-n", "150", "--max-index", "40"), 0),
        ("max_n_1.err", ("--max-n", "1"), 2),
        ("max_n_over_cap.err", ("--max-n", "1001"), 2),
    )
]


@pytest.mark.parametrize(
    "path,argv,code", STREAM_CASES, ids=[f"{c[0].parent.name}/{c[0].name}" for c in STREAM_CASES]
)
def test_hj_and_verify_match_frozen_streams(capsys, monkeypatch, path, argv, code):
    monkeypatch.delenv("RAMCOV_MAX_ENUM", raising=False)
    assert main(argv) == code
    captured = capsys.readouterr()
    frozen = path.read_text(encoding="utf-8")
    assert (captured.out, captured.err) == ((frozen, "") if code == 0 else ("", frozen))


def _discrepancy_off_by_one(chain):
    v, c = discrepancies(chain)
    return ((v[0], v[1] - 1, v[2]) if len(v) == 3 else v), c


def _discrepancy_raised_at_the_end(chain):
    # Out of range, and the residual first fails at the second last entry.
    v, c = discrepancies(chain)
    return ((*v[:-1], v[-1] + 7) if len(v) == 4 else v), c


def _padded_expansion(sing):
    # An entry past n: the chain no longer evaluates to n/q, and its own
    # determinant, not n, governs the discrepancies.
    chain = hj_expand(sing)
    return HJChain((*chain.b, sing.n + 1)) if (sing.n, sing.q) == (7, 3) else chain


def _q_flipped_type(gamma):
    # (n', 0) stays in the subgroup; (q', m2) does not.
    lt = local_type(gamma)
    if lt.d_y == 6 and lt.n > 1:
        return LocalCoverType(n=lt.n, q=lt.n - lt.q, m1=lt.m1, m2=lt.m2)
    return lt


def _m1_doubled_type(gamma):
    # The first generator becomes a proper multiple of the true one.
    lt = local_type(gamma)
    if gamma.index == 10 and lt.n == 5:
        return LocalCoverType(n=lt.n, q=lt.q, m1=2 * lt.m1, m2=lt.m2)
    return lt


def _n_bumped_type(gamma):
    # (n', 0) leaves the subgroup, while (5, 0) with 5 < n' is still in it.
    lt = local_type(gamma)
    if gamma.index == 5 and lt.n == 5:
        return LocalCoverType(n=7, q=lt.q, m1=lt.m1, m2=lt.m2)
    return lt


#: (fixture path, name in ``ramcov.verify``, its replacement, argv): the
#: stdout of ``ramcov verify`` over a corrupted core, which exits 1.  The
#: failures, their order and their witnesses are all pinned.
MUTATED_CASES = [
    (VERIFY_FIXTURES / "discrepancy_off_by_one.txt", "discrepancies", _discrepancy_off_by_one, ()),
    (VERIFY_FIXTURES / "discrepancy_raised_at_the_end.txt", "discrepancies",
     _discrepancy_raised_at_the_end, ("--max-n", "30", "--max-index", "4")),
    (VERIFY_FIXTURES / "padded_expansion.txt", "hj_expand", _padded_expansion,
     ("--max-n", "30", "--max-index", "4")),
    (VERIFY_FIXTURES / "local_type_q_flipped.txt", "local_type", _q_flipped_type,
     ("--max-n", "10", "--max-index", "12")),
    (VERIFY_FIXTURES / "local_type_m1_doubled.txt", "local_type", _m1_doubled_type,
     ("--max-n", "10", "--max-index", "12")),
    (VERIFY_FIXTURES / "local_type_n_bumped.txt", "local_type", _n_bumped_type,
     ("--max-n", "10", "--max-index", "12")),
]


@pytest.mark.parametrize(
    "path,name,replacement,flags", MUTATED_CASES, ids=[c[0].name for c in MUTATED_CASES]
)
def test_verify_over_a_corrupted_core_matches_frozen_transcript(
    capsys, monkeypatch, path, name, replacement, flags
):
    monkeypatch.delenv("RAMCOV_MAX_ENUM", raising=False)
    monkeypatch.setattr(ramcov.verify, name, replacement)
    assert main(["verify", *flags]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (path.read_text(encoding="utf-8"), "")


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
    # One run walks the points once: the references are checked once (by the
    # loader), each lattice is classified once and each local type's range
    # and gcd constraints are checked once.  A second walk, a second check of
    # the references, or re-walking the configuration per invariant shows up
    # here.
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    documents = [COVERS / "bidouble.json", COVERS / "cyclic_5_1_4_2_3.json",
                 DOCUMENTS / "shuffled.json", DOCUMENTS / "grid_4.json"]
    expected = []
    for path in documents:
        points = [pt for _, pts in load_cover_path(str(path))[1].points_above for pt in pts]
        lattices = sum(isinstance(pt.local, LatticeSubgroup) for pt in points)
        expected.append(Counter(check_references=1, local_type=lattices,
                                invariant_problems=len(points)))
    monkeypatch.setattr(ramcov.model, "local_type", counting("local_type", local_type))
    monkeypatch.setattr(LocalCoverType, "invariant_problems",
                        counting("invariant_problems", LocalCoverType.invariant_problems))
    for module in (ramcov.loader, ramcov.model):
        monkeypatch.setattr(module, "check_references",
                            counting("check_references", module.check_references))
    counts = []
    for path in documents:
        calls.clear()
        assert main(["invariants", str(path), "--strict", "--json"]) == 0
        counts.append(Counter(calls))
    capsys.readouterr()
    assert counts == expected


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
