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
curve count (8) were the only nonzero ones among the shipped documents
before ``elliptic_5_1_4_1_1_3.json``, the Z/5 cover of E x P1 (g_C = 1)
with weights (1, 4) on fibres F0, F1 and (1, 1, 3) on sections S0, S1, S2:
its deg_det is 2, and over F1 and S0 sits a 1/5(1, 1) point, which is not
du Val.

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
``repeated_points.json`` is ``shuffled.json``'s cover with its twelve
points written as five distinct records: over each crossing two smooth
points lie on sheets (0, 0), given as the lattice ``[[1,0],[0,1]]`` or as
a raw local type, and the node on sheets (1, 1) is a raw type or one of
two bases of one subgroup, ``[[2,0],[1,1]]`` and ``[[2,0],[3,1]]``, which
echo as given.  Its strict reports were frozen before the loader shared
any record or list, so they show that sharing changes no byte.
``short_sheets.json`` is a trivial double cover of the square whose D4 has
one sheet of degree 2: over crossing 0 both points lie on sheet 0 of D1,
so sheet 0 sums to 2 and sheet 1 to 0, and crossing 1 has one point, so
D4's sheet falls short of its f.  Its ``--strict`` reports are the frozen
V4 findings, one per crossing and component: it names the first sheet
that is off and counts them ("2 of 2 sheet(s) off" over crossing 0).
``many_sheets.json`` is ``_many_sheets(20, 50)``: D1 has 50 unramified
sheets and every crossing fails V2 and V4 on both sides, yet its
``--strict`` reports hold 40 V4 findings, not one per sheet.
``failing_receipts.json`` is a degree 2 cover of the square whose D1 sheet
has e = 4 > 2: its receipts fail over D1 and over crossings 0 and 1, so its
reports read ``VIOLATED``, ``"ok": false`` and ``satisfied: no``, beside a
V1 finding.  Crossing 0 holds two points of orders 2 and 5, so its cross
term is 3 + 6/5 = 21/5.
``bidouble_blown_up.json`` is the bidouble cover with its base blown up at
crossing 0 (``blow_up`` in ``test_metamorphic.py``): ``D1``, ``D3`` and
the new ``E0`` have self-intersection -1, the only nonzero ones among the
shipped documents, so its reports are the frozen bytes of the diagonal
term of (R,R), which falls from 4 to 2 while chi stays 1 and deg_det 0.
"""

import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

import ramcov.cli
import ramcov.invariants
import ramcov.loader
import ramcov.model
import ramcov.report
import ramcov.verify
from ramcov.cli import main
from ramcov.hj import HJChain, discrepancies, hj_expand
from ramcov.invariants import FibrationInputs, degree_linear_certificate
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
        (COVERS, ("identity", "bidouble", "kummer_2_1", "cyclic_5_1_4_2_3",
                  "elliptic_5_1_4_1_1_3")),
        (DOCUMENTS, ("shuffled", "both_orientations", "bidouble_blown_up")),
    )
    for stem in stems
    for strict in (False, True)
] + [
    ("bidouble.strict.ev", COVERS / "bidouble.json", ("--strict", "--ev", "0", "2", "0", "2", "0"), 0),
    ("grid_4.strict", DOCUMENTS / "grid_4.json", ("--strict",), 0),
    ("repeated_points.strict", DOCUMENTS / "repeated_points.json", ("--strict",), 0),
    ("failing_receipts.strict", DOCUMENTS / "failing_receipts.json", ("--strict",), 1),
    ("short_sheets.strict", DOCUMENTS / "short_sheets.json", ("--strict",), 1),
    ("many_sheets.strict", DOCUMENTS / "many_sheets.json", ("--strict",), 1),
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


@pytest.mark.parametrize("stem", ["elliptic_5_1_4_1_1_3", "elliptic_5_1_4_1_1_3.strict"])
def test_the_elliptic_golden_is_frozen_with_deg_det_2(stem):
    report = json.loads((FIXTURES / f"{stem}.json").read_text(encoding="utf-8"))
    assert report["certificate"]["deg_det"] == report["invariants"]["deg_det"] == "2"
    assert "  deg_det = 2 [integral]" in (FIXTURES / f"{stem}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name,argv", ERROR_CASES, ids=[f"{c[0]}{''.join(c[1][2:])}" for c in ERROR_CASES]
)
def test_invariants_error_matches_frozen_line(capsys, name, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (FIXTURES / name).read_text(encoding="utf-8")


def test_invariants_classifies_each_distinct_point_once(capsys, monkeypatch):
    # One run walks the points once: the references are checked once (by the
    # loader), each distinct lattice is classified once and each distinct
    # local datum's range and gcd constraints are checked once, by value.
    # A second walk, a second check of the
    # references, or re-walking the configuration per invariant doubles a
    # count and shows up here.
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    documents = [COVERS / "bidouble.json", COVERS / "cyclic_5_1_4_2_3.json",
                 DOCUMENTS / "shuffled.json", DOCUMENTS / "grid_4.json",
                 DOCUMENTS / "repeated_points.json"]
    expected = []
    for path in documents:
        locals_ = {pt.local for _, pts in load_cover_path(str(path))[1].points_above for pt in pts}
        lattices = sum(isinstance(local, LatticeSubgroup) for local in locals_)
        expected.append(Counter(check_references=1, local_type=lattices,
                                invariant_problems=len(locals_)))
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
    # repeated_points.json: three lattices (two bases of one subgroup among
    # them) and two raw types, over twelve points.
    assert expected[-1] == Counter(check_references=1, local_type=3, invariant_problems=5)


def test_a_second_run_classifies_every_point_again(capsys, monkeypatch):
    # The classification is kept by one walk over one loaded document, not
    # by the process: a second request pays for its own.  bidouble.json's
    # four points are one lattice, given four times.
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
    assert counts == [1, 1]


_EV = ("--ev", "0", "2", "0", "2", "0")


@pytest.mark.parametrize("flags", [(), ("--json",), _EV])
def test_a_report_evaluates_each_receipt_once(capsys, monkeypatch, flags):
    # A report shows each receipt's verdict and whether all hold.  Every
    # verdict is one call of the one comparison, made where the walk emits
    # its receipt: components with equal sheets share their two verdicts,
    # and crossings with equal sheets and points their three, each made at
    # the first of them.
    compared = Counter()
    within = ramcov.invariants._within

    def counting(value, bound):
        compared[Fraction(value), Fraction(bound)] += 1
        return within(value, bound)

    path = COVERS / "cyclic_5_1_4_2_3.json"
    monkeypatch.setattr(ramcov.invariants, "_within", counting)
    assert main(["invariants", str(path), *flags]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    fibration = FibrationInputs(0, 2, 0, 2, 0) if flags == _EV else None
    base, cover = load_cover_path(str(path))
    rows = tuple(degree_linear_certificate(base, cover, fibration).receipts)
    assert len(rows) == 2 * 4 + 3 * 4 + 1 + (flags == _EV)
    sheet_lists = {}
    for comp in base.components:
        sheet_lists.setdefault(cover.sheets_for(comp.id), f"[{comp.id}]")
    shapes = {}
    for x in base.crossings:
        shape = (*map(cover.sheets_for, x.pair), cover.points_for(x.index))
        shapes.setdefault(shape, f"[crossing {x.index}]")
    assert (len(sheet_lists), len(shapes)) == (1, 2)
    decided = [row for row in rows if "[" not in row[0] or row[0].endswith(
        (*sheet_lists.values(), *shapes.values())
    )]
    assert len(decided) == 2 * 1 + 3 * 2 + 1 + (flags == _EV)
    assert compared == Counter((Fraction(value), Fraction(bound)) for _, value, bound, *_ in decided)


@pytest.mark.parametrize("flags", [(), _EV])
def test_report_verdicts_are_the_rows_verdicts(capsys, monkeypatch, flags):
    # The walk decides each verdict once, in its row.  With that one
    # comparison negated, every verdict a certificate or report shows must
    # follow its row: none may be decided again.
    within = ramcov.invariants._within
    monkeypatch.setattr(ramcov.invariants, "_within", lambda value, bound: not within(value, bound))
    path = str(COVERS / "bidouble.json")
    fibration = FibrationInputs(0, 2, 0, 2, 0) if flags else None
    cert = degree_linear_certificate(*load_cover_path(path), fibration)
    rows = {name: (bound, ok) for name, _, bound, _, ok in cert.receipts}
    c_times_d, linear = rows["deg_det_vs_linear"]
    fib = rows["deg_det_vs_fibration"][1] if flags else None
    assert linear is False and fib is (False if flags else None)
    assert (cert.deg_det_within_linear, cert.deg_det_within_fibration) == (linear, fib)

    assert main(["invariants", path, "--json", *flags]) == 0
    doc = json.loads(capsys.readouterr().out)["certificate"]
    assert {t["name"]: t["ok"] for t in doc["terms"]} == {name: ok for name, (_, ok) in rows.items()}
    assert doc["deg_det_within_linear"] is linear
    assert (doc["fibration"] and doc["fibration"]["deg_det_within"]) is fib

    assert main(["invariants", path, *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    word = {True: "ok", False: "VIOLATED"}
    assert [line.split("; ")[1] for line in lines if "|deg_det| <=" in line] == [
        f"|deg_det| <= c*d = {c_times_d}: {word[linear]}",
        *([f"|deg_det| <= bound: {word[fib]}"] if flags else []),
    ]


def _not_coprime(tmp_path) -> pathlib.Path:
    # A raw local type whose n and q share a factor: the walk sets ``error``.
    doc = json.loads((COVERS / "identity.json").read_text())
    doc["cover"]["points_above"]["0"][0]["local"] = {"n": 4, "q": 2, "m1": 1, "m2": 1}
    path = tmp_path / "not_coprime.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
@pytest.mark.parametrize("document,code", [
    (lambda tmp: COVERS / "bidouble.json", 0),
    (lambda tmp: DOCUMENTS / "failing_receipts.json", 1),
    (_not_coprime, 1),
], ids=["bidouble", "failing_receipts", "not_coprime"])
def test_an_invariants_run_derives_the_euler_data_once(
    capsys, monkeypatch, tmp_path, json_flag, document, code
):
    # The walk derives it for the linear coefficient and e_c(Y), and the
    # report shows the certificate's; a report without a certificate
    # derives its own.
    calls = []
    derive = ramcov.model.derived_euler_data

    def counting(base):
        calls.append(base)
        return derive(base)

    for module in (ramcov.cli, ramcov.invariants, ramcov.report):
        monkeypatch.setattr(module, "derived_euler_data", counting)
    assert main(["invariants", str(document(tmp_path)), "--strict", *json_flag]) == code
    out = capsys.readouterr().out
    assert ("not computed" in out or '"certificate": null' in out) == (document is _not_coprime)
    assert len(calls) == 1


def _many_sheets(crossings: int, sheets: int) -> dict:
    """A degree ``sheets`` cover whose D1 has that many unramified sheets and D2 one.

    Crossing k of D1 and D2 holds ``k % 5 + 1`` smooth points, on sheets
    k, k + 1, ... of D1 (mod ``sheets``) and on D2's one sheet of degree
    ``sheets``, so over every crossing most of D1's sheets are off (V4),
    D2's is too, and the local degrees fall short of the degree (V2).
    """
    smooth = {"n": 1, "q": 0, "m1": 1, "m2": 1}
    return {
        "base": {
            "genus_C": 0,
            "KX_sq": 8,
            "euler_X": 4,
            "KX_dot_F": -2,
            "components": [
                {"id": "D1", "genus": 0, "self_int": 0, "KX_dot": -2, "fiber_deg": 1},
                {"id": "D2", "genus": 0, "self_int": 0, "KX_dot": -2, "fiber_deg": 0},
            ],
            "crossings": [{"index": k, "pair": ["D1", "D2"]} for k in range(crossings)],
        },
        "cover": {
            "degree": sheets,
            "ramification": {"D1": [{"e": 1, "f": 1}] * sheets, "D2": [{"e": 1, "f": sheets}]},
            "points_above": {
                str(k): [{"j": (k + i) % sheets, "jp": 0, "local": smooth} for i in range(k % 5 + 1)]
                for k in range(crossings)
            },
        },
    }


def test_the_many_sheets_fixture_is_built_by_its_builder():
    frozen = json.loads((DOCUMENTS / "many_sheets.json").read_text(encoding="utf-8"))
    assert frozen == _many_sheets(20, 50)


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_strict_report_is_bounded_by_its_input(capsys, tmp_path, json_flag):
    # V4 gives one finding per crossing and component, not per sheet, so the
    # report stays within a fixed multiple of the document as either grows.
    ratios = []
    for crossings, sheets in ((20, 50), (50, 500), (10, 2000), (200, 20)):
        path = tmp_path / f"many_sheets_{crossings}_{sheets}.json"
        path.write_text(json.dumps(_many_sheets(crossings, sheets), indent=2))
        assert main(["invariants", str(path), "--strict", *json_flag]) == 1
        out = capsys.readouterr().out
        assert out.count("V4") == 2 * crossings
        ratios.append(len(out.encode()) / path.stat().st_size)
    assert max(ratios) < 4, ratios
