"""Rational formatting, report rendering, and the command line surface.

Exit code contract exercised throughout: 0 success, 1 semantic findings
(validation violations, sweep counterexamples), 2 usage/parse/precondition
errors.  Reports must be byte-deterministic and free of floating point.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

import ramcov.cli
import ramcov.verify
from ramcov.cli import main
from ramcov.errors import InvalidInputError
import ramcov.report
from ramcov import __version__
from ramcov.golden import identity_cover
from ramcov.local_cover import LocalCoverType, local_type
from ramcov.model import derived_euler_data
from ramcov.report import (
    FIBRATION_HYPOTHESES,
    ReportDocument,
    fmt_rational,
    parse_rational,
)
from report_reference import reference_document, reference_report

ROOT = pathlib.Path(__file__).resolve().parents[1]
COVERS = ROOT / "demos" / "covers"
REPORT_SCHEMA = json.loads((ROOT / "docs" / "report_schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- rationals


def test_fmt_rational():
    assert fmt_rational(Fraction(3, 4)) == "3/4"
    assert fmt_rational(Fraction(-6, 4)) == "-3/2"
    assert fmt_rational(Fraction(8, 2)) == "4"
    assert fmt_rational(5) == "5"
    assert fmt_rational(Fraction(0)) == "0"


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert parse_rational("-2/6") == Fraction(-1, 3)
    for bad in ("x", "1/0", "1/2/3", "1.5", "", "2e3"):
        with pytest.raises(InvalidInputError):
            parse_rational(bad)


def test_rational_round_trip():
    for f in (Fraction(0), Fraction(-3, 7), Fraction(22, 4), Fraction(-9)):
        assert parse_rational(fmt_rational(f)) == f


# ----------------------------------------------------------- report document


def test_report_error_path_rendering():
    base, cover = identity_cover()
    doc = ReportDocument(
        strict=False, base=base, cover=cover, violations=(), certificate=None, error="boom"
    )
    assert doc.valid
    assert doc.derived_base == derived_euler_data(base)
    text = doc.to_text()
    assert text.startswith(f"ramcov invariants report (version {__version__})\n")
    assert "invariants: not computed (boom)" in text
    chunks = doc.to_json()
    assert all(type(chunk) is str for chunk in chunks) and chunks[-1] == "\n"
    out = "".join(chunks)
    assert out == json.dumps(reference_report(doc), indent=2, sort_keys=True) + "\n"
    payload = json.loads(out)
    assert payload["tool"] == {"name": "ramcov", "version": __version__}
    assert payload["input"] == reference_document(base, cover)
    assert payload["invariants"] is None
    assert payload["certificate"] is None
    assert payload["error"] == "boom"


# -------------------------------------------------------------- cli: hj/local


def test_cli_hj(capsys):
    code, out, err = run(capsys, "hj", "5", "2")
    assert code == 0 and err == ""
    assert "A_{5,2}" in out
    assert "chain: [3, 2] (length 2)" in out
    assert "discrepancies: [-2/5, -1/5]" in out
    assert "correction: -2/5" in out
    assert "du Val: no" in out

    code, out, _ = run(capsys, "hj", "2", "1")
    assert code == 0 and "du Val: yes" in out

    code, _, err = run(capsys, "hj", "4", "2")
    assert code == 2 and "error:" in err


def test_cli_hj_refuses_a_chain_past_the_cap(capsys):
    # A_{n,n-1} has a chain of n - 1 entries: here 10^18 - 1 of them, which
    # are counted, not built.
    code, out, err = run(capsys, "hj", str(10**18), str(10**18 - 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "999999999999999999 entries" in err


def test_cli_local(capsys):
    code, out, err = run(capsys, "local", "2", "0", "1", "1")
    assert code == 0 and err == ""
    assert "index 2" in out
    assert "canonical basis: (2, 0), (1, 1)" in out
    assert "n = 2  q = 1  m1 = 1  m2 = 1" in out
    assert "singular A_{2,1}" in out

    code, out, _ = run(capsys, "local", "3", "0", "0", "1")
    assert code == 0 and "smooth" in out

    code, _, err = run(capsys, "local", "2", "0", "4", "0")
    assert code == 2 and "error:" in err


# ----------------------------------------------------------- cli: invariants


def test_cli_invariants_text_report_builds_no_json_echo(capsys, monkeypatch):
    # The text report never shows the input echo, so it is not built.
    def refuse(*args):
        raise AssertionError("the input echo was built for a text report")

    monkeypatch.setattr(ramcov.report, "_echo", refuse)
    code, out, err = run(capsys, "invariants", str(COVERS / "bidouble.json"), "--strict")
    assert (code, err) == (0, "")
    assert out == (ROOT / "tests" / "fixtures" / "invariants" / "bidouble.strict.txt").read_text(
        encoding="utf-8"
    )


def _cyclic_square_document(n: int) -> dict:
    """The Z/n cover of P1 x P1 branched on the square with weights (1, n-1, 1, n-1).

    D1, D2 are fibres and D3, D4 sections; each line has one sheet with
    e = n, and over each crossing sits one point, the kernel of the local
    weight map: generated by (n, 0) and (c, 1), with c = -w_section / w_fibre.
    """
    weights = {"D1": 1, "D2": n - 1, "D3": 1, "D4": n - 1}
    square = [("D1", "D3"), ("D1", "D4"), ("D2", "D3"), ("D2", "D4")]
    return {
        "base": {
            "genus_C": 0, "KX_sq": 8, "euler_X": 4, "KX_dot_F": -2,
            "components": [
                {"id": c, "genus": 0, "self_int": 0, "KX_dot": -2, "fiber_deg": int(c in ("D3", "D4"))}
                for c in weights
            ],
            "crossings": [{"index": i, "pair": list(pair)} for i, pair in enumerate(square)],
        },
        "cover": {
            "degree": n,
            "ramification": {c: [{"e": n, "f": 1}] for c in weights},
            "points_above": {
                str(i): [{"j": 0, "jp": 0, "local": [[n, 0], [-weights[s] * pow(weights[f], -1, n) % n, 1]]}]
                for i, (f, s) in enumerate(square)
            },
        },
    }


@pytest.mark.parametrize("n", [7, 10001, 10**18])
def test_cli_invariants_resolves_huge_quotient_orders_at_once(capsys, tmp_path, n):
    # Over two crossings sits an A_{n,n-1} point, whose chain has n - 1
    # entries; over the other two an A_{n,1}.  Esnault-Viehweg gives chi = 1
    # for every n, and s = 2(n - 1) + 2.
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(_cyclic_square_document(n)))
    start = time.perf_counter()
    code, text, err = run(capsys, "invariants", str(path))
    code_json, out, err_json = run(capsys, "invariants", str(path), "--json")
    assert time.perf_counter() - start < 1
    assert (code, err, code_json, err_json) == (0, "", 0, "")
    assert "  chi = 1 [integral]\n" in text
    assert f"   s = {2 * n}   " in text
    invariants = json.loads(out)["invariants"]
    assert (invariants["chi"], invariants["exceptional_s"]) == ("1", 2 * n)


def test_cli_invariants_identity(capsys):
    code, out, err = run(capsys, "invariants", str(COVERS / "identity.json"))
    assert code == 0 and err == ""
    assert "validation (standard mode): OK" in out
    assert "deg_det = 0 [integral]" in out


def test_cli_invariants_bidouble_full_report(capsys):
    code, out, _ = run(
        capsys,
        "invariants",
        str(COVERS / "bidouble.json"),
        "--strict",
        "--ev", "0", "2", "0", "2", "0",
    )
    assert code == 0
    assert "validation (strict mode): OK" in out
    assert "(R,R) = 4" in out
    assert "K_Y^2 = 4   correction = 0   K_Y'^2 = 4" in out
    assert "e_c(Y) = 4   s = 4   e_c(Y') = 8" in out
    assert "chi = 1 [integral]" in out
    assert "deg_det = 0 [integral]" in out
    assert "coefficient c = 6" in out
    assert "satisfied: yes" in out
    assert "fibration bound = 9" in out
    for hypothesis in FIBRATION_HYPOTHESES:
        assert hypothesis in out


def test_cli_invariants_text_has_no_float_literals(capsys):
    _, out, _ = run(
        capsys,
        "invariants",
        str(COVERS / "kummer_2_1.json"),
        "--ev", "0", "2", "0", "2", "0",
    )
    body = "\n".join(out.splitlines()[1:])  # first line carries the version
    assert not re.search(r"\d\.\d", body)
    assert "deg_det = -1 [integral]" in out


def test_cli_invariants_violations_exit_1_with_report(capsys):
    code, out, _ = run(capsys, "invariants", str(COVERS / "malformed" / "bad_v1.json"))
    assert code == 1
    assert "V1" in out and "expected degree" in out
    assert "derived base data" in out  # report still printed

    code, out, _ = run(capsys, "invariants", str(COVERS / "malformed" / "bad_v3.json"))
    assert code == 1
    assert "V3" in out and "V1" not in out


def test_cli_invariants_parse_and_io_errors(capsys):
    code, out, err = run(capsys, "invariants", str(COVERS / "malformed" / "bad_parse.json"))
    assert (code, out, err) == (2, "", "error: cover.degree: expected an integer (got 2.0)\n")

    code, _, err = run(capsys, "invariants", str(COVERS / "no_such_file.json"))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "content,message",
    [
        ('{"base": ' + "7" * 5000 + "}", "too many digits"),
        ("[" * 200000 + "]" * 200000, "nesting too deep"),
        (b"\xff\xfe{}", "not UTF-8"),
    ],
    ids=["huge-integer", "deep-nesting", "utf16-bom"],
)
def test_cli_invariants_hostile_input_exits_2(capsys, tmp_path, content, message):
    target = tmp_path / "hostile.json"
    if isinstance(content, bytes):
        target.write_bytes(content)
    else:
        target.write_text(content)
    code, out, err = run(capsys, "invariants", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


# Runs `ramcov invariants` in a fresh interpreter, at the stack depth of the
# command line, on identity.json with the list at cover.<field>[key] replaced
# by lists nested `depth` deep, for depth = 900, 901, ... until the decoder
# refuses the nesting.  The loader keys each such list on its marshal bytes.
_NESTED_LISTS = """
import contextlib, io, json, sys
from ramcov.cli import main
source, target, field, key = sys.argv[1:]
doc = json.loads(open(source).read())
doc["cover"][field][key] = "NESTED"
runs = []
for depth in range(900, 2000):
    with open(target, "w") as fh:
        fh.write(json.dumps(doc).replace('"NESTED"', "[" * depth + "]" * depth))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["invariants", target])
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    runs.append([depth, code, out.getvalue(), err.getvalue()])
    if "nesting too deep" in err.getvalue():
        break
print(json.dumps(runs))
"""


@pytest.mark.parametrize("field,key", [("points_above", "0"), ("ramification", "D1")])
def test_cli_invariants_refuses_lists_nested_up_to_the_decoders_limit(tmp_path, field, key):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _NESTED_LISTS, str(COVERS / "identity.json"),
         str(tmp_path / "nested.json"), field, key],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert runs[0][3] == f"error: cover.{field}[{key!r}][0]: expected an object (got list)\n"
    assert runs[-1][3] == "error: not valid JSON: nesting too deep\n"
    for depth, code, out, err in runs:
        assert (code, out) == (2, ""), depth
        assert err.startswith("error: ") and err.count("\n") == 1, depth


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_cli_invariants_report_past_digit_limit_exits_2(capsys, tmp_path, flags):
    # Each input has 4001 digits, under the interpreter's limit of 4300 for
    # int <-> str conversion, but K_Y^2 = d * K_X^2 + ... has 8001.
    doc = json.loads((COVERS / "identity.json").read_text())
    doc["base"]["KX_sq"] = doc["cover"]["degree"] = 10**4000
    target = tmp_path / "huge.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(target), *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: report not rendered: ") and "decimal digits" in err
    assert err.count("\n") == 1


def _run_through_a_pipe(*argv):
    """Exit code, stdout bytes and stderr text of ``python -m ramcov.cli`` in a child process."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", "ramcov.cli", *argv], capture_output=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()


def test_cli_json_report_through_a_pipe_is_the_frozen_bytes():
    code, out, err = _run_through_a_pipe(
        "invariants", str(COVERS / "bidouble.json"), "--strict", "--json"
    )
    assert (code, err) == (0, "")
    assert out == (ROOT / "tests" / "fixtures" / "invariants" / "bidouble.strict.json").read_bytes()


def test_cli_json_report_past_digit_limit_writes_nothing_to_a_pipe(tmp_path):
    doc = json.loads((COVERS / "identity.json").read_text())
    doc["base"]["KX_sq"] = doc["cover"]["degree"] = 10**4000
    target = tmp_path / "huge.json"
    target.write_text(json.dumps(doc))
    code, out, err = _run_through_a_pipe("invariants", str(target), "--json")
    assert (code, out) == (2, b"")
    assert err.startswith("error: report not rendered: ") and err.count("\n") == 1


_N = str(10**3000 + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["bs-bound", str(10**2200), "1"],
        ["hj", str(10**4000 + 1), "2"],
        ["local", _N, "0", "0", _N],
        ["invariants", "HUGE_SHEET"],
        ["invariants", "--json", "HUGE_SHEET"],
    ],
    ids=["bs-bound", "hj", "local", "invariants-text", "invariants-json"],
)
def test_cli_output_past_digit_limit_is_one_error_line(capsys, tmp_path, argv):
    # Every argument is under the interpreter's limit of 4300 digits for
    # int <-> str conversion, but some number the command prints is not.
    # In the document, e and f have 2501 digits; V1's message prints e * f.
    doc = json.loads((COVERS / "identity.json").read_text())
    doc["cover"]["ramification"]["D1"] = [{"e": 10**2500, "f": 10**2500}]
    target = tmp_path / "huge_sheet.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, *[str(target) if a == "HUGE_SHEET" else a for a in argv])
    assert (code, out) == (2, "")
    assert err == (
        "error: report not rendered: it holds an integer of more than "
        f"{sys.get_int_max_str_digits()} decimal digits\n"
    )


def test_cli_other_value_errors_are_not_caught(monkeypatch):
    def broken(n, q):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(ramcov.cli, "SingularityType", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["hj", "5", "2"])


def test_cli_invariants_reports_n_below_one_as_invalid_local_type(capsys, tmp_path):
    doc = json.loads((COVERS / "bidouble.json").read_text())
    doc["cover"]["points_above"]["0"][0]["local"] = {"n": 0, "q": 0, "m1": 1, "m2": 1}
    target = tmp_path / "n0.json"
    target.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "invariants", str(target))
    assert code == 1
    assert "V5 at crossing 0, point 0: crossing 0, point 0: n must be >= 1 (got 0)" in out
    assert (
        "invariants: not computed (crossing 0: invalid local type: n must be >= 1 (got 0))"
        in out.splitlines()
    )


def test_cli_invariants_ev_arity_error(capsys):
    code, _, err = run(capsys, "invariants", str(COVERS / "identity.json"), "--ev", "0", "2")
    assert code == 2
    assert "--ev" in err


def test_cli_invariants_json_matches_schema(capsys):
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    for argv in (
        ("invariants", str(COVERS / "identity.json"), "--json"),
        ("invariants", str(COVERS / "bidouble.json"), "--json", "--strict",
         "--ev", "0", "2", "0", "2", "0"),
        ("invariants", str(COVERS / "malformed" / "bad_v1.json"), "--json"),
    ):
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        validator.validate(payload)
        assert payload["validation"]["valid"] == (code == 0)


def test_cli_invariants_json_values(capsys):
    _, out, _ = run(capsys, "invariants", str(COVERS / "kummer_2_1.json"), "--json")
    payload = json.loads(out)
    inv = payload["invariants"]
    assert inv["deg_det"] == "-1"
    assert inv["chi"] == "1"
    assert inv["KYprime_sq"] == "8"
    assert inv["euler_Yprime"] == 4
    assert payload["consistency"] == {"chi_integral": True, "deg_det_integral": True}
    assert payload["certificate"]["satisfied"] is True


def test_cli_invariants_output_is_byte_deterministic(capsys, tmp_path):
    target = COVERS / "bidouble.json"
    _, first, _ = run(capsys, "invariants", str(target), "--json")
    _, second, _ = run(capsys, "invariants", str(target), "--json")
    assert first == second

    doc = json.loads(target.read_text())
    doc["base"]["components"].reverse()
    doc["base"]["crossings"].reverse()
    doc["cover"]["points_above"] = dict(reversed(list(doc["cover"]["points_above"].items())))
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(doc, indent=0))
    _, third, _ = run(capsys, "invariants", str(shuffled), "--json")
    assert third == first


# --------------------------------------------------------------- cli: verify


def test_cli_verify_clean(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "30", "--max-index", "8")
    assert code == 0 and err == ""
    assert "hj sweep: checked" in out
    assert "lattice sweep: checked" in out
    assert "all properties hold" in out


def test_cli_verify_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("RAMCOV_MAX_ENUM", "10")
    code, _, err = run(capsys, "verify", "--max-n", "5", "--max-index", "20")
    assert code == 2 and "error:" in err

    monkeypatch.setenv("RAMCOV_MAX_ENUM", "25")
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--max-index", "20")
    assert code == 0 and "all properties hold" in out

    monkeypatch.setenv("RAMCOV_MAX_ENUM", "plenty")
    code, _, err = run(capsys, "verify", "--max-n", "5", "--max-index", "20")
    assert code == 2 and "RAMCOV_MAX_ENUM" in err


def test_cli_verify_max_n_is_capped_before_any_sweep(capsys, monkeypatch):
    def no_sweep_work(sing):
        raise AssertionError("the hj sweep started")

    monkeypatch.setattr(ramcov.verify, "hj_expand", no_sweep_work)
    code, out, err = run(capsys, "verify", "--max-n", "100000", "--max-index", "3")
    assert (code, out) == (2, "")
    assert err == "error: max_n 100000 exceeds the enumeration cap 1000\n"

    monkeypatch.setenv("RAMCOV_MAX_ENUM", "10")
    code, out, err = run(capsys, "verify", "--max-n", "11", "--max-index", "3")
    assert (code, out) == (2, "")
    assert err == "error: max_n 11 exceeds the enumeration cap 10\n"


@pytest.mark.parametrize(
    "env,argv,message",
    [
        ("300", ("--max-n", "300", "--max-index", "301"), "max_index 301 exceeds the enumeration cap 300"),
        (None, ("--max-n", "1000", "--max-index", "1001"), "max_index 1001 exceeds the enumeration cap 1000"),
        (None, ("--max-n", "50", "--max-index", "0"), "max_index must be >= 1 (got 0)"),
        ("0", ("--max-n", "1", "--max-index", "5"), "max_n must be >= 2 (got 1)"),
    ],
)
def test_cli_verify_max_index_is_checked_before_any_sweep(capsys, monkeypatch, env, argv, message):
    def no_hj_sweep(*args, **kwargs):
        raise AssertionError("the hj sweep started")

    monkeypatch.setattr(ramcov.cli, "hj_sweep", no_hj_sweep)
    if env is not None:
        monkeypatch.setenv("RAMCOV_MAX_ENUM", env)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_cli_verify_reports_planted_counterexample(capsys, monkeypatch):
    def corrupted(gamma):
        lt = local_type(gamma)
        if lt.n == 3:
            return LocalCoverType(n=lt.n, q=lt.q, m1=lt.m1 + 1, m2=lt.m2)
        return lt

    monkeypatch.setattr(ramcov.verify, "local_type", corrupted)
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--max-index", "9")
    assert code == 1
    assert "PROPERTY VIOLATIONS FOUND" in out
    assert "property" in out and "failed at" in out


# ------------------------------------------------------------- cli: bs-bound


def test_cli_bs_bound(capsys):
    code, out, err = run(capsys, "bs-bound", "2", "3")
    assert code == 0 and err == ""
    assert "exact form: log(h + 1) + 84 * log(24)" in out
    assert "approximate: logarithms evaluated at 50 significant digits" in out

    code, out, _ = run(capsys, "bs-bound", "2", "1", "3/2")
    assert code == 0 and "height h = 3/2" in out

    code, _, err = run(capsys, "bs-bound", "1", "1")
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "bs-bound", "2", "1", "7/0")
    assert code == 2 and "error:" in err


# ------------------------------------------------------------ cli: top level


def test_cli_parser_is_built_once_per_process():
    assert ramcov.cli._build_parser() is ramcov.cli._build_parser()


def test_cli_usage_errors(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2 and "invalid choice" in err
    code, _, _ = run(capsys)
    assert code == 2
    code, out, _ = run(capsys, "--version")
    assert code == 0 and "ramcov" in out
