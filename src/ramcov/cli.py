"""Command line front end.

Subcommands::

    hj N Q                 resolution data of the cyclic quotient A_{N,Q}
    local X1 Y1 X2 Y2      classify the lattice subgroup with these generators
    invariants FILE        validate a cover document and run the invariant chain
    verify                 exhaustive property sweeps of the arithmetic core
    bs-bound D NB [H]      plane-model height bound on the natural log scale

Exit status: 0 on success, 1 on semantic failure (validation violations or
a property counterexample), 2 on usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import __version__
from .errors import EnumerationLimitError, InputFormatError, InvalidInputError
from .hj import SingularityType, chain_length, resolve
# canonical_document, degree_linear_certificate, derived_euler_data,
# invariant_report and validate are not called here; they stay imported
# because perfbench/tracer.py wraps them under this module's names.
from .invariants import (
    FibrationInputs,
    degree_linear_certificate,
    examine,
    height_log_decimal,
    HEIGHT_LOG_PRECISION,
    invariant_report,
    plane_model_terms,
)
from .loader import load_cover_path
from .local_cover import LatticeSubgroup, check_enumeration_bound, local_type
from .model import derived_euler_data, validate
from .report import ReportDocument, canonical_document, parse_rational
from .verify import hj_sweep, lattice_sweep


#: The longest chain ``ramcov hj`` resolves and prints; that work is linear in its length.
HJ_MAX_CHAIN = 10**6
#: The most report chunks ``invariants --json`` joins into one write.
REPORT_BATCH = 256


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramcov",
        description="Exact invariants and degree bounds for branched covers of fibred surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"ramcov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hj = sub.add_parser("hj", help="resolve a cyclic quotient singularity A_{n,q}")
    p_hj.add_argument("n", type=int)
    p_hj.add_argument("q", type=int)
    p_hj.set_defaults(run=cmd_hj)

    p_local = sub.add_parser("local", help="classify a finite-index subgroup of Z^2")
    p_local.add_argument("coords", type=int, nargs=4, metavar="COORD")
    p_local.set_defaults(run=cmd_local)

    p_inv = sub.add_parser("invariants", help="validate a cover document and compute invariants")
    p_inv.add_argument("file")
    p_inv.add_argument("--strict", action="store_true", help="also check per-sheet incidence (V4)")
    p_inv.add_argument(
        "--ev",
        nargs=5,
        type=int,
        metavar=("GF", "DHOR_F", "GC", "NDC", "NS"),
        help="fibration bound inputs: fibre genus, horizontal fibre degree, "
        "base genus, vertical base point count, singular fibre count "
        "(supplying them asserts the bound's hypotheses)",
    )
    p_inv.add_argument("--json", action="store_true", help="emit the machine-readable report")
    p_inv.set_defaults(run=cmd_invariants)

    p_verify = sub.add_parser("verify", help="run the exhaustive property sweeps")
    p_verify.add_argument("--max-n", type=int, default=100, help="sweep quotient types up to this order")
    p_verify.add_argument("--max-index", type=int, default=30, help="sweep subgroups up to this index")
    p_verify.set_defaults(run=cmd_verify)

    p_bs = sub.add_parser("bs-bound", help="plane-model height bound, natural log scale")
    p_bs.add_argument("d", type=int, help="cover degree (>= 2)")
    p_bs.add_argument("nB", type=int, help="number of branch points (>= 1)")
    p_bs.add_argument("h", nargs="?", default="0", help="affine log height, as p/q (default 0)")
    p_bs.set_defaults(run=cmd_bs_bound)

    return parser


def cmd_hj(args: argparse.Namespace) -> int:
    sing = SingularityType(args.n, args.q)
    length = chain_length(sing)
    if length > HJ_MAX_CHAIN:
        raise EnumerationLimitError(
            f"{sing.label} has a chain of {length} entries, past the cap of {HJ_MAX_CHAIN}"
        )
    data = resolve(sing)
    print("\n".join([
        data.sing.label,
        f"chain: {list(data.chain.b)} (length {data.chain.length})",
        "discrepancies: [" + ", ".join(map(str, data.a)) + "]",
        f"correction: {data.correction!s}",
        f"du Val: {'yes' if data.sing.is_du_val else 'no'}",
    ]))
    return 0


def cmd_local(args: argparse.Namespace) -> int:
    x1, y1, x2, y2 = args.coords
    gamma = LatticeSubgroup((x1, y1), (x2, y2))
    lt = local_type(gamma)
    sing = lt.singularity()
    print("\n".join([
        f"subgroup generated by ({x1}, {y1}) and ({x2}, {y2}): index {gamma.index}",
        f"canonical basis: ({lt.n * lt.m1}, 0), ({lt.q * lt.m1}, {lt.m2})",
        f"n = {lt.n}  q = {lt.q}  m1 = {lt.m1}  m2 = {lt.m2}",
        f"d_y = {lt.d_y}  e1 = {lt.e1}  e2 = {lt.e2}",
        f"type: {'singular ' + sing.label if sing else 'smooth'}",
    ]))
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    base, cover = load_cover_path(args.file)
    # --ev's five numbers are in the order of FibrationInputs' fields.
    fibration = None if args.ev is None else FibrationInputs(*args.ev)
    violations, certificate, error = examine(base, cover, fibration, strict=args.strict)
    doc = ReportDocument(
        strict=args.strict,
        base=base,
        cover=cover,
        violations=tuple(violations),
        certificate=certificate,
        error=error,
    )
    if args.json:
        # Rendering ends before the first write.  Then one write per run of
        # REPORT_BATCH chunks, so no join holds the whole report; a chunk is
        # at most one record's text, under 1 KiB in grid(40)'s report, which
        # keeps each write there below 256 KiB.
        chunks = doc.to_json()
        for start in range(0, len(chunks), REPORT_BATCH):
            sys.stdout.write("".join(chunks[start:start + REPORT_BATCH]))
    else:
        sys.stdout.write(doc.to_text())
    return 0 if not violations else 1


def cmd_verify(args: argparse.Namespace) -> int:
    # Both bounds are checked before either sweep starts, in the order the
    # sweeps would check them.
    check_enumeration_bound("max_n", args.max_n, 2)
    check_enumeration_bound("max_index", args.max_index, 1)

    # Each sweep beside its scope; both finish before the first line is printed.
    results = [
        (hj_sweep(args.max_n), f"types up to n = {args.max_n}"),
        (lattice_sweep(args.max_index), f"subgroups up to index {args.max_index}"),
    ]
    status = 0
    for result, scope in results:
        verdict = "ok" if result.ok else f"{len(result.failures)} failure(s)"
        print(f"{result.suite} sweep: checked {result.checked} {scope}: {verdict}")
        for failure in result.failures:
            status = 1
            print(f"  property {failure.prop} failed at {failure.witness}: {failure.message}")
    print("all properties hold" if status == 0 else "PROPERTY VIOLATIONS FOUND")
    return status


def cmd_bs_bound(args: argparse.Namespace) -> int:
    h = parse_rational(args.h)
    value = height_log_decimal(args.d, args.nB, h)
    coeff, base = plane_model_terms(args.d, args.nB)
    print("\n".join([
        "plane-model height bound (natural log scale)",
        f"  d = {args.d}  branch points = {args.nB}  height h = {h!s}",
        f"  exact form: log(h + 1) + {coeff} * log({base})",
        f"  value ~= {value} "
        f"[approximate: logarithms evaluated at {HEIGHT_LOG_PRECISION} significant digits]",
    ]))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.run(args)
    except (InvalidInputError, InputFormatError, EnumerationLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() refusing an int past the interpreter's digit limit.  Every
        # command builds its whole output before writing, so none is written.
        if "integer string conversion;" not in str(exc):
            raise
        print(
            "error: report not rendered: it holds an integer of more than "
            f"{sys.get_int_max_str_digits()} decimal digits",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
