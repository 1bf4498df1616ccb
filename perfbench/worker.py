"""One closed-loop client: runs a workload's requests through ``ramcov.cli.main``.

Each request is an in-process ``main(argv)`` call with stdout and stderr
captured to memory.  Only that call is timed.  The request's document is
written to a file, and one pass of ``calibrate()`` is timed, before its
timer starts; its response is checked against the workload's oracle after
the timer stops.  The next request is
sent when the previous one has completed and been checked.

A run is the workload's first ``--requests`` requests for ``--seed``; it
prints one JSON object with the latency and the calibration time of every
request, the failures and the process's peak RSS.  With ``--traced`` the calls into every layer are
wrapped (see ``tracer``) and the figures are the per-layer ones.

Run it through ``run.py``, which starts one process per round.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from calibrate import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DOCUMENT, WORKLOADS  # noqa: E402


def _import_cli():
    import ramcov
    import ramcov.cli

    if Path(ramcov.__file__).resolve().parent != ROOT / "src" / "ramcov":
        raise SystemExit(f"worker: imported ramcov from {ramcov.__file__}, not from {ROOT / 'src'}")
    return ramcov.cli


def run(cli, workload, seed: int, requests: int, workdir: Path, tracer: "Tracer | None" = None) -> dict:
    """Run requests 0 .. requests-1 in a closed loop; return their timings and, when traced, records."""
    document_path = workdir / "document.json"
    latencies: list[float] = []
    calibrations: list[float] = []
    records: list[dict] = []
    failed = 0
    for i in range(requests):
        req = workload.request(seed, i)
        argv = list(req.argv)
        size = 0
        if req.document is not None:
            document_path.write_text(req.document, encoding="utf-8")
            size = len(req.document.encode("utf-8"))
            argv = [str(document_path) if a == DOCUMENT else a for a in argv]

        calibrations.append(calibrate())
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if tracer is not None:
            tracer.begin(i)
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # counted as a failed request, never re-raised
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end()

        try:
            message = error or workload.check(req, code, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            message = f"unreadable response: {exc!r}"
        if message is not None:
            failed += 1
            print(
                f"mismatch: workload={workload.name} seed={seed} request={i}: {message}",
                file=sys.stderr,
            )
        latencies.append(elapsed)
        if tracer is not None:
            records.append({"bytes": size, "points": req.points, "crossings": req.crossings,
                            "pairs": req.pairs, "expect": req.expect})
    return {"latencies": latencies, "calibrations": calibrations, "records": records, "failed": failed}


def layer_figures(tracer: Tracer, result: dict) -> dict:
    """Per-layer metrics of a traced run; times are per-request means in ms."""
    n = len(result["latencies"])
    totals = tracer.totals()
    layer_ns = tracer.layer_ns()

    def calls(*names):
        return sum(totals.get(name, (0,))[0] for name in names)

    def self_ms(*names):
        return sum(totals.get(name, (0, 0, 0))[2] for name in names) / 1e6 / n

    def inclusive_ms(*names):
        return sum(totals.get(name, (0, 0, 0))[1] for name in names) / 1e6 / n

    counts: dict[str, int] = {}
    for per_request in tracer.request_counts:
        for key, value in per_request.items():
            counts[key] = counts.get(key, 0) + value

    records = result["records"]
    points = sum(r["points"] for r in records)
    crossings = sum(r["crossings"] for r in records)
    # Reuse share: singular points whose (n, q) occurred in an earlier request.
    seen: set = set()
    singular = reused = 0
    for r in records:
        singular += len(r["pairs"])
        reused += sum(pair in seen for pair in r["pairs"])
        seen.update(r["pairs"])
    local_type_calls = calls("local_cover.local_type")
    resolve_calls = calls("hj.resolve")
    checks = sum(sum(r["expect"].values()) for r in records) if calls("verify.hj_sweep") else 0
    sweep_s = inclusive_ms("verify.hj_sweep", "verify.lattice_sweep") * n / 1e3

    figures = {
        "cli.self_ms": self_ms("cli.main"),
        "loader.parse_ms": self_ms("loader.load_cover_path"),
        "loader.input_kb": sum(r["bytes"] for r in records) / 1024 / n,
        "model.validate_ms": self_ms("model.validate"),
        "model.lookup_calls": counts.get("model.lookup", 0) / n,
        "model.lookups_per_crossing": counts.get("model.lookup", 0) / crossings if crossings else 0.0,
        "local_cover.local_type_ms": self_ms("local_cover.local_type"),
        "local_cover.local_type_calls": local_type_calls / n,
        "local_cover.classify_yield": points / local_type_calls if local_type_calls else 0.0,
        "local_cover.busy_ms": layer_ns["local_cover"] / 1e6 / n,
        "hj.resolve_ms": inclusive_ms("hj.resolve"),
        "hj.resolve_calls": resolve_calls / n,
        "hj.chain_entries": counts.get("hj.chain_entries", 0) / n,
        "hj.resolve_yield": len(seen) / resolve_calls if resolve_calls else 0.0,
        "hj.discrepancies_ms": self_ms("hj.discrepancies"),
        "hj.busy_ms": layer_ns["hj"] / 1e6 / n,
        "invariants.report_self_ms": self_ms("invariants.invariant_report"),
        "invariants.certificate_self_ms": self_ms("invariants.degree_linear_certificate"),
        "invariants.report_calls": calls("invariants.invariant_report") / n,
        "invariants.pair_reuse_share": reused / singular if singular else 0.0,
        "report.render_ms": self_ms("report.to_json", "report.to_text"),
        "report.echo_ms": self_ms("report.canonical_document", "report.derived_euler_data"),
        "verify.hj_sweep_ms": inclusive_ms("verify.hj_sweep"),
        "verify.lattice_sweep_ms": inclusive_ms("verify.lattice_sweep"),
        "verify.checks_per_s": checks / sweep_s if sweep_s else 0.0,
        "verify.busy_ms": layer_ns["verify"] / 1e6 / n,
    }
    layers_ms = {layer: ns / 1e6 / n for layer, ns in layer_ns.items()}
    return {
        "figures": figures,
        "layers_ms": layers_ms,
        "dominant_layer": max(layers_ms, key=layers_ms.get),
        "calls": {name: row[0] for name, row in sorted(totals.items())},
        "counts": tracer.request_counts,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    cli = _import_cli()
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.traced else None
    saved = tracer.install() if tracer else []
    try:
        result = run(cli, workload, args.seed, args.requests, args.workdir, tracer)
    finally:
        Tracer.uninstall(saved)
    figures = {
        "latencies": result["latencies"],
        "calibrations": result["calibrations"],
        "failed": result["failed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        figures.update(layer_figures(tracer, result))
        if args.spans is not None:
            tracer.dump(args.spans)
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
