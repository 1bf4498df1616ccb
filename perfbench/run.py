"""Benchmark of ``ramcov invariants`` and ``ramcov verify``, end to end and per layer.

    python3 perfbench/run.py --workload {grid,cyclic,verify,all} --seed N \\
        --seconds S --trace {0,1}

The program under test is the ``ramcov`` package in the ``src`` directory of
the checkout that holds this file, and nothing else.

One client sends requests in a closed loop from one single-threaded worker
process (see ``worker.py``; the workloads and their oracles are in
``workloads.py``).  A run is a fixed sequence of requests drawn from
``--seed``, sized so that the seed commit spends about ``--seconds`` in
timed requests on a quiet host; a faster commit finishes the same work
sooner.  Fixed work keeps the figures comparable between commits: the
resolution cache grows with the number of requests served, so a run of fixed
length in time would charge a faster commit with more memory.

Every request, and every setup launch, is timed next to one pass of fixed
calibration work on the same CPU and scaled to the host's reference speed
(see ``calibrate.py``): the host runs the same code up to half again as
slow for minutes at a time, on every CPU at once, and the scaling takes
that out of the figures.  The table also shows the unscaled p50 and the
host's speed.

``--trace 0`` runs the sequence ROUNDS times, each round in a fresh process
pinned to one CPU, the CPUs taking turns, so every round does the same work
from the same cold caches.  A request's latency is the median of its ROUNDS
scaled timings, so a round that other tenants slowed more than the
calibration shows does not set it.  After each round it makes
SETUP_LAUNCHES launches, on the round's CPU, of a fresh interpreter that
imports ``ramcov.cli`` and builds its parser; a launch's time is likewise
the median of its ROUNDS scaled timings, and ``setup_s`` is the median over
launches.  It reports the end-to-end metrics.

``--trace 1`` runs the sequence untraced, traced and untraced again, each in
its own process on one CPU, and reports the per-layer metrics of the traced
round and the scaled throughput lost to tracing against the mean of the two
untraced rounds.  The per-layer times are not scaled.
The spans are written to ``perfbench/_work/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show the same
figures as a table, with the error rate, the sample count and, for a traced
run, the self time of every layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, calibrate, scaled  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_SPECS  # noqa: E402

WORKLOADS = tuple(WORKLOAD_SPECS)
#: A workload's run may take DEADLINE_FACTOR times the timed work it plans
#: at the seed commit's rate, plus DEADLINE_SLACK_S; a worker still running
#: then is stopped and the run fails.
DEADLINE_FACTOR = 4
DEADLINE_SLACK_S = 20

#: Requests in the sequence, at least: p90 then has ten samples beyond it.
MIN_REQUESTS = 100
#: Rounds of the request sequence in an untraced run; round r runs on
#: CPUS[r % len(CPUS)].
ROUNDS = 4
#: Fresh interpreters timed after each round, on the round's CPU, for setup_s.
SETUP_LAUNCHES = 9
#: The CPUs this process may run on.  On a shared host one CPU can run the
#: same code half again as slow as another for seconds to minutes, and a
#: process the scheduler places there stays there, so each round and each
#: launch is pinned to one CPU and the CPUs take turns.
CPUS = sorted(os.sched_getaffinity(0))
SETUP_TIMEOUT_S = 60
SETUP_CODE = "import ramcov.cli; ramcov.cli._build_parser()"

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_ms": "ms",
    "loader.parse_ms": "ms",
    "loader.input_kb": "KiB",
    "model.validate_ms": "ms",
    "model.lookup_calls": "count",
    "model.lookups_per_crossing": "count",
    "local_cover.local_type_ms": "ms",
    "local_cover.local_type_calls": "count",
    "local_cover.classify_yield": "ratio",
    "local_cover.busy_ms": "ms",
    "hj.resolve_ms": "ms",
    "hj.resolve_calls": "count",
    "hj.chain_entries": "count",
    "hj.resolve_yield": "ratio",
    "hj.discrepancies_ms": "ms",
    "hj.busy_ms": "ms",
    "invariants.report_self_ms": "ms",
    "invariants.certificate_self_ms": "ms",
    "invariants.report_calls": "count",
    "invariants.pair_reuse_share": "ratio",
    "report.render_ms": "ms",
    "report.echo_ms": "ms",
    "verify.hj_sweep_ms": "ms",
    "verify.lattice_sweep_ms": "ms",
    "verify.checks_per_s": "1/s",
    "verify.busy_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _stop(signum, frame):
    """Turn SIGTERM into an exit that kills and reaps the running child first."""
    raise SystemExit(128 + signum)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _pin(cpu: int):
    """preexec_fn that pins the child to ``cpu`` before it starts."""
    return lambda: os.sched_setaffinity(0, {cpu})


def requests_for(workload: str, seconds: float, rounds: int) -> int:
    """Whole blocks of requests that fill about ``seconds`` over ``rounds`` at the seed."""
    spec = WORKLOAD_SPECS[workload]
    blocks = max(math.ceil(MIN_REQUESTS / spec.block), round(seconds * spec.rate / rounds / spec.block))
    return blocks * spec.block


def deadline_for(workload: str, requests: int, rounds: int) -> float:
    """perf_counter() value by which a run of ``rounds`` x ``requests`` must end."""
    planned_s = rounds * requests / WORKLOAD_SPECS[workload].rate
    return perf_counter() + DEADLINE_FACTOR * planned_s + DEADLINE_SLACK_S


def worker(workload: str, seed: int, requests: int, *, traced: bool, cpu: int, deadline: float) -> dict:
    """Run the request sequence in a fresh worker process on ``cpu`` and return its figures."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--requests={requests}",
        f"--workdir={workdir}",
    ]
    if traced:
        cmd += ["--traced", f"--spans={WORK / f'spans-{workload}-{seed}.jsonl'}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=_pin(cpu),
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker for {workload} timed out after {exc.timeout:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {workload} exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"worker for {workload} printed no result") from None


def setup_times(cpu: int) -> list[float]:
    """Scaled wall times of fresh interpreters on ``cpu`` that import ramcov.cli and build its parser.

    This process moves to ``cpu`` meanwhile and times one calibration before
    each launch.  The exit is awaited on a pidfd: ``subprocess.run(timeout=...)``
    polls the child with sleeps of up to 50 ms, which would round every
    launch up to the next poll.
    """
    env = _env()
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, calibrations = [], []
    os.sched_setaffinity(0, {cpu})
    try:
        for _ in range(SETUP_LAUNCHES):
            calibrations.append(calibrate())
            start = perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, preexec_fn=_pin(cpu))
            pidfd = os.pidfd_open(proc.pid)
            ended = []
            try:
                ended, _, _ = select.select([pidfd], [], [], SETUP_TIMEOUT_S)
                times.append(perf_counter() - start)
            finally:
                os.close(pidfd)
                if not ended:
                    proc.kill()
                proc.wait()
            if not ended:
                raise BenchmarkError(f"setup launch still running after {SETUP_TIMEOUT_S} s")
            if proc.returncode != 0:
                raise BenchmarkError(f"setup launch exited with code {proc.returncode}")
    finally:
        os.sched_setaffinity(0, CPUS)
    return scaled(times, calibrations)


def _table(rows: list[tuple[str, float, str]]) -> None:
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>14.4f} {unit}")


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    requests = requests_for(workload, seconds, ROUNDS)
    deadline = deadline_for(workload, requests, ROUNDS)
    rounds, setup = [], []
    for r in range(ROUNDS):
        cpu = CPUS[r % len(CPUS)]
        rounds.append(worker(workload, seed, requests, traced=False, cpu=cpu, deadline=deadline))
        setup.append(setup_times(cpu))
    # Request i, and launch j, do the same work in every round; keep the
    # median of its scaled timings.
    latencies = [statistics.median(times)
                 for times in zip(*(scaled(r["latencies"], r["calibrations"]) for r in rounds))]
    unscaled = [statistics.median(times) for times in zip(*(r["latencies"] for r in rounds))]
    speed = REFERENCE_S / statistics.median(c for r in rounds for c in r["calibrations"])
    launches = [statistics.median(times) for times in zip(*setup)]
    attempted = ROUNDS * requests
    failed = sum(r["failed"] for r in rounds)
    values = {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(launches),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"{workload}: {requests} requests x {ROUNDS} rounds, {len(launches)} setup launches"
          f" x {ROUNDS} rounds, CPUs {CPUS}")
    _table([(name, m["value"], m["unit"]) for name, m in metrics.items()])
    _table([("error_rate", failed / attempted, "ratio"),
            ("unscaled_latency_p50_ms", statistics.median(unscaled) * 1e3, "ms"),
            ("host_speed", speed, "x reference")])
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    requests = requests_for(workload, seconds, 3)
    deadline = deadline_for(workload, requests, 3)
    # One CPU for all three, so that the overhead compares like with like.
    cpu = CPUS[-1]
    before = worker(workload, seed, requests, traced=False, cpu=cpu, deadline=deadline)
    traced = worker(workload, seed, requests, traced=True, cpu=cpu, deadline=deadline)
    after = worker(workload, seed, requests, traced=False, cpu=cpu, deadline=deadline)
    values = dict(traced["figures"])

    def total_s(r):
        return sum(scaled(r["latencies"], r["calibrations"]))

    plain_s = (total_s(before) + total_s(after)) / 2
    values["trace.overhead_pct"] = 100 * (1 - plain_s / total_s(traced))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    print(f"{workload}: {requests} requests, untraced, traced and untraced again")
    _table([(name, m["value"], m["unit"]) for name, m in metrics.items()])
    print(f"{workload}: self time per request by layer (dominant: {traced['dominant_layer']})")
    _table([(layer, ms, "ms") for layer, ms in traced["layers_ms"].items()])
    return {
        "attempted": 3 * requests,
        "failed": before["failed"] + traced["failed"] + after["failed"],
        "metrics": metrics,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "ramcov" / "cli.py").is_file():
        print(f"run.py: no ramcov sources under {ROOT / 'src'}; run it inside a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)
    WORK.mkdir(exist_ok=True)
    one = run_traced if args.trace else run_untraced
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = one(workload, args.seed, args.seconds)
        except BenchmarkError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        line = {"correct": result["failed"] == 0, **result}
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
