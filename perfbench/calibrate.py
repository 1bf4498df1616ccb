"""Host-speed calibration: a fixed piece of pure-Python work timed next to every request.

The host is shared.  For seconds to minutes at a time it runs the same code
up to half again as slow, on every CPU at once, and a timing of ``ramcov``
alone cannot tell that from a slower commit.  So the benchmark times a fixed
piece of work, ``calibrate()``, just before every request and every setup
launch, on the same CPU, and scales each timing by how fast the host ran
the calibration around it:

    scaled = measured * REFERENCE_S / (median calibration time nearby)

A scaled time is the time the request would have taken on a host that runs
one calibration in ``REFERENCE_S`` seconds, as the 2-vCPU host the benchmark
was tuned on does in a fast phase.  The calibration is stdlib only and shares
no code with ``ramcov``, so a commit cannot change it; it mixes the integer
arithmetic, dict lookups, string formatting and calls that ``ramcov`` spends
its time on, so a slow phase of the host slows both alike.  It allocates no
object the garbage collector tracks and runs with the collector off, so it
neither triggers nor pays for a collection of the program's objects.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Seconds one calibrate() takes on the tuning host in a fast phase.
REFERENCE_S = 0.002
#: A timing is scaled by the median of the calibrations of the WINDOW
#: requests before it, its own and the WINDOW after it.
WINDOW = 4

_TABLE = {f"k{i}": i for i in range(512)}
_KEYS = tuple(_TABLE)


def _arithmetic(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _lookups(n: int) -> int:
    total = 0
    for i in range(n):
        key = _KEYS[(i * 7) % 512]
        total += _TABLE[key] + len(f"{key}:{total % 1000}")
    return total


def _step(a: int, b: int) -> int:
    return (a * 31 + b) % 1_000_003


def _calls(n: int) -> int:
    value = 1
    for i in range(n):
        value = _step(value, i)
    return value


def calibrate() -> float:
    """Wall time, in seconds, of one fixed pass of calibration work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _arithmetic(8000)
        _lookups(2500)
        _calls(5000)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(times: list[float], calibrations: list[float], window: int = WINDOW) -> list[float]:
    """``times[i]`` scaled to the reference speed by the calibrations around it.

    ``calibrations[i]`` was taken just before ``times[i]``, on the same CPU.
    """
    if len(times) != len(calibrations):
        raise ValueError("one calibration per timing")
    out = []
    for i, t in enumerate(times):
        nearby = calibrations[max(0, i - window): i + window + 1]
        out.append(t * REFERENCE_S / statistics.median(nearby))
    return out
