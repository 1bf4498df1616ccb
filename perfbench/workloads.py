"""Seeded request streams and independent oracles for the benchmark.

A workload turns ``(seed, request number)`` into one ``ramcov`` command line
and, when the command reads a cover document, the document text.  Requests
come in blocks.  A block of ``grid`` or ``verify`` requests is a seeded
permutation of the workload's five size classes; a block of ``cyclic``
requests is a stratified draw from its size distribution.  Every run
therefore sees the same size mix whatever the seed, and the median and 90th
percentile it reports fall inside a size class rather than on the border
between two, which keeps them steady from run to run.

Nothing here imports ``ramcov``.  The expected answers come from closed
forms that share no code with the package:

* ``grid``: chi = 1 + (1 - k/2)^2 for the double cover of P1 x P1 branched
  on k fibres and k sections;
* ``cyclic``: the Esnault-Viehweg sum chi = sum_{i<n} (1 - p_i)(1 - q_i)
  for a Z/n cover of P1 x P1 branched on the square of lines
  (Esnault-Viehweg, Lectures on Vanishing Theorems, section 3);
* ``verify``: the sweep counts sum_{2<=n<=N} phi(n) and sum_{k<=K} sigma(k).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Optional

#: Placeholder in a request's argv for the path of its document file.
DOCUMENT = "{document}"


@dataclass(frozen=True)
class Request:
    """One command line, its input document and what the oracle expects."""

    argv: tuple[str, ...]
    document: Optional[str]
    expect: dict
    points: int = 0
    crossings: int = 0
    pairs: tuple[tuple[int, int], ...] = ()


def _block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


# ------------------------------------------------------------------- grid

#: Sizes k (fibres = sections = k, so k^2 crossings; k even, since the branch
#: curve must be divisible by 2); one of each per block.
GRID_K = (6, 8, 12, 16, 20)


def grid_document(k: int, rng: random.Random) -> str:
    """Double cover of P1 x P1 branched on k fibres and k sections.

    Every line carries one sheet with e = 2, f = 1, and over each of the k^2
    crossings sits one ordinary double point, the lattice generated by
    (2, 0) and (1, 1).  The seed shuffles every list and picks the crossing
    indices, which the loader canonicalizes.
    """
    fibres = [f"F{i}" for i in range(k)]
    sections = [f"S{j}" for j in range(k)]
    components = [
        {"id": cid, "genus": 0, "self_int": 0, "KX_dot": -2, "fiber_deg": int(cid in sections)}
        for cid in fibres + sections
    ]
    rng.shuffle(components)
    indices = rng.sample(range(4 * k * k), k * k)
    crossings = [
        {"index": idx, "pair": [f, s]}
        for idx, (f, s) in zip(indices, ((f, s) for f in fibres for s in sections))
    ]
    rng.shuffle(crossings)
    ids = [c["id"] for c in components]
    rng.shuffle(ids)
    ramification = {cid: [{"e": 2, "f": 1}] for cid in ids}
    rng.shuffle(indices)
    points_above = {str(idx): [{"j": 0, "jp": 0, "local": [[2, 0], [1, 1]]}] for idx in indices}
    doc = {
        "base": {
            "genus_C": 0,
            "KX_sq": 8,
            "euler_X": 4,
            "KX_dot_F": -2,
            "components": components,
            "crossings": crossings,
        },
        "cover": {"degree": 2, "ramification": ramification, "points_above": points_above},
    }
    return json.dumps(doc, separators=(",", ":"))


def grid_chi(k: int) -> int:
    """chi(O_Y) = chi(O) + chi(O(-k/2, -k/2)) on P1 x P1."""
    return 1 + (1 - k // 2) ** 2


class Grid:
    name = "grid"
    block = len(GRID_K)
    #: Requests per second of the seed commit on a quiet host; sizes a run.
    rate = 16

    def request(self, seed: int, i: int) -> Request:
        block, slot = divmod(i, self.block)
        rng = _block_rng(self.name, seed, block)
        order = list(GRID_K)
        rng.shuffle(order)
        k = order[slot]
        doc_rng = random.Random(f"{self.name}:{seed}:doc:{i}")
        return Request(
            argv=("invariants", DOCUMENT, "--strict", "--json"),
            document=grid_document(k, doc_rng),
            expect={"k": k, "chi": grid_chi(k)},
            points=k * k,
            crossings=k * k,
            pairs=((2, 1),) * (k * k),
        )

    @staticmethod
    def check(req: Request, code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        report = json.loads(out)
        if not report["validation"]["valid"] or report["validation"]["violations"]:
            return f"validation failed: {report['validation']['violations'][:2]}"
        chi = report["invariants"]["chi"]
        if chi != str(req.expect["chi"]):
            return f"k={req.expect['k']}: chi {chi}, oracle {req.expect['chi']}"
        if report["certificate"]["satisfied"] is not True:
            return f"k={req.expect['k']}: certificate not satisfied"
        return None


# ----------------------------------------------------------------- cyclic

#: Cover orders n are log-uniform on [CYCLIC_N_MIN, CYCLIC_N_MAX].
CYCLIC_N_MIN, CYCLIC_N_MAX = 100, 20_000
#: r ranges over 1..CYCLIC_R.
CYCLIC_R = 8
#: A block draws one n from each of CYCLIC_BLOCK equal slices of the log
#: range, and each run of CYCLIC_R consecutive slices takes every r once, so
#: the joint mix of n and r, which sets the chain lengths, is the same in
#: every block.
CYCLIC_BLOCK = 64

_SQUARE = (("D1", "D3"), ("D1", "D4"), ("D2", "D3"), ("D2", "D4"))


def _kernel_lattice(wi: int, wj: int, n: int) -> tuple[int, int]:
    """Kernel of (s, t) -> wi*s + wj*t mod n, with wi a unit mod n.

    It is generated by (n, 0) and (c, 1) with c = -wj / wi mod n; returns c.
    """
    return (-wj * pow(wi, -1, n)) % n


def cyclic_document(n: int, a1: int, a3: int, rng: random.Random) -> tuple[str, tuple]:
    """Z/n cover of P1 x P1 branched on the square with weights (a1, n-a1, a3, n-a3).

    D1, D2 are fibres and D3, D4 sections.  a1 is a unit mod n, so each line
    has one sheet with e = n / gcd(w, n) and f = gcd(w, n), and each crossing
    one point whose lattice is the kernel of the local weight map.  Returns
    the document text and the (n, q) pairs of its singular points.
    """
    weights = {"D1": a1, "D2": n - a1, "D3": a3, "D4": n - a3}
    components = [
        {"id": cid, "genus": 0, "self_int": 0, "KX_dot": -2, "fiber_deg": int(cid in ("D3", "D4"))}
        for cid in weights
    ]
    rng.shuffle(components)
    ramification = {}
    for cid in rng.sample(list(weights), 4):
        g = math.gcd(weights[cid], n)
        ramification[cid] = [{"e": n // g, "f": g}]
    indices = rng.sample(range(16), 4)
    crossings, points_above, pairs = [], {}, []
    for idx, (fibre, section) in zip(indices, _SQUARE):
        c = _kernel_lattice(weights[fibre], weights[section], n)
        crossings.append({"index": idx, "pair": [fibre, section]})
        points_above[str(idx)] = [{"j": 0, "jp": 0, "local": [[n, 0], [c, 1]]}]
        m1 = math.gcd(n, c)
        if n // m1 > 1:
            pairs.append((n // m1, c // m1))
    rng.shuffle(crossings)
    doc = {
        "base": {
            "genus_C": 0,
            "KX_sq": 8,
            "euler_X": 4,
            "KX_dot_F": -2,
            "components": components,
            "crossings": crossings,
        },
        "cover": {"degree": n, "ramification": ramification, "points_above": points_above},
    }
    return json.dumps(doc, separators=(",", ":")), tuple(pairs)


def ev_chi(n: int, a1: int, a3: int) -> int:
    """Esnault-Viehweg: chi(O_Y) = sum_{i<n} chi(O(-L^(i))) on P1 x P1.

    L^(i) = iL - sum_j floor(i a_j / n) D_j has bidegree (p_i, q_i) below,
    and chi(O(-p, -q)) = (1 - p)(1 - q).
    """
    total = 0
    for i in range(n):
        p = i - (i * a1) // n - (i * (n - a1)) // n
        q = i - (i * a3) // n - (i * (n - a3)) // n
        total += (1 - p) * (1 - q)
    return total


_CHI_LINE = re.compile(r"^  chi = (\S+) \[", re.MULTILINE)


class Cyclic:
    name = "cyclic"
    block = CYCLIC_BLOCK
    rate = 105

    def request(self, seed: int, i: int) -> Request:
        block, slot = divmod(i, self.block)
        rng = _block_rng(self.name, seed, block)
        ratio = CYCLIC_N_MAX / CYCLIC_N_MIN
        draws = []
        for start in range(0, CYCLIC_BLOCK, CYCLIC_R):
            rs = list(range(1, CYCLIC_R + 1))
            rng.shuffle(rs)
            for s, r in enumerate(rs, start):
                n = round(CYCLIC_N_MIN * ratio ** ((s + rng.random()) / CYCLIC_BLOCK))
                draws.append((n, r))
        rng.shuffle(draws)
        n, r = draws[slot]
        doc_rng = random.Random(f"{self.name}:{seed}:doc:{i}")
        while True:
            a1 = doc_rng.randrange(1, n)
            if math.gcd(a1, n) == 1:
                break
        a3 = r * a1 % n
        text, pairs = cyclic_document(n, a1, a3, doc_rng)
        return Request(
            argv=("invariants", DOCUMENT, "--strict"),
            document=text,
            expect={"n": n, "a1": a1, "a3": a3, "r": r},
            points=4,
            crossings=4,
            pairs=pairs,
        )

    @staticmethod
    def check(req: Request, code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        found = _CHI_LINE.search(out)
        if found is None:
            return "no chi line in the text report"
        e = req.expect
        chi = ev_chi(e["n"], e["a1"], e["a3"])
        if found.group(1) != str(chi):
            return f"n={e['n']} a1={e['a1']} a3={e['a3']}: chi {found.group(1)}, oracle {chi}"
        return None


# ----------------------------------------------------------------- verify

#: (max_n, max_index) size classes; one of each per block.
VERIFY_SIZES = ((20, 12), (30, 20), (40, 28), (52, 36), (65, 45))


def totient_sum(max_n: int) -> int:
    """sum_{2<=n<=max_n} phi(n): the coprime pairs (n, q) with 1 <= q < n."""
    phi = list(range(max_n + 1))
    for p in range(2, max_n + 1):
        if phi[p] == p:
            for m in range(p, max_n + 1, p):
                phi[m] -= phi[m] // p
    return sum(phi[2:])


def divisor_sum(max_index: int) -> int:
    """sum_{k<=max_index} sigma(k): the subgroups of Z^2 of index <= max_index."""
    return sum(d * (max_index // d) for d in range(1, max_index + 1))


_CHECKED = re.compile(r"^(hj|lattice) sweep: checked (\d+) .*: ok$", re.MULTILINE)


class Verify:
    name = "verify"
    block = len(VERIFY_SIZES)
    rate = 20

    def request(self, seed: int, i: int) -> Request:
        block, slot = divmod(i, self.block)
        order = list(VERIFY_SIZES)
        _block_rng(self.name, seed, block).shuffle(order)
        max_n, max_index = order[slot]
        return Request(
            argv=("verify", "--max-n", str(max_n), "--max-index", str(max_index)),
            document=None,
            expect={"hj": totient_sum(max_n), "lattice": divisor_sum(max_index)},
        )

    @staticmethod
    def check(req: Request, code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        if "all properties hold" not in out.splitlines():
            return "no 'all properties hold' line"
        checked = {suite: int(count) for suite, count in _CHECKED.findall(out)}
        if checked != req.expect:
            return f"checked counts {checked}, oracle {req.expect}"
        return None


WORKLOADS = {w.name: w for w in (Grid(), Cyclic(), Verify())}
