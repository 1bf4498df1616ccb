"""Spans and counters recorded from outside ``ramcov`` by wrapping its functions.

Each function is wrapped under the module (or class) attribute its caller
looks it up by, so every call is seen once: ``cmd_invariants`` reaches
``invariant_report`` through ``ramcov.cli`` and the certificate reaches it
through ``ramcov.invariants``, so both names are wrapped.  :meth:`Tracer.install`
returns the list of originals and :meth:`Tracer.uninstall` puts every one back.

Three kinds of wrapper:

* a *span* records name, start, end, parent span and request id, one record
  per call, kept in memory until :meth:`Tracer.dump` writes them out;
* a *leaf* is a hot function with no wrapped callees (``local_type`` runs
  thousands of times per grid request).  Its calls are summed per enclosing
  span, by count and time, instead of one record each, which keeps memory
  bounded; the enclosing span's self time still excludes them;
* a *counter* only counts calls (the model's linear lookups).

``LatticeSubgroup.contains`` is not wrapped.  ``lattice_sweep(45)`` calls it
41 108 times for 1 686 subgroups, each call takes well under a microsecond,
and a wrapper would cost more than the call.  Its time stays in the sweep's
self time, in the ``verify`` layer.

Self time of a span is its duration minus the time its child spans and
leaves cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from collections import Counter
from time import perf_counter_ns

# (owner, attribute, span name); the layer is the name's first component.
SPANS = (
    ("ramcov.cli", "main", "cli.main"),
    ("ramcov.cli", "load_cover_path", "loader.load_cover_path"),
    ("ramcov.cli", "validate", "model.validate"),
    ("ramcov.cli", "invariant_report", "invariants.invariant_report"),
    ("ramcov.invariants", "invariant_report", "invariants.invariant_report"),
    ("ramcov.cli", "degree_linear_certificate", "invariants.degree_linear_certificate"),
    ("ramcov.invariants", "resolve", "hj.resolve"),
    ("ramcov.cli", "canonical_document", "report.canonical_document"),
    ("ramcov.cli", "derived_euler_data", "report.derived_euler_data"),
    ("ramcov.report:ReportDocument", "to_json", "report.to_json"),
    ("ramcov.report:ReportDocument", "to_text", "report.to_text"),
    ("ramcov.cli", "hj_sweep", "verify.hj_sweep"),
    ("ramcov.cli", "lattice_sweep", "verify.lattice_sweep"),
    ("ramcov.verify", "enumerate_subgroups", "local_cover.enumerate_subgroups"),
)

LEAVES = (
    ("ramcov.model", "local_type", "local_cover.local_type"),
    ("ramcov.verify", "local_type", "local_cover.local_type"),
    ("ramcov.hj", "hj_expand", "hj.hj_expand"),
    ("ramcov.hj", "discrepancies", "hj.discrepancies"),
    ("ramcov.verify", "hj_expand", "hj.hj_expand"),
    ("ramcov.verify", "discrepancies", "hj.discrepancies"),
    ("ramcov.verify", "hj_evaluate", "hj.hj_evaluate"),
)

COUNTERS = (
    ("ramcov.model:CoverDescription", "sheets_for", "model.lookup"),
    ("ramcov.model:CoverDescription", "points_for", "model.lookup"),
    ("ramcov.model:BaseGeometry", "component", "model.lookup"),
    ("ramcov.model:BaseGeometry", "crossings_on", "model.lookup"),
    ("ramcov.model:EulerData", "open_component", "model.lookup"),
)

LAYERS = ("cli", "loader", "model", "local_cover", "hj", "invariants", "report", "verify")


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory spans, leaf sums and counters for one traced run.

    A span is stored as ``[id, parent, request, name, start_ns, end_ns,
    child_ns, leaves]`` where ``leaves`` maps a leaf name to ``[calls, ns]``
    summed over the calls made directly under this span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.ids = itertools.count()
        self.request = -1
        self.counts: Counter = Counter()
        self.request_counts: list[dict] = []

    # -- request boundaries -------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.counts = Counter()

    def end(self) -> None:
        self.request_counts.append(dict(self.counts))

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, ids = self.spans, self.stack, self.ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            record = [next(ids), parent, self.request, name, perf_counter_ns(), 0, 0, {}]
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[5] = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][6] += record[5] - record[4]
                spans.append(record)

        return wrapper

    def _leaf(self, name, fn):
        tracer, stack = self, self.stack
        chain_lengths = name == "hj.hj_expand"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                top = stack[-1]
                top[6] += elapsed
                total = top[7].setdefault(name, [0, 0])
                total[0] += 1
                total[1] += elapsed
            if chain_lengths:
                tracer.counts["hj.chain_entries"] += len(result.b)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list:
        """Wrap every listed name; return ``(owner, attribute, original)`` triples."""
        saved = []
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf), (COUNTERS, self._counter)):
            for path, attr, name in table:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
        return saved

    @staticmethod
    def uninstall(saved: list) -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write one JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end, child_ns, leaves in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "self_ns": end - start - child_ns,
                            "leaves": leaves,
                        }
                    )
                    + "\n"
                )

    def layer_ns(self) -> dict[str, int]:
        """Self time summed per layer over the whole run."""
        out = dict.fromkeys(LAYERS, 0)
        for _, _, _, name, start, end, child_ns, leaves in self.spans:
            out[layer_of(name)] += end - start - child_ns
            for leaf, (_, ns) in leaves.items():
                out[layer_of(leaf)] += ns
        return out

    def totals(self) -> dict[str, list]:
        """``[calls, inclusive ns, self ns]`` per span or leaf name over the run."""
        out: dict[str, list] = {}
        for _, _, _, name, start, end, child_ns, leaves in self.spans:
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns
            for leaf, (calls, ns) in leaves.items():
                row = out.setdefault(leaf, [0, 0, 0])
                row[0] += calls
                row[1] += ns
                row[2] += ns
        return out
