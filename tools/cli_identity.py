"""Compare the bytes of every ``ramcov`` subcommand between two source trees.

Usage::

    python3 tools/cli_identity.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding a ``ramcov`` package, such as the
``src`` directory of a checkout.  One child process per tree imports that
package and calls ``ramcov.cli.main`` in-process on every run; the runs are
the same for both trees.  The corpus is read from the checkout this script
lives in:

* every document in ``demos/covers/``, ``demos/covers/malformed/`` and
  ``tests/fixtures/documents/``;
* 30 ``grid`` and 30 ``cyclic`` documents generated by
  ``perfbench/workloads.py`` (seed 1).

Each document runs through ``invariants`` as text and ``--json``, each with
and without ``--strict`` and with and without ``--ev 1 2 0 2 3``: eight
runs.  The other subcommands run on fixed arguments: ``verify`` at the five
sizes of the ``verify`` workload and with ``--max-n 1``; ``hj`` on a du Val,
a non-du-Val, an invalid and an over-cap type; ``local`` on a product, a
singular and a degenerate lattice; ``bs-bound`` with and without ``h``.

The script names every run whose exit code, stdout or stderr differ between
the trees, shows both sides of the first, and exits 1; otherwise it exits 0.
Its last line counts the runs per subcommand.  It uses the standard library
only.
"""

from __future__ import annotations

import collections
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FOLDERS = (
    ROOT / "demos" / "covers",
    ROOT / "demos" / "covers" / "malformed",
    ROOT / "tests" / "fixtures" / "documents",
)
WORKLOAD_DOCUMENTS = 30
SEED = 1
FLAG_SETS = [
    [*json_flag, *strict, *ev]
    for json_flag in ([], ["--json"])
    for strict in ([], ["--strict"])
    for ev in ([], ["--ev", "1", "2", "0", "2", "3"])
]
FIXED_RUNS = [
    ["verify", "--max-n", "1"],
    ["hj", "5", "4"],  # du Val
    ["hj", "12", "5"],  # not du Val
    ["hj", "4", "2"],  # n and q not coprime
    ["hj", "1000002", "1000001"],  # a chain past the cap
    ["local", "2", "0", "0", "3"],  # a product
    ["local", "2", "0", "1", "1"],  # a node
    ["local", "1", "0", "2", "0"],  # degenerate: index 0
    ["bs-bound", "2", "3"],
    ["bs-bound", "2", "3", "5/2"],
]
LABELS = ("exit code", "stdout", "stderr")

# Runs every argv read from stdin through ramcov.cli.main in one process and
# writes [exit code, stdout, stderr] per run; an exception that escapes main
# is recorded in place of the exit code.
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from ramcov.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _workloads():
    """The ``perfbench/workloads.py`` module."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def workload_documents(folder: pathlib.Path) -> list[pathlib.Path]:
    """Write the ``grid`` and ``cyclic`` documents into ``folder``."""
    generators = _workloads().WORKLOADS
    paths = []
    for name in ("grid", "cyclic"):
        for i in range(WORKLOAD_DOCUMENTS):
            path = folder / f"{name}_{i}.json"
            path.write_text(generators[name].request(SEED, i).document, encoding="utf-8")
            paths.append(path)
    return paths


def run_tree(src: str, runs: list[list[str]]) -> list:
    """The [exit code, stdout, stderr] of every run, with ``ramcov`` imported from ``src``."""
    done = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, src],
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{src}: the runner failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_identity.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent_src, change_src = argv
    with tempfile.TemporaryDirectory() as tmp:
        documents = [p for folder in FOLDERS for p in sorted(folder.glob("*.json"))]
        documents += workload_documents(pathlib.Path(tmp))
        runs = [["invariants", str(doc), *flags] for doc in documents for flags in FLAG_SETS]
        runs += [
            ["verify", "--max-n", str(max_n), "--max-index", str(max_index)]
            for max_n, max_index in _workloads().VERIFY_SIZES
        ]
        runs += FIXED_RUNS
        parent, change = run_tree(parent_src, runs), run_tree(change_src, runs)
    differing = 0
    for argv_, before, after in zip(runs, parent, change):
        labels = [label for label, a, b in zip(LABELS, before, after) if a != b]
        if not labels:
            continue
        print(f"differs in {', '.join(labels)}: ramcov {' '.join(argv_)}")
        if not differing:
            for label, a, b in zip(LABELS, before, after):
                if a != b:
                    print(f"--- {parent_src} {label}\n{a}\n+++ {change_src} {label}\n{b}")
        differing += 1
    counts = collections.Counter(argv_[0] for argv_ in runs)
    per_command = ", ".join(f"{command} {count}" for command, count in counts.items())
    verdict = f"{differing} differ" if differing else "identical exit code, stdout and stderr"
    print(f"{len(runs)} runs ({per_command}; {len(documents)} documents): {verdict}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
