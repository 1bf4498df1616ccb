"""List the function-body lines of ``ramcov`` that the test suite never runs.

Usage::

    python3 tools/unrun_lines.py [SRC]

``SRC`` is a directory holding a ``ramcov`` package, such as the ``src``
directory of a checkout; it defaults to this checkout's.  The script runs
this checkout's ``tests/`` in process with pytest, under a ``sys.settrace``
tracer that follows only the frames of ``SRC/ramcov``.  A function-body
line is one that an instruction of a function's code object carries, after
the function's entry (``RESUME``); module and class bodies, which run on
import, do not count, nor do decorator, signature and docstring lines.  It
prints, per module, the function-body lines no test executed, then how many
tests failed under the tracer, naming each: a tracer slows every traced
call, so a test that times its code may fail, and the lines only it runs
then count as unrun.  Hypothesis runs with no deadline.  Each module is
imported under the tracer, and its source read, before the tests run; a
module whose file changes in between is refused with exit 2.  It exits with
1 when some line is unrun, else 0.  A simplification can cite an empty
list, or a line on it, to show that a case it drops never occurs under the
tests.

It needs CPython 3.11 or later, pytest and the test dependencies, and takes
a few minutes: the suite runs several times slower under the tracer.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import os
import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]


def body_lines(path: pathlib.Path) -> set[int]:
    """The lines of ``path`` that hold the body of a function, lambda or comprehension."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [module]
    while stack:
        code = stack.pop()
        stack += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        if code is module or not code.co_flags & inspect.CO_NEWLOCALS:
            continue  # a module or class body
        instructions = list(dis.get_instructions(code))
        entry = next(k for k, ins in enumerate(instructions) if ins.opname == "RESUME")
        lines.update(
            ins.positions.lineno for ins in instructions[entry + 1:] if ins.positions.lineno
        )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if sys.version_info < (3, 11):
        print("error: needs CPython 3.11 or later, whose code objects mark entry with RESUME",
              file=sys.stderr)
        return 2
    src = pathlib.Path(argv[1] if len(argv) == 2 else ROOT / "src").resolve()
    modules = sorted((src / "ramcov").glob("*.py"))
    if not modules:
        print(f"error: no ramcov modules under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.getenv("PYTHONPATH")]))

    import pytest

    try:
        from hypothesis import settings
    except ImportError:
        pass
    else:
        settings.register_profile("unrun_lines", deadline=None)
        settings.load_profile("unrun_lines")

    ran: dict[str, set[int]] = {str(path): set() for path in modules}

    def global_trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    class Failures:
        def __init__(self):
            self.names: list[str] = []

        def pytest_runtest_logreport(self, report):
            if report.failed:
                self.names.append(report.nodeid)

    failures = Failures()
    stamps = {path: path.stat().st_mtime_ns for path in modules}
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        # Import every module under the tracer, then read its source, before
        # the tests run: the lines judged are those of the code the tracer
        # follows, and a module edited between its import and its read is
        # refused.
        import ramcov

        if pathlib.Path(ramcov.__file__).resolve().parent != src / "ramcov":
            print(f"error: ramcov imports from {ramcov.__file__}", file=sys.stderr)
            return 2
        for path in modules:
            importlib.import_module(f"ramcov.{path.stem}")
        body = {path: body_lines(path) for path in modules}
        edited = [path.name for path in modules if path.stat().st_mtime_ns != stamps[path]]
        if edited:
            print(f"error: edited while read: {', '.join(edited)}; run again", file=sys.stderr)
            return 2
        pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"], plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for path in modules:
        missed = sorted(body[path] - ran[str(path)])
        unrun += len(missed)
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
    if not unrun:
        print(f"every function-body line of {src / 'ramcov'} ran")
    print(f"{len(failures.names)} test(s) failed under the tracer")
    for name in failures.names:
        print(f"  {name}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
