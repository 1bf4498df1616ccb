"""Each module's ``__all__`` is the one list of the names it gives the package.

Every name one ``ramcov`` module imports from another (``from .module import
name``) must be in that module's ``__all__``, and every name in an
``__all__`` must be bound in its module.  An imported name must also be used
by the module that imports it, unless ``perfbench/tracer.py`` wraps it under
that module: the tracer looks a function up by the name its caller uses.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ramcov"
TRACER = ROOT / "perfbench" / "tracer.py"


def _relative_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    yield path.stem, node.module, alias.name


def test_every_name_imported_across_modules_is_in_all():
    imports = list(_relative_imports())
    assert ("loader", "model", "check_references") in imports
    missing = [
        f"{importer}: {name} from .{module}"
        for importer, module, name in imports
        if name not in importlib.import_module(f"ramcov.{module}").__all__
    ]
    assert missing == []


def test_every_name_in_all_is_bound():
    modules = [importlib.import_module(f"ramcov.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))]
    unbound = [
        f"{module.__name__}: {name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert "ramcov.invariants" in {module.__name__ for module in modules}
    assert unbound == []


def _traced() -> set:
    """``(module, name)`` of every attribute the tracer's tables wrap, read from its source."""
    tables = {}
    for node in ast.parse(TRACER.read_text(), str(TRACER)).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    return {
        (owner.removeprefix("ramcov."), name)
        for table in ("SPANS", "LEAVES", "COUNTERS")
        for owner, name, _ in ast.literal_eval(tables[table])
    }


def test_every_name_imported_across_modules_is_used_or_traced():
    # Five names in cli and resolve in invariants are imported for the
    # tracer alone; any other name a module imports and never reads fails.
    read = {
        path.stem: {n.id for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Name)}
        for path in PACKAGE.glob("*.py")
    }
    traced = _traced()
    assert {("cli", "main"), ("invariants", "resolve"), ("model", "local_type")} <= traced
    unused = {(importer, name) for importer, _, name in _relative_imports()
              if name not in read[importer]}
    assert sorted(unused - traced) == []
