"""Each module's ``__all__`` is the one list of the names it gives the package.

Every name one ``ramcov`` module imports from another (``from .module import
name``) must be in that module's ``__all__``, and every name in an
``__all__`` must be bound in its module.
"""

import ast
import importlib
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ramcov"


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
