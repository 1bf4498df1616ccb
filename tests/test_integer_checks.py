"""Every integer handed to the API is judged by ``errors.check_int``.

The table pins the exact message each entry point gives for a bool, a
float, a string and a value below its minimum.  The ``ast`` scan keeps the
judge single: outside ``errors.py`` only ``LatticeSubgroup.__post_init__``,
which checks a generator pair on the hot path, may test ``isinstance(...,
bool)`` itself.
"""

import ast
import pathlib

import pytest

from ramcov.errors import InvalidInputError, check_int
from ramcov.hj import SingularityType
from ramcov.invariants import FibrationInputs, arakelov_degree_bound, plane_model_terms
from ramcov.local_cover import check_enumeration_bound
from ramcov.model import RamSheet

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ramcov"

_FIBRATION = ("gF", "Dhor_dot_F", "gC", "nDC", "nS")


def _fibration(name):
    """``FibrationInputs`` with ``name`` set to the value and every other field 0."""
    return lambda v: FibrationInputs(**{**dict.fromkeys(_FIBRATION, 0), name: v})


# (id, call taking the value, the name its message gives, a value below the
# minimum, the message for that value)
CHECKS = [
    ("singularity-n", lambda v: SingularityType(v, 1), "n", 1,
     "order must satisfy n >= 2 (got n=1)"),
    ("singularity-q", lambda v: SingularityType(5, v), "q", 0,
     "weight must satisfy 1 <= q < n (got n=5, q=0)"),
    *(
        (f"fibration-{name}", _fibration(name), name, -1, f"{name} must be >= 0 (got -1)")
        for name in _FIBRATION
    ),
    ("arakelov-d", lambda v: arakelov_degree_bound(0, 0, 0, 0, 0, v), "d", 0,
     "d must be >= 1 (got 0)"),
    ("plane-d", lambda v: plane_model_terms(v, 1), "degree", 1, "degree must be >= 2 (got 1)"),
    ("plane-nB", lambda v: plane_model_terms(2, v), "branch point count", 0,
     "branch point count must be >= 1 (got 0)"),
    ("enumeration-bound", lambda v: check_enumeration_bound("max_n", v, 2), "max_n", 1,
     "max_n must be >= 2 (got 1)"),
    ("model-sheet-e", lambda v: RamSheet(v, 1), "sheet e", 0, "sheet e must be >= 1 (got 0)"),
    ("check-int", lambda v: check_int(v, "k", 3), "k", 2, "k must be >= 3 (got 2)"),
]


@pytest.mark.parametrize(
    "call,what,low,low_message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS]
)
def test_every_integer_argument_is_refused_with_its_name(call, what, low, low_message):
    for value, message in [
        (True, f"{what} must be an integer (got True)"),
        (2.0, f"{what} must be an integer (got 2.0)"),
        ("3", f"{what} must be an integer (got '3')"),
        (low, low_message),
    ]:
        with pytest.raises(InvalidInputError) as info:
            call(value)
        assert str(info.value) == message


def _bool_checks():
    """``(module, qualified function name)`` of every ``isinstance(..., bool)`` call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            types = node.args[1]
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(isinstance(t, ast.Name) and t.id == "bool" for t in names):
                found.append((scope[0], ".".join(scope[1:])))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), (path.stem,))
    return found


def test_only_check_int_and_the_lattice_pair_check_test_for_bool():
    found = _bool_checks()
    assert ("errors", "check_int") in found
    others = [
        f"{module}: {name}"
        for module, name in found
        if module != "errors" and (module, name) != ("local_cover", "LatticeSubgroup.__post_init__")
    ]
    assert others == []
