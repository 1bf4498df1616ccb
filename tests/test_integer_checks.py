"""Every integer handed to the API is judged by ``errors.check_int``.

The table pins the exact message each entry point gives for a bool, a
float, a string and a value below its minimum.  A point's local type has
no minimum for its fields: a value out of range builds, and the walk
reports it as a V5 finding.  The ``ast`` scan keeps the judge single:
outside ``errors.py`` only ``LatticeSubgroup.__new__``, which checks a
generator pair on the hot path, may test ``isinstance(..., bool)`` itself.
"""

import ast
import enum
import pathlib

import pytest

from ramcov.errors import InvalidInputError, check_int
from ramcov.golden import double_cover
from ramcov.hj import SingularityType
from ramcov.invariants import (
    FibrationInputs, arakelov_degree_bound, degree_linear_certificate, examine, plane_model_terms,
)
from ramcov.local_cover import LocalCoverType, check_enumeration_bound
from ramcov.model import PointAbove, RamSheet
from rebuild import replace

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ramcov"

_FIBRATION = ("gF", "Dhor_dot_F", "gC", "nDC", "nS")


def _fibration(name):
    """``FibrationInputs`` with ``name`` set to the value and every other field 0."""
    return lambda v: FibrationInputs(**{**dict.fromkeys(_FIBRATION, 0), name: v})


def _point_local(name):
    """A point whose local type is a node's with ``name`` set to the value."""
    node = {"n": 2, "q": 1, "m1": 1, "m2": 1}
    return lambda v: PointAbove(0, 0, LocalCoverType(**{**node, name: v}))


# (id, call taking the value, the name its message gives, a value below the
# minimum, the message for that value, or None where that value is accepted)
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
    *(
        (f"point-local-{name}", _point_local(name), f"point local type {name}", -1, None)
        for name in ("n", "q", "m1", "m2")
    ),
]


@pytest.mark.parametrize(
    "call,what,low,low_message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS]
)
def test_every_integer_argument_is_refused_with_its_name(call, what, low, low_message):
    refused = [
        (True, f"{what} must be an integer (got True)"),
        (2.0, f"{what} must be an integer (got 2.0)"),
        ("3", f"{what} must be an integer (got '3')"),
    ]
    if low_message is None:
        call(low)
    else:
        refused.append((low, low_message))
    for value, message in refused:
        with pytest.raises(InvalidInputError) as info:
            call(value)
        assert str(info.value) == message


class _Level(enum.IntEnum):
    TWO = 2
    FIVE = 5


def _isinstance_judge(value, what, minimum=None):
    """``check_int``'s verdict from its ``isinstance`` tests alone, for every value."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{what} must be an integer (got {value!r})")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{what} must be >= {minimum} (got {value})")
    return value


@pytest.mark.parametrize(
    "value,verdict",
    [
        (5, 5),
        (True, "k must be an integer (got True)"),
        (_Level.FIVE, _Level.FIVE),
        (_Level.TWO, "k must be >= 3 (got 2)"),
        (2, "k must be >= 3 (got 2)"),
        ("5", "k must be an integer (got '5')"),
    ],
    ids=["int", "bool", "int-subclass", "int-subclass-below", "below", "str"],
)
def test_check_int_decides_an_exact_int_as_its_isinstance_tests_do(value, verdict):
    # An exact int is decided by its type first; every value gets the verdict
    # and message of the isinstance tests, and an accepted value is returned
    # as the same object.
    def judged(judge):
        try:
            return judge(value, "k", 3)
        except InvalidInputError as exc:
            return str(exc)

    assert judged(check_int) == judged(_isinstance_judge) == verdict
    if not isinstance(verdict, str):
        assert check_int(value, "k", 3) is value


def _double_cover_with_local(local):
    """``double_cover()`` with the one point over each corner carrying ``local``."""
    base, cover = double_cover()
    return base, replace(cover, points_above=tuple(
        (idx, (PointAbove(0, 0, local),)) for idx, _ in cover.points_above
    ))


@pytest.mark.parametrize("local,message", [
    (LocalCoverType(2.0, 1, 1, 1), "point local type n must be an integer (got 2.0)"),
    (LocalCoverType(2, "1", 1, 1), "point local type q must be an integer (got '1')"),
], ids=["float-n", "string-q"])
def test_a_hand_built_local_type_of_non_integers_is_refused_by_its_field(local, message):
    # A float n once reached math.gcd in invariant_problems, and a string q
    # a '<=' comparison, each as a bare TypeError out of examine.
    with pytest.raises(InvalidInputError) as info:
        examine(*_double_cover_with_local(local))
    assert str(info.value) == message
    # The node's own local type, as integers, gives the double cover's answer.
    node = _double_cover_with_local(LocalCoverType(2, 1, 1, 1))
    assert examine(*node)[::2] == ([], None)
    assert degree_linear_certificate(*node).report == (
        degree_linear_certificate(*double_cover()).report
    )


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
        if module != "errors" and (module, name) != ("local_cover", "LatticeSubgroup.__new__")
    ]
    assert others == []
