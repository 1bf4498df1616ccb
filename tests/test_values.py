"""The package's value types: the protocol :class:`ramcov.value.Value` gives them, and a light start.

Each of the 19 value types takes its field setter, its unchecked builder
``_derived``, ``==``, the hash, the repr, immutability and its copy and
pickle support from its field names, its public ``__slots__``.  Eleven
write an ``__init__`` that runs their checks and then the setter; the
other eight check nothing, and the setter is their ``__init__``.  The
tests hold every type to that protocol: the constructor, the setter and
``_derived`` take the fields in slot order, the setter and ``_derived``
check nothing, the repr names each field, the hash is that of the field
tuple, ``==`` is false across types, ``<`` raises, assigning or deleting an
attribute raises, a copy rebuilt by keyword through the constructor is
equal, and ``copy``, ``deepcopy`` and ``pickle`` give equal values.  No
value type is ordered, so the one place that sorts values, ``examine``'s
findings, is held to its key here too.
The last test runs a fresh interpreter: importing ``ramcov.cli`` and
building its parser loads neither ``dataclasses`` nor ``inspect``.
"""

import copy
import inspect
import json
import operator
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from ramcov.errors import InvalidInputError
from ramcov.golden import double_cover
from ramcov.hj import HJChain, SingularityType, resolve
from ramcov.invariants import (
    BoundCertificate,
    FibrationInputs,
    InvariantReport,
    degree_linear_certificate,
    examine,
)
from ramcov.loader import load_cover_path
from ramcov.local_cover import LatticeSubgroup, LocalCoverType
from ramcov.model import (
    BaseGeometry,
    BranchComponent,
    CoverDescription,
    Crossing,
    EulerData,
    PointAbove,
    RamSheet,
    Violation,
    derived_euler_data,
)
from ramcov.report import ReportDocument
from ramcov.value import Value
from ramcov.verify import PropertyFailure, SweepResult
from rebuild import replace

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _samples() -> dict:
    """One value of each of the 19 types, built from the double cover and by hand."""
    base, cover = double_cover()
    fibration = FibrationInputs(gF=1, Dhor_dot_F=2, gC=0, nDC=2, nS=3)
    cert = degree_linear_certificate(base, cover, fibration)
    resolution = resolve(SingularityType(5, 2))
    values = [
        base.components[0],
        base.crossings[0],
        base,
        cover.ramification[0][1][0],
        cover.points_above[0][1][0],
        cover,
        Violation("V1", ("component D1",), "sheet degrees sum to 1, not 2"),
        derived_euler_data(base),
        resolution.sing,
        resolution.chain,
        resolution,
        cert.report,
        fibration,
        cert,
        LatticeSubgroup((2, 0), (1, 1)),
        LocalCoverType(n=5, q=2, m1=1, m2=3),
        PropertyFailure("length", {"n": 5, "q": 2}, "chain length 9 exceeds n=5"),
        SweepResult("lattice", 3, ()),
        ReportDocument(False, base, cover, (), cert, None),
    ]
    return {type(v): v for v in values}


SAMPLES = _samples()


#: The types whose constructor checks nothing: their ``__init__`` is the base's field setter.
UNCHECKED = (
    InvariantReport, BoundCertificate, LocalCoverType, Violation, EulerData, ReportDocument,
    PropertyFailure, SweepResult,
)


def _fields(cls) -> tuple:
    return tuple(inspect.signature(cls).parameters)


def test_there_are_nineteen_value_types_each_on_the_one_base():
    assert len(SAMPLES) == 19
    assert all(issubclass(cls, Value) for cls in SAMPLES)
    for cls in SAMPLES:
        setter = tuple(inspect.signature(cls._set_fields).parameters)
        assert cls.__match_args__ == _fields(cls) == setter[1:], cls.__name__
        assert tuple(inspect.signature(cls._derived).parameters) == _fields(cls), cls.__name__
        assert setter[0] == "self" and "__init__" in vars(cls), cls.__name__
    assert {cls for cls in SAMPLES if cls.__init__ is cls._set_fields} == set(UNCHECKED)


@pytest.mark.parametrize("cls", UNCHECKED, ids=lambda cls: cls.__name__)
def test_a_type_without_checks_takes_its_fields_by_position_or_keyword(cls):
    value = SAMPLES[cls]
    names = cls.__match_args__
    fields = [getattr(value, name) for name in names]
    built = [
        cls(*fields),
        cls(**dict(zip(names, fields))),
        cls(fields[0], **dict(zip(names[1:], fields[1:]))),
    ]
    for copy in built:
        assert copy == value and all(getattr(copy, n) is getattr(value, n) for n in names)
    for bad_args, bad_kwargs in [
        (fields[:-1], {}),  # a field missing
        (fields + [None], {}),  # one argument too many
        (fields, {"extra": 1}),  # an unknown keyword
        (fields, {names[0]: fields[0]}),  # a field given twice
    ]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_the_field_setter_runs_no_check():
    with pytest.raises(InvalidInputError, match="linearly independent"):
        LatticeSubgroup((0, 0), (0, 0))
    gamma = object.__new__(LatticeSubgroup)
    assert LatticeSubgroup._set_fields(gamma, (0, 0), (0, 0)) is None
    assert repr(gamma) == "LatticeSubgroup(g1=(0, 0), g2=(0, 0))"
    with pytest.raises(AttributeError, match="cannot assign to field 'g1'"):
        gamma.g1 = (1, 0)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_derived_builds_the_value_on_its_fields_without_init(cls, monkeypatch):
    value = SAMPLES[cls]
    fields = [getattr(value, name) for name in _fields(cls)]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{cls.__name__}.__init__ ran")

    monkeypatch.setattr(cls, "__init__", refuse)
    built = cls._derived(*fields)
    assert type(built) is cls and built == value and built is not value
    assert repr(built) == repr(value)
    if cls is not PropertyFailure:  # its witness is a dict
        assert hash(built) == hash(value)


def test_value_takes_no_option():
    assert list(inspect.signature(Value.__init_subclass__).parameters) == []
    for option in ({"order": True}, {"frozen": False}):
        with pytest.raises(TypeError):

            class Optioned(Value, **option):
                __slots__ = ("x",)


def test_literal_reprs():
    assert repr(LatticeSubgroup((2, 0), (1, 1))) == "LatticeSubgroup(g1=(2, 0), g2=(1, 1))"
    assert repr(LocalCoverType(5, 2, 1, 3)) == "LocalCoverType(n=5, q=2, m1=1, m2=3)"
    assert repr(Violation("V3", ("crossing 0", "point 1"), "e1 = 2 but the sheet has e = 1")) == (
        "Violation(code='V3', where=('crossing 0', 'point 1'), "
        "message='e1 = 2 but the sheet has e = 1')"
    )
    assert repr(Crossing(7, ("D1", "D2"))) == "Crossing(index=7, pair=('D1', 'D2'))"
    assert repr(HJChain((3, 2))) == "HJChain(b=(3, 2))"
    assert repr(SweepResult("hj", 0, ())) == "SweepResult(suite='hj', checked=0, failures=())"


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_repr_names_every_field_and_no_private_slot(cls):
    value = SAMPLES[cls]
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in _fields(cls))
    assert repr(value) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    value = SAMPLES[cls]
    fields = tuple(getattr(value, name) for name in _fields(cls))
    if cls is PropertyFailure:  # its witness is a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(fields)
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(fields)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_equal_to_its_rebuilt_copy_and_unequal_across_types(cls):
    value = SAMPLES[cls]
    copy = replace(value)
    assert copy == value and not copy != value and copy is not value
    for other in SAMPLES.values():
        if type(other) is not cls:
            assert value != other and not value == other
            assert value.__eq__(other) is NotImplemented
    assert value.__eq__(_fields(cls)) is NotImplemented


def test_private_slots_and_cached_values_take_no_part():
    base, cover = double_cover()
    assert not any("_components" in s or "_sheets" in s for s in (repr(base), repr(cover)))
    report = SAMPLES[InvariantReport]
    fresh = replace(report)
    assert fresh == report and hash(fresh) == hash(report) and repr(fresh) == repr(report)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_assigning_or_deleting_an_attribute_raises(cls):
    value = SAMPLES[cls]
    for name in (*_fields(cls), "unknown"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert replace(value) == value


def test_slotted_types_keep_no_instance_dict():
    for cls, value in SAMPLES.items():
        assert not hasattr(value, "__dict__"), cls.__name__


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_copy_deepcopy_and_pickle_give_an_equal_value(cls):
    value = SAMPLES[cls]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == repr(value)


def test_a_pickled_or_deep_copied_document_keeps_its_shared_lists():
    # The loader gives byte-equal lists one tuple, and the walk's memos key
    # on those identities: D1 to D4 share one sheet list, and crossings 0
    # and 3, and 1 and 2, one point list each.
    loaded = load_cover_path(str(ROOT / "demos" / "covers" / "cyclic_5_1_4_2_3.json"))
    pickled = pickle.loads(pickle.dumps(loaded))
    deep = copy.deepcopy(loaded)
    assert pickled == deep == loaded
    for _, model in (loaded, pickled, deep):
        assert len({id(sheets) for _, sheets in model.ramification}) == 1
        points = dict(model.points_above)
        assert points[0] is points[3] and points[1] is points[2] and points[0] != points[1]
        assert model.sheets_for("D1") is model.ramification[0][1]
    # a copy or a pickle is built by the constructor, so its base derives
    # its own Euler data, equal to the original's; each base derives it once
    (base, _), (pickled_base, _), (deep_base, _) = loaded, pickled, deep
    euler = derived_euler_data(base)
    assert derived_euler_data(pickled_base) == derived_euler_data(deep_base) == euler
    assert euler is derived_euler_data(base)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_values_have_no_order(cls):
    value = SAMPLES[cls]
    assert not {"__lt__", "__le__", "__gt__", "__ge__"} & set(vars(cls))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(value, replace(value))
    with pytest.raises(TypeError):
        value < SAMPLES[Crossing]


def test_examine_sorts_findings_by_code_then_where_then_message():
    # The double cover with a V1 break on D2, a lattice of e1 = 1 over
    # crossing 1 and a raw type with n and q not coprime over crossing 3:
    # the walk finds them per component, then per crossing and point, and
    # the report lists them by (code, where, message).
    base, cover = double_cover()
    points = dict(cover.points_above)
    points[1] = (PointAbove(0, 0, LatticeSubgroup((1, 0), (0, 2))),)
    points[3] = (PointAbove(0, 0, LocalCoverType(4, 2, 1, 1)),)
    ramification = {**dict(cover.ramification), "D2": (RamSheet(e=2, f=2),)}
    cover = replace(
        cover, ramification=tuple(ramification.items()), points_above=tuple(points.items())
    )
    found, certificate, error = examine(base, cover, strict=True)
    assert certificate is None and error.startswith("crossing 3: invalid local type")
    assert [(v.code, v.where) for v in found] == [
        ("V1", ("D2",)),
        ("V2", ("crossing 3",)),
        ("V3", ("crossing 1", "point 0")),
        ("V3", ("crossing 3", "point 0")),
        ("V3", ("crossing 3", "point 0")),
        ("V4", ("crossing 1", "sheet j=0")),
        ("V4", ("crossing 2", "sheet j=0")),
        ("V4", ("crossing 3", "sheet j=0")),
        ("V5", ("crossing 3", "point 0")),
    ]
    assert "local e1=4" in found[3].message and "local e2=4" in found[4].message


def test_construction_by_keyword_and_the_defaults():
    base, _ = double_cover()
    by_keyword = BaseGeometry(
        genus_C=base.genus_C, KX_sq=base.KX_sq, euler_X=base.euler_X, KX_dot_F=base.KX_dot_F,
        components=base.components, crossings=base.crossings,
    )
    assert by_keyword.pair_counts == () and by_keyword == replace(base, pair_counts=())
    assert SweepResult(suite="hj", checked=0, failures=()) == SweepResult("hj", 0, ())
    assert CoverDescription(degree=2, ramification=(), points_above=()).points_above == ()
    assert EulerData(e_c_U=1, open_components=(), n_crossings=0).n_crossings == 0
    assert RamSheet(f=2, e=1) == RamSheet(1, 2)
    assert PointAbove(local=LocalCoverType(1, 0, 1, 1), jp=0, j=1).j == 1
    assert BranchComponent("D", 0, 1, -2, 1) == BranchComponent(
        id="D", genus=0, self_int=1, KX_dot=-2, fiber_deg=1
    )
    with pytest.raises(TypeError):
        Crossing(index=0, pair=("a", "b"), extra=1)
    with pytest.raises(TypeError):
        LatticeSubgroup((1, 0))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    watched = ["dataclasses", "inspect"]
    probe = "import json, sys; print(json.dumps([m for m in {} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def loaded(code):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        return set(json.loads(out.splitlines()[-1]))

    bare = loaded(probe.format(watched))
    launch = loaded("import ramcov.cli; ramcov.cli._build_parser(); " + probe.format(watched))
    assert launch - bare == set()
