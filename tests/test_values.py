"""The package's value types: the protocol :class:`ramcov.value.Value` gives them, and a light start.

Each of the 19 value types writes its own ``__init__`` and takes ``==``,
the hash, the repr, immutability and (for ``Violation``) the ordering from
its field names, its public ``__slots__``.  The tests hold every type to
that protocol: the repr names each field, the hash is that of the field
tuple, ``==`` is false across types, assigning or deleting an attribute
raises, and a copy rebuilt by keyword through the constructor is equal.
The last test runs a fresh interpreter: importing ``ramcov.cli`` and
building its parser loads neither ``dataclasses`` nor ``inspect``.
"""

import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ramcov.golden import double_cover
from ramcov.hj import HJChain, ResolutionData, SingularityType, resolve
from ramcov.invariants import (
    BoundCertificate,
    FibrationInputs,
    InvariantReport,
    degree_linear_certificate,
)
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
        cert.derived_base,
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
        ReportDocument(False, base, cover, (), cert),
    ]
    return {type(v): v for v in values}


SAMPLES = _samples()


def _fields(cls) -> tuple:
    return tuple(inspect.signature(cls).parameters)


def test_there_are_nineteen_value_types_each_on_the_one_base():
    assert len(SAMPLES) == 19
    assert all(issubclass(cls, Value) for cls in SAMPLES)
    for cls in SAMPLES:
        assert cls.__match_args__ == _fields(cls), cls.__name__
        assert "__init__" in vars(cls), cls.__name__


def test_every_value_type_is_frozen_and_order_is_the_one_option():
    assert list(inspect.signature(Value.__init_subclass__).parameters) == ["order", "kwargs"]
    with pytest.raises(TypeError):

        class Mutable(Value, frozen=False):
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
    assert "deg_det" not in vars(fresh)
    report.deg_det  # fills the cached value in one of two equal reports
    assert "deg_det" in vars(report)
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
    with_dict = {ResolutionData, InvariantReport, BoundCertificate}  # their cached_property
    for cls, value in SAMPLES.items():
        assert hasattr(value, "__dict__") == (cls in with_dict), cls.__name__


def test_violations_sort_by_code_then_where_then_message():
    v = [
        Violation("V3", ("crossing 0",), "b"),
        Violation("V1", ("component D2",), "a"),
        Violation("V3", ("crossing 0",), "a"),
        Violation("V1", ("component D1",), "z"),
    ]
    assert sorted(v) == [v[3], v[1], v[2], v[0]]
    assert v[1] < v[0] and v[0] > v[2] and v[2] <= v[0] and v[0] >= v[0]
    assert Violation("V1", (), "").__lt__(("V1", (), "")) is NotImplemented
    with pytest.raises(TypeError):
        v[0] < Crossing(0, ("a", "b"))
    with pytest.raises(TypeError):
        Crossing(0, ("a", "b")) < Crossing(1, ("a", "b"))


def test_construction_by_keyword_and_the_defaults():
    base, cover = double_cover()
    by_keyword = BaseGeometry(
        genus_C=base.genus_C, KX_sq=base.KX_sq, euler_X=base.euler_X, KX_dot_F=base.KX_dot_F,
        components=base.components, crossings=base.crossings,
    )
    assert by_keyword.pair_counts == () and by_keyword == replace(base, pair_counts=())
    cert = SAMPLES[BoundCertificate]
    report = ReportDocument(strict=True, base=base, cover=cover, violations=(), certificate=cert)
    assert report.error is None
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
