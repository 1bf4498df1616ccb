"""The one base of the package's value types: setter, ``==``, hash, repr and immutability from field names.

A subclass names its fields once, in its ``__slots__``, in constructor
order.  Every other slot is private: a name with a leading underscore holds
an index the constructor builds from the fields, and ``"__dict__"`` gives
an instance dict to the one class whose ``cached_property`` needs one,
:class:`~ramcov.invariants.InvariantReport`.  Neither takes part in ``==``,
the hash or the repr.

From the field names alone the base gives each subclass:

* ``_set_fields(self, f1, ..., fk)``, which takes the fields by position or
  keyword, in slot order, sets each one and checks nothing.  A class that
  writes no ``__init__`` has it as its ``__init__``; a class with checks
  writes an ``__init__`` that runs them and ends with one
  ``self._set_fields(...)`` call;
* ``==`` over the tuple of its fields, with ``NotImplemented`` for an
  object of any other class;
* the hash of that tuple;
* a repr that names each field, ``LatticeSubgroup(g1=(2, 0), g2=(1, 1))``;
* ``__setattr__`` and ``__delattr__`` that raise :class:`AttributeError`;
* ``__match_args__``, the field names in constructor order.

It gives no ordering: ``<`` between two values raises :class:`TypeError`,
and code that sorts values names its key.  ``_set_fields`` is compiled once
per class from a short source template, as ``collections.namedtuple``
builds its ``__new__``, and calls each field's slot descriptor directly.
A ``*args`` closure would need no compiling but is slower on the hot paths:
on a 2-vCPU Xeon under CPython 3.11 it built a ``LocalCoverType`` (two per
subgroup in a ``verify`` sweep) in about 700 ns against 380-570 ns, a
``Crossing`` (one per crossing of a document) in about 830 against 500 ns,
and a derived ``LatticeSubgroup`` in about 590 against 300 ns.  Compiling
costs about 55 us per class, 1 ms for the package's 19.  The other methods
are closures over one ``operator.attrgetter`` of the fields.

The construction rule: a value is built by its constructor.  A module may
keep a private builder that calls ``_set_fields`` on ``object.__new__(cls)``
only for a class whose constructor checks something, and uses it only on
values it derives from already-checked ones, which a ``verify`` sweep
re-checks.  A sweep may likewise build the values its own loop derives and
has just judged, such as the coprime pairs ``(n, q)`` of ``hj_sweep``.
"""

from operator import attrgetter

__all__ = ["Value"]


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _field_setter(cls, fields):
    """``_set_fields(self, f1, ..., fk)`` for ``cls``, compiled from source."""
    setters = {f"_{name}_slot": vars(cls)[name].__set__ for name in fields}
    body = "".join(f"\n    _{name}_slot(self, {name})" for name in fields)
    exec(f"def _set_fields(self, {', '.join(fields)}):{body}", setters)
    set_fields = setters["_set_fields"]
    set_fields.__module__ = cls.__module__
    set_fields.__qualname__ = f"{cls.__qualname__}._set_fields"
    return set_fields


class Value:
    """Base of a value type whose fields are its public ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if len(fields) == 1:
            get = attrgetter(fields[0])

            def values(obj):
                return (get(obj),)
        else:
            values = attrgetter(*fields)
        template = f"{cls.__qualname__}({', '.join(f'{name}=%r' for name in fields)})"

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        def __repr__(self):
            return template % values(self)

        cls._set_fields = _field_setter(cls, fields)
        if "__init__" not in vars(cls):
            cls.__init__ = cls._set_fields
        cls.__match_args__ = fields
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
