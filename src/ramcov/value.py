"""The one base of the package's value types: ``==``, hash, repr and immutability from field names.

A subclass names its fields in its ``__slots__``, in constructor order, and
writes its own ``__init__``, which sets each field with
``object.__setattr__`` and runs the class's checks.  Every other slot is
private: a name with a leading underscore holds an index the constructor
builds from the fields, and ``"__dict__"`` gives an instance dict to a
class whose ``cached_property`` needs one.  Neither takes part in ``==``,
the hash or the repr.

From the field names alone the base gives each subclass:

* ``==`` over the tuple of its fields, with ``NotImplemented`` for an
  object of any other class;
* the hash of that tuple;
* a repr that names each field, ``LatticeSubgroup(g1=(2, 0), g2=(1, 1))``;
* ``__setattr__`` and ``__delattr__`` that raise :class:`AttributeError`;
* ``__match_args__``, the field names in constructor order.

It gives no ordering: ``<`` between two values raises :class:`TypeError`,
and code that sorts values names its key.  The methods are closures over
one ``operator.attrgetter`` of the fields: nothing is compiled from source
when a class is made.

The construction rule: a value is built by its constructor.  A module may
keep a private builder that sets the fields without ``__init__`` only for a
class whose constructor checks something, and uses it only on values it
derives from already-checked ones, which a ``verify`` sweep re-checks.
"""

from operator import attrgetter

__all__ = ["Value"]


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


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

        cls.__match_args__ = fields
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
