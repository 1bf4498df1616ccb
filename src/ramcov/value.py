"""The one base of the package's value types: builder, ``==``, hash, repr and immutability from slot names.

A subclass names its fields once, in its ``__slots__``, in constructor
order.  Every slot after them is private: a name with a leading underscore
holds an index or a derived value the constructor works out from the
fields, and takes no part in ``==``, the hash or the repr.  No value has an
instance dict.

From the slot names alone the base gives each subclass:

* ``_derived(f1, ..., fk, p1, ..., pm)``, a staticmethod that takes every
  slot by position or keyword, the fields first and then the private
  slots, stores each one and checks nothing; and, if the class writes no
  ``__new__``, a ``__new__`` with the same body, which is its constructor.
  A class with checks, or with private slots to derive, writes a
  ``__new__(cls, f1, ..., fk)`` that runs them and ends with one
  ``return cls._derived(...)``;
* ``==`` over the tuple of its fields, with ``NotImplemented`` for an
  object of any other class;
* the hash of that tuple;
* a repr that names each field, ``LatticeSubgroup(g1=(2, 0), g2=(1, 1))``;
* ``__setattr__`` and ``__delattr__`` that raise :class:`AttributeError`;
* ``__reduce__``, which rebuilds a copy or a pickle by calling the class on
  its fields;
* ``__match_args__``, the field names in constructor order.

It gives no ordering: ``<`` between two values raises :class:`TypeError`,
and code that sorts values names its key.  ``_derived`` and the base's
``__new__`` are compiled once per class from one short source template, as
``collections.namedtuple`` builds its ``__new__``.  They allocate an
instance of the class's private twin, a subclass with no slot of its own
and the generic ``__setattr__`` and ``__delattr__``; they store each slot
with a plain attribute store and then set ``__class__`` to the class, so no
twin escapes.  On a 2-vCPU Xeon under CPython 3.11, pinned to one CPU
(medians of three alternating runs, each the best of nine), a checked
constructor that ends in ``_derived`` built a ``BranchComponent`` (five
fields) in about 1 200 ns, against 1 440 ns when an ``__init__`` set each
field through its slot descriptor, and a ``Crossing`` (two fields) in about
600 against 540 ns.  The other methods are closures over one
``operator.attrgetter`` of the fields.

The construction rule: a value is built by its constructor, and so is
every copy and every unpickled value; a class that checks nothing and has
no private slot has the base's ``__new__`` as its constructor.  Only a
type's own ``__new__`` may pass private slots to ``_derived``: the three
types that have them, ``BaseGeometry``, ``CoverDescription`` and
``InvariantReport``, derive them from the fields they have just checked, so
their ``_derived`` called on the fields alone raises :class:`TypeError`
instead of leaving a value half built.  Other code may call ``_derived``
only for a class whose constructor checks something, and only on fields
it derives from already-checked values, or that its own loop has just
judged, such as ``hj_sweep``'s coprime pairs ``(n, q)`` or the loader's
exact crossing records; a ``verify`` sweep re-checks what it derives.  Each call site names the invariant that
makes its value valid.
"""

from operator import attrgetter

__all__ = ["Value"]


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _builders(cls):
    """``cls``'s ``__new__(_cls, *slots)`` and ``_derived(*slots)``, compiled from one body.

    The body stores every slot, in ``__slots__`` order, on an instance of an
    unfrozen twin, a subclass that adds no slot and whose ``__setattr__``
    and ``__delattr__`` are ``Value``'s own, the generic ones ``object``
    gives, and then makes it a ``cls``.  Overriding both puts the generic
    setter back in the one type slot they share, so each store is a plain
    slot store; a twin that overrode only ``__setattr__`` built a
    ``LocalCoverType`` in about 780 against 270 ns.
    """
    twin = type(cls.__name__, (cls,), {
        "__slots__": (), "__setattr__": Value.__setattr__, "__delattr__": Value.__delattr__,
    })
    namespace = {"_new": object.__new__, "_twin": twin, "_cls": cls}
    params = ", ".join(cls.__slots__)
    stores = "".join(f"\n    self.{name} = {name}" for name in cls.__slots__)
    build = f"\n    self = _new(_twin){stores}\n    self.__class__ = _cls\n    return self"
    exec(f"def __new__(_cls, {params}):{build}\ndef _derived({params}):{build}", namespace)
    for name in ("__new__", "_derived"):
        namespace[name].__module__ = cls.__module__
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return namespace["__new__"], namespace["_derived"]


class Value:
    """Base of a value type whose fields are its public ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if vars(cls).get("__setattr__") is Value.__setattr__:
            return  # a twin that _builders makes: it takes its class's methods
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

        def __reduce__(self):
            return cls, values(self)

        new, cls._derived = map(staticmethod, _builders(cls))
        if "__new__" not in vars(cls):
            cls.__new__ = new
        cls.__match_args__ = fields
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__
        cls.__reduce__ = __reduce__
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
