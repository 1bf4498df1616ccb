"""The one base of the package's value types: setter, ``==``, hash, repr and immutability from field names.

A subclass names its fields once, in its ``__slots__``, in constructor
order.  Every other slot is private: a name with a leading underscore holds
an index the constructor builds from the fields, and takes no part in
``==``, the hash or the repr.  No value has an instance dict.

From the field names alone the base gives each subclass:

* ``_set_fields(self, f1, ..., fk)``, which takes the fields by position or
  keyword, in slot order, sets each one and checks nothing.  A class with
  checks writes an ``__init__`` that runs them and ends with one
  ``self._set_fields(...)`` call;
* for a class with no private slot, ``_derived(f1, ..., fk)``, a
  staticmethod that builds a value on those fields without calling
  ``__init__``, so it checks nothing either; and, if the class writes no
  ``__init__``, a ``__new__`` with the same body, which is its constructor;
* ``==`` over the tuple of its fields, with ``NotImplemented`` for an
  object of any other class;
* the hash of that tuple;
* a repr that names each field, ``LatticeSubgroup(g1=(2, 0), g2=(1, 1))``;
* ``__setattr__`` and ``__delattr__`` that raise :class:`AttributeError`;
* ``__reduce__``, which rebuilds a copy or a pickle by calling the class on
  its fields;
* ``__match_args__``, the field names in constructor order.

It gives no ordering: ``<`` between two values raises :class:`TypeError`,
and code that sorts values names its key.  The three methods that build
are compiled once per class from short source templates, as
``collections.namedtuple`` builds its ``__new__``.  ``_set_fields`` runs on
a frozen value, so it calls each field's slot descriptor directly.
``_derived`` and ``__new__`` allocate an instance of the class's private
twin, a subclass with no slot of its own and ``object``'s ``__setattr__``
and ``__delattr__``; they store each field with a plain attribute store
and then set ``__class__`` to the class, so no twin escapes.  On a 2-vCPU
Xeon under CPython 3.11, pinned to one CPU (medians of six alternating
runs, each the best of nine), that builds a ``LocalCoverType`` (two per
subgroup in a ``verify`` sweep) through its constructor in about 355
against 460 ns through the setter, a derived one in about 275 ns, and a
derived ``LatticeSubgroup`` or ``SingularityType`` in about 260 against
310 ns.  The twin and the two methods add about 45 us to the 120 us that
a four-field class costs to define.  The other methods are closures over
one ``operator.attrgetter`` of the fields.

The construction rule: a value is built by its constructor, and so is
every copy and every unpickled value; a class that checks nothing has the
base's ``__new__`` as its constructor.  Code may call ``_derived`` only
for a class whose constructor checks something, and only on fields it
derives from already-checked values, or that its own loop has just judged,
such as ``hj_sweep``'s coprime pairs ``(n, q)``; a ``verify`` sweep
re-checks what it derives.  Each call site names the invariant that makes
its value valid.
"""

from operator import attrgetter

__all__ = ["Value"]


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _field_builders(cls, fields):
    """``cls``'s ``_set_fields``, ``__new__`` and ``_derived``, compiled from source.

    ``_set_fields(self, f1, ..., fk)`` calls each field's slot descriptor.
    ``__new__(_cls, f1, ..., fk)`` and ``_derived(f1, ..., fk)`` share one
    body and exist only for a class with no private slot, which they would
    leave unset.  It stores the fields on an instance of an unfrozen twin,
    a subclass that adds no slot and whose ``__setattr__`` and
    ``__delattr__`` are ``object``'s, and then makes it a ``cls``.
    Overriding both puts the generic setter back in the one type slot they
    share, so each store is a plain slot store; a twin that overrode only
    ``__setattr__`` built a ``LocalCoverType`` in about 780 against 270 ns.
    """
    namespace = {f"_{name}_slot": vars(cls)[name].__set__ for name in fields}
    params = ", ".join(fields)
    body = "".join(f"\n    _{name}_slot(self, {name})" for name in fields)
    source = f"def _set_fields(self, {params}):{body}\n"
    names = ["_set_fields"]
    if len(fields) == len(cls.__slots__):
        twin = type(cls.__name__, (cls,), {
            "__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__,
        })
        namespace.update(_new=object.__new__, _twin=twin, _cls=cls)
        stores = "".join(f"\n    self.{name} = {name}" for name in fields)
        build = f"\n    self = _new(_twin){stores}\n    self.__class__ = _cls\n    return self"
        source += f"def __new__(_cls, {params}):{build}\ndef _derived({params}):{build}"
        names += ["__new__", "_derived"]
    exec(source, namespace)
    for name in names:
        namespace[name].__module__ = cls.__module__
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return {name: namespace[name] for name in names}


class Value:
    """Base of a value type whose fields are its public ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if vars(cls).get("__setattr__") is object.__setattr__:
            return  # a twin that _field_builders makes: it takes its class's methods
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

        built = _field_builders(cls, fields)
        cls._set_fields = built["_set_fields"]
        if "_derived" in built:
            cls._derived = staticmethod(built["_derived"])
            if "__init__" not in vars(cls):
                cls.__new__ = staticmethod(built["__new__"])
        cls.__match_args__ = fields
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__
        cls.__reduce__ = __reduce__
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
