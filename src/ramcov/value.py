"""The one base of the package's value types: setter, ``==``, hash, repr and immutability from field names.

A subclass names its fields once, in its ``__slots__``, in constructor
order.  Every other slot is private: a name with a leading underscore holds
an index the constructor builds from the fields, and takes no part in
``==``, the hash or the repr.  No value has an instance dict.

From the field names alone the base gives each subclass:

* ``_set_fields(self, f1, ..., fk)``, which takes the fields by position or
  keyword, in slot order, sets each one and checks nothing.  A class that
  writes no ``__init__`` has it as its ``__init__``; a class with checks
  writes an ``__init__`` that runs them and ends with one
  ``self._set_fields(...)`` call;
* ``_derived(f1, ..., fk)``, a staticmethod that builds a value on those
  fields without calling ``__init__``, so it checks nothing either;
* ``==`` over the tuple of its fields, with ``NotImplemented`` for an
  object of any other class;
* the hash of that tuple;
* a repr that names each field, ``LatticeSubgroup(g1=(2, 0), g2=(1, 1))``;
* ``__setattr__`` and ``__delattr__`` that raise :class:`AttributeError`;
* ``__reduce__``, which rebuilds a copy or a pickle by calling the class on
  its fields;
* ``__match_args__``, the field names in constructor order.

It gives no ordering: ``<`` between two values raises :class:`TypeError`,
and code that sorts values names its key.  ``_set_fields`` and
``_derived`` are compiled once per class from one short source template,
as ``collections.namedtuple`` builds its ``__new__``, and call each
field's slot descriptor directly.  A ``*args`` closure would need no
compiling but is slower on the hot paths: on a 2-vCPU Xeon under CPython
3.11 it built a ``LocalCoverType`` (two per subgroup in a ``verify``
sweep) in about 700 ns against 380-570 ns, a ``Crossing`` (one per
crossing of a document) in about 830 against 500 ns, and a derived
``LatticeSubgroup`` in about 590 against 300 ns; a ``_derived`` classmethod
that passed ``*fields`` to ``_set_fields`` left the five ``verify``
workload sizes' sweeps about 5 % slower (50.6 against 48.4 ms, medians of
ten runs).  Compiling the two costs about 180 us per class, 3.5 ms for the
package's 19.  The other methods are closures over one
``operator.attrgetter`` of the fields.

The construction rule: a value is built by its constructor, and so is
every copy and every unpickled value.  Code may call ``_derived`` only
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
    """``cls``'s ``_set_fields(self, f1, ..., fk)`` and ``_derived(f1, ..., fk)``, from source."""
    namespace = {f"_{name}_slot": vars(cls)[name].__set__ for name in fields}
    namespace.update(_new=object.__new__, _cls=cls)
    params = ", ".join(fields)
    body = "".join(f"\n    _{name}_slot(self, {name})" for name in fields)
    exec(f"def _set_fields(self, {params}):{body}\n"
         f"def _derived({params}):\n    self = _new(_cls){body}\n    return self", namespace)
    for name in ("_set_fields", "_derived"):
        namespace[name].__module__ = cls.__module__
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return namespace["_set_fields"], namespace["_derived"]


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

        def __reduce__(self):
            return cls, values(self)

        cls._set_fields, derived = _field_builders(cls, fields)
        cls._derived = staticmethod(derived)
        if "__init__" not in vars(cls):
            cls.__init__ = cls._set_fields
        cls.__match_args__ = fields
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__
        cls.__reduce__ = __reduce__
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
