"""``replace``: a copy of a ``ramcov`` value with some fields changed, rebuilt through its constructor.

The fields are the constructor's parameters, read from its signature.
Every constructor check runs on the copy, as on a value from a caller: a
name the constructor does not take raises ``TypeError``, and a bad value
raises the constructor's own error.
"""

import inspect


def replace(obj, **changes):
    """``type(obj)`` called by keyword on ``obj``'s fields, with ``changes`` applied."""
    cls = type(obj)
    fields = {name: getattr(obj, name) for name in inspect.signature(cls).parameters}
    return cls(**{**fields, **changes})
