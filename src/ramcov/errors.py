"""Exception types shared across the package, and its one integer check.

Two flavours of bad input are kept apart on purpose: ``InvalidInputError``
means a value handed to a constructor or function violates a stated
precondition, while ``InputFormatError`` means a document could not even be
parsed into values (malformed JSON, wrong shapes, floats where exact numbers
are required).  The command line maps both to exit status 2; semantic
validation findings on well-formed input are reported, not raised, and map
to exit status 1.

:func:`check_int` judges every integer handed to the API and names the
argument; the loader's field checks judge a document's integers and name
their path.
"""

__all__ = ["InvalidInputError", "InputFormatError", "EnumerationLimitError", "check_int"]


class InvalidInputError(ValueError):
    """A value violates a documented precondition."""


class InputFormatError(ValueError):
    """A document is structurally malformed and cannot be loaded."""


class EnumerationLimitError(RuntimeError):
    """A requested enumeration exceeds its size cap."""


def check_int(value, what: str, minimum: "int | None" = None) -> int:
    """``value``, unless it is not an ``int`` (a bool is not) or is below ``minimum``.

    Either fault raises :class:`InvalidInputError` naming ``what``; the type
    is checked first.  An exact ``int``, the common case, is decided by its
    type alone.
    """
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise InvalidInputError(f"{what} must be an integer (got {value!r})")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{what} must be >= {minimum} (got {value})")
    return value
