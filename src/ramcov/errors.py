"""Exception types shared across the package.

Two flavours of bad input are kept apart on purpose: ``InvalidInputError``
means a value handed to a constructor or function violates a stated
precondition, while ``InputFormatError`` means a document could not even be
parsed into values (malformed JSON, wrong shapes, floats where exact numbers
are required).  The command line maps both to exit status 2; semantic
validation findings on well-formed input are reported, not raised, and map
to exit status 1.
"""

__all__ = ["InvalidInputError", "InputFormatError", "EnumerationLimitError"]


class InvalidInputError(ValueError):
    """A value violates a documented precondition."""


class InputFormatError(ValueError):
    """A document is structurally malformed and cannot be loaded."""


class EnumerationLimitError(RuntimeError):
    """A requested enumeration exceeds the configured size cap."""
