"""Exception taxonomy for the toolkit.

Every error raised on purpose by this package derives from GroupKitError,
so callers can catch one type at the boundary.  Each class carries the
command line's exit code for it and the label that prefixes its message on
stderr: 2 and "error" unless a class below says otherwise.  A message shows
a caller's value through quote, which never raises, and quotes at most its
first SHOWN characters (ElementSet.shown does the same for a set).
"""

import reprlib

SHOWN = 40  # the most characters of an input that a message quotes


class _Repr(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:  # not super().repr_int: newer reprlib versions do not raise here
            return repr(x)
        except ValueError:  # past the interpreter's digit limit: show its size
            return f"{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits"


def cut(text: str) -> str:
    """text, cut to its first SHOWN characters when it is longer."""
    return text if len(text) <= SHOWN else f"{text[:SHOWN]}... ({len(text)} characters)"


def quote(value: object) -> str:
    """repr(value), cut to its first SHOWN characters when it is longer; a
    string is cut before its repr is taken, so its quotes stay.  It never
    raises: an int too long to print, alone or in a list, shows its size."""
    if isinstance(value, str) and len(value) > SHOWN:
        return f"{value[:SHOWN]!r}... ({len(value)} characters)"
    try:
        text = repr(value)
    except Exception:  # a repr may raise anything, and a message must not
        text = _Repr().repr(value)
    return text if isinstance(value, str) else cut(text)


class GroupKitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2
    label = "error"


class InvalidSpec(GroupKitError):
    """Malformed group description (unknown kind, bad parameters, bad shapes)."""


class NotAGroup(GroupKitError):
    """A multiplication table fails the group axioms."""


class SizeLimitExceeded(GroupKitError):
    """A construction would exceed the configured maximum group order."""

    exit_code = 5
    label = "limit exceeded"


class IndexOutOfRange(GroupKitError):
    """An element index does not lie in range(order)."""


class GroupMismatch(GroupKitError):
    """Operands belong to different group instances."""


class NotASubgroup(GroupKitError):
    """A set that must be a subgroup is not one."""


class ParseError(GroupKitError):
    """An element or subset expression could not be parsed."""


class UnknownSymbol(ParseError):
    """A word uses a symbol that names no generator of the group."""


class ScriptedChoiceInvalid(GroupKitError):
    """A scripted choice is not available at its step, or the script ran out."""


class MidEmpty(GroupKitError):
    """The middle director is empty, so the requested search cannot start."""

    exit_code = 3
    label = "not applicable"


class G0NotInMid(GroupKitError):
    """The requested starting element lies outside the middle director."""


class TraceMismatch(GroupKitError):
    """A trace does not replay against the inputs it was supplied with."""

    exit_code = 4
    label = "internal check failed"


class EnumerationLimitExceeded(GroupKitError):
    """An enumeration would produce more results than the configured cap."""

    exit_code = 5
    label = "limit exceeded"
