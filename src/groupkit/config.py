"""Runtime limits, overridable through environment variables.

The getters read the environment on every call so tests and CLI wrappers can
adjust limits without re-importing anything.
"""

from __future__ import annotations

import os

from .errors import InvalidSpec, quote

MAX_ORDER_ENV = "GROUPKIT_MAX_ORDER"
ENUM_LIMIT_ENV = "GROUPKIT_ENUM_LIMIT"

DEFAULT_MAX_ORDER = 4096
DEFAULT_ENUM_LIMIT = 10 ** 6


def _ascii_int(text: str) -> int | None:
    """The int that text writes in ASCII digits after an optional '-', as
    element words do: None for any other text ('+', '_', spaces, other
    digits) and for more digits than the interpreter converts."""
    digits = text[1:] if text.startswith("-") else text
    try:
        return int(text) if digits.isascii() and digits.isdigit() else None
    except ValueError:
        return None


def _positive_int_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = _ascii_int(raw)
    if value is None or value <= 0:
        raise InvalidSpec(f"{name} must be a positive integer, got {quote(raw)}")
    return value


def max_order() -> int:
    """Largest group order any constructor will build."""
    return _positive_int_env(MAX_ORDER_ENV, DEFAULT_MAX_ORDER)


def enum_limit() -> int:
    """Default cap on exhaustive enumeration result counts."""
    return _positive_int_env(ENUM_LIMIT_ENV, DEFAULT_ENUM_LIMIT)


def enum_cap(limit: int | None, name: str = "limit") -> int:
    """The enumeration cap: limit when given, else the default; a cap that is
    not an int (a bool included) or is below 1 is refused, as it is for the
    environment variable."""
    if limit is None:
        return enum_limit()
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise InvalidSpec(f"{name} must be a positive integer, got {quote(limit)}")
    return limit
