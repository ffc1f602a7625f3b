"""Parse element expressions and comma-separated subsets.

An element expression is resolved in this order:

1. a canonical element name, exactly or up to whitespace ("ba^4", "(1 2 3)");
2. a word over the group's generator symbols, when it has any, with terms
   symbol or symbol^int and "1" for the identity ("a^-1 b", "a^3b");
3. a bare nonnegative integer, read as an element index.

Exponents and indices take the ASCII digits 0-9 only.
"""

from __future__ import annotations

import warnings

from .errors import IndexOutOfRange, ParseError, UnknownSymbol
from .groups import ElementSet, Group

__all__ = ["parse_element", "parse_subset"]

_DIGITS = frozenset("0123456789")


def _to_int(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"{what} of {len(digits.lstrip('-'))} digits is too long") from None


def _eval_word(group: Group, text: str) -> int:
    gens = group.generator_names
    acc = group.identity
    i = 0
    n = len(text)
    saw_term = False
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "1":
            base = group.identity
            i += 1
        elif c.isalpha():
            if c not in gens:
                raise UnknownSymbol(f"{c!r} is not a generator symbol of this group")
            base = gens[c]
            i += 1
        else:
            raise ParseError(f"unexpected {c!r} at position {i} in word {text!r}")
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            if j < n and text[j] == "-":
                j += 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j == i or text[i:j] == "-":
                raise ParseError(f"exponent missing after '^' in word {text!r}")
            exp = _to_int(text[i:j], "exponent")
            i = j
        acc = group.multiply(acc, group.power(base, exp))
        saw_term = True
    if not saw_term:
        raise ParseError("empty word")
    return acc


def parse_element(group: Group, text: str) -> int:
    """Resolve one element expression to its index."""
    s = text.strip()
    if not s:
        raise ParseError("empty element expression")

    hit = group.index_of_name(s)
    if hit is not None:
        return hit

    # A word only makes sense when the group names generators.  An unknown
    # letter is a definite error; anything else unparseable may still be a
    # bare index ("10" on a dihedral group), so it falls through.
    if group.generator_names:
        try:
            return _eval_word(group, s)
        except UnknownSymbol:
            raise
        except ParseError:
            pass

    if _DIGITS.issuperset(s):
        idx = _to_int(s, "index")
        if idx >= group.order:
            raise IndexOutOfRange(
                f"index {idx} out of range for a group of order {group.order}"
            )
        return idx

    raise ParseError(f"cannot parse {text!r} as an element of {group.description}")


def parse_subset(group: Group, text: str) -> ElementSet:
    """Parse a comma-separated list of element expressions.

    The empty string parses to the empty set.  Duplicate entries collapse
    with a warning.
    """
    if not text.strip():
        return group.empty_set()
    mask = 0
    for pos, part in enumerate(text.split(","), start=1):
        try:
            idx = parse_element(group, part)
        except (ParseError, IndexOutOfRange) as exc:
            raise type(exc)(f"item {pos} ({part.strip()!r}): {exc}") from None
        if mask >> idx & 1:
            warnings.warn(
                f"duplicate element {part.strip()!r} in subset collapsed",
                stacklevel=2,
            )
        mask |= 1 << idx
    return group.subset_from_mask(mask)
