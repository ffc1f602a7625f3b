"""Parse element expressions and comma-separated subsets.

An element expression is resolved in this order:

1. a canonical element name, exactly or up to whitespace ("ba^4", "(1 2 3)");
2. a word over the group's generator symbols, when it has any, with terms
   symbol or symbol^int and "1" for the identity ("a^-1 b", "a^3b");
3. a bare nonnegative integer, read as an element index.

Exponents and indices take the ASCII digits 0-9 only.

A comma list is cut at its commas outside parentheses, so that names that
hold commas, as a direct product's "(0,b)" does, can be listed.

A failed parse raises ParseError (IndexOutOfRange for an index past the
group's order) with the reason of the route that failed: the word's own
error, unless the text is all ASCII digits and so is left to the index
route.  A message quotes at most the first 40 characters of the input.
"""

from __future__ import annotations

import warnings

from .errors import IndexOutOfRange, ParseError, UnknownSymbol, quote
from .groups import ElementSet, Group

__all__ = ["parse_element", "parse_subset"]

_DIGITS = frozenset("0123456789")


def _to_int(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"{what} of {len(digits.lstrip('-'))} digits is too long") from None


def _eval_word(group: Group, text: str) -> int:
    """The element a word names.  parse_element passes it stripped and
    nonempty, so its first character starts a term or fails."""
    gens = group.generator_names
    acc = group.identity
    i = 0
    n = len(text)
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
            raise ParseError(f"unexpected {c!r} at position {i} in word {quote(text)}")
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            j = i
            if j < n and text[j] == "-":
                j += 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j == i or text[i:j] == "-":
                raise ParseError(f"exponent missing after '^' in word {quote(text)}")
            exp = _to_int(text[i:j], "exponent")
            i = j
        acc = group.multiply(acc, group.power(base, exp))
    return acc


def parse_element(group: Group, text: str) -> int:
    """Resolve one element expression to its index."""
    s = text.strip()
    if not s:
        raise ParseError("empty element expression")

    hit = group.index_of_name(s)
    if hit is not None:
        return hit

    # A word only makes sense when the group names generators.  Only text of
    # ASCII digits may still be a bare index ("10" on a dihedral group), so
    # any other text reports why it is not a word.
    digits = _DIGITS.issuperset(s)
    if group.generator_names:
        try:
            return _eval_word(group, s)
        except ParseError:
            if not digits:
                raise

    if digits:
        return group._check_index(_to_int(s, "index"))

    raise ParseError(f"cannot parse {quote(text)} as an element of {group.description}")


def _split_items(text: str) -> list[str]:
    """The items of a comma list: text cut at each comma outside
    parentheses, where as many '(' as ')' come before it.  Text whose
    parentheses do not balance (more ')' than '(' before a comma, or not as
    many in all) is cut at every comma, so that a name that holds a lone
    parenthesis can still be given; text that names nothing fails in
    parse_element."""
    parts = text.split(",")
    items: list[str] = []
    depth = 0
    for part in parts:
        if depth:
            items[-1] += "," + part
        else:
            items.append(part)
        depth += part.count("(") - part.count(")")
        if depth < 0:
            return parts
    return parts if depth else items


def parse_subset(group: Group, text: str) -> ElementSet:
    """Parse a comma-separated list of element expressions.

    The empty string parses to the empty set.  Duplicate entries collapse
    with a warning.
    """
    if not text.strip():
        return group.empty_set()
    mask = 0
    for pos, part in enumerate(_split_items(text), start=1):
        try:
            idx = parse_element(group, part)
        except (ParseError, IndexOutOfRange) as exc:
            raise type(exc)(f"item {pos} ({quote(part.strip())}): {exc}") from None
        if mask >> idx & 1:
            warnings.warn(
                f"duplicate element {quote(part.strip())} in subset collapsed",
                stacklevel=2,
            )
        mask |= 1 << idx
    return group.subset_from_mask(mask)
