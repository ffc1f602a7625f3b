"""Brute-force ground truth for the chain searches.

Everything here recomputes coset structure straight off the multiplication
table and enumerates by cartesian product over the double cosets, so the
results are independent of the incremental searches they are used to check.
The double cosets are plain int masks, by least member, from one walk that
strikes each block off what is left; only double_coset_partition wraps them,
as a tuple of ElementSets.
H and K are checked here too, by their own |H|^2 products, not by the
subgroup test the searches share; the subgroups the tests feed in come from
a naive closure in tests/suites.py.
The enumerations build each answer as an int mask, in lexicographic order
over the cells: cells by least element, each cell ascending, the first cell
varying slowest.  By default they wrap the masks as a set of ElementSets.
With as_masks=True they return (count, lanes, rows): the number of answers,
the product of the cell sizes taken before any mask is built; the answers
per int; and an iterator of rows of ints built as they are read.  For a
group of order n <= LANE_ORDER (64) each int holds the answers that share a
choice in the first half of the cells, in lanes of 8*ceil(n/8) bits, lowest
lane first; above it an int is one mask.  The cells are cut after half of
those larger than 1, which is where the search cuts its own, so on a correct
run both sides give equal ints, and `enumerate --via both` compares ints.
The packing is this module's own arithmetic, as is its decoder (_masks).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from operator import itemgetter

from . import config
from .errors import EnumerationLimitExceeded, GroupMismatch, MidEmpty, NotASubgroup
from .groups import ElementSet, Group, bit_indices

__all__ = [
    "double_coset_partition",
    "all_right_transversals",
    "all_middle_transversals",
    "all_maximal_direct_triples",
]

# answers per row of an enumeration's output, or one right half's product
# when that is larger
ROW = 4096

# the largest order whose answers are packed several to an int; above it
# an int holds one answer, as a many-digit left mask would cost more to
# spread across the lanes than the packing saves
LANE_ORDER = 64

# (count, lanes, rows): the number of answers, the answers per int, and the
# rows of ints that hold them
Enumeration = tuple[int, int, Iterator[list[int]]]


def _require_subgroup(s: ElementSet, label: str) -> None:
    """Refuse s unless it holds the identity and every product of two of its
    members: one gather of its members' columns from each of its rows."""
    g = s.group
    members = list(bit_indices(s.mask))
    closed = s.mask >> g.identity & 1 == 1
    if closed and len(members) > 1:
        inside = frozenset(members)
        columns = itemgetter(*members)
        closed = all(inside.issuperset(columns(g.table[a])) for a in members)
    if not closed:
        raise NotASubgroup(f"{label} {s.shown()} is not a subgroup")


def _require_subgroup_pair(h: ElementSet, k: ElementSet) -> Group:
    g = h.group
    _require_subgroup(h, "H")
    if k.group is not g:
        raise GroupMismatch("H and K belong to different groups")
    _require_subgroup(k, "K")
    return g


def double_coset_partition(h: ElementSet, k: ElementSet) -> tuple[ElementSet, ...]:
    """All double cosets H*g*K, as a tuple of ElementSets ordered by least
    member.  The right cosets H*g are the double cosets of (H, {1})."""
    g = _require_subgroup_pair(h, k)
    return tuple(map(g.subset_from_mask, _double_cosets(g, h, k)))


def _double_cosets(g: Group, h: ElementSet, k: ElementSet) -> list[int]:
    """The mask of each double coset H*x*K, by least member, for a pair the
    caller has checked: x is the least element left, and its block is
    struck off what is left until nothing is."""
    t = g.table
    hbits = list(bit_indices(h.mask))
    kbits = list(bit_indices(k.mask))
    remaining = g.full_mask
    blocks = []
    while remaining:
        x = (remaining & -remaining).bit_length() - 1
        cm = 0
        for a in hbits:
            row = t[t[a][x]]
            for b in kbits:
                cm |= 1 << row[b]
        blocks.append(cm)
        remaining &= ~cm
    return blocks


def _one_per_cell(cells: list[tuple[int, ...]], limit: int | None, n: int) -> Enumeration:
    """The number of sets holding exactly one element of each cell (a tuple
    of element indices of a group of order n), the answers per int, and
    rows of ints holding the mask of every such set, in the order of a
    plain product over the cells as given, the first cell slowest.

    The cells are cut just before the first cell larger than 1 of the
    second half of those (half rounded down to the left), size-1 cells
    staying where they are.  A plain product over each part gives the left
    and the right masks, on the first read of the rows; every left mask is
    then added to every right one, left slowest.  For n <= LANE_ORDER the
    sums that share a left mask go into one int, lowest lane first, in
    lanes of 8*ceil(n/8) bits (_sums); above it an int is one mask."""
    cap = config.enum_cap(limit)
    total = 1
    for cell in cells:
        total *= len(cell)
        if total > cap:
            raise EnumerationLimitExceeded(
                f"{total}+ combinations exceed the cap of {cap}; raise the limit to continue"
            )
    larger = [i for i, cell in enumerate(cells) if len(cell) > 1]
    cut = larger[len(larger) // 2] if larger else len(cells)
    lanes = 1
    if n <= LANE_ORDER:
        for cell in cells[cut:]:
            lanes *= len(cell)
    return total, lanes, _sums(n, lanes, cells[:cut], cells[cut:])


def _sums(
    n: int, lanes: int, left_cells: list[tuple[int, ...]], right_cells: list[tuple[int, ...]]
) -> Iterator[list[int]]:
    """Every left mask added to every right one, left slowest, in rows of
    about ROW answers.  With several lanes the right masks are laid
    side by side in one int, R, and the left mask m, times the int with a 1
    at the foot of each lane, lands in every lane: m*ONES + R.  The cells
    are disjoint, so the sum of one bit from each is their union, and a sum
    stays below 2**n: no lane carries into the next."""
    left, right = (list(map(sum, itertools.product(*[[1 << i for i in c] for c in cells])))
                   for cells in (left_cells, right_cells))
    if lanes == 1:
        step = max(1, ROW // len(right))
        for i in range(0, len(left), step):
            yield [a + b for a in left[i:i + step] for b in right]
        return
    width = 8 * -(-n // 8)
    ones = ((1 << width * lanes) - 1) // ((1 << width) - 1)
    packed = int.from_bytes(b"".join(r.to_bytes(width // 8, "little") for r in right), "little")
    step = max(1, ROW // lanes)
    for i in range(0, len(left), step):
        yield [a * ones + packed for a in left[i:i + step]]


def _masks(n: int, lanes: int, ints: Iterable[int]) -> Iterator[int]:
    """The masks held by ints of the given lanes of 8*ceil(n/8) bits each,
    lowest lane first, and what an int holds above its last lane, which no
    int of _sums has, as one more mask: no bit goes unread."""
    if lanes == 1:
        yield from ints
        return
    size = -(-n // 8)
    span = 8 * size * lanes
    for packed in ints:
        raw = (packed & (1 << span) - 1).to_bytes(size * lanes, "little")
        for at in range(0, size * lanes, size):
            yield int.from_bytes(raw[at:at + size], "little")
        if packed >> span:
            yield packed >> span


def _answers(g: Group, enumeration: Enumeration, as_masks: bool) -> set[ElementSet] | Enumeration:
    """The enumeration with as_masks, else its sets as ElementSets."""
    if as_masks:
        return enumeration
    _, lanes, rows = enumeration
    return set(map(g.subset_from_mask, _masks(g.order, lanes, itertools.chain.from_iterable(rows))))


def all_right_transversals(
    h: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | Enumeration:
    """Every set holding exactly one element of each right coset of H: the
    middle transversals of (H, {1}).  With as_masks, (count, lanes, rows)
    as all_middle_transversals gives them."""
    return all_middle_transversals(h, h.group.trivial_subgroup(), limit=limit, as_masks=as_masks)


def all_middle_transversals(
    h: ElementSet, k: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | Enumeration:
    """Every set holding exactly one element of each double coset of (H, K).
    With as_masks, their count, the answers per int and the rows of ints
    (_one_per_cell), in the order of the product over the double cosets by
    least element, each ascending, the first slowest."""
    g = _require_subgroup_pair(h, k)
    cells = [tuple(bit_indices(b)) for b in _double_cosets(g, h, k)]
    return _answers(g, _one_per_cell(cells, limit, g.order), as_masks)


def _raw_mid_mask(g: Group, hmask: int, kmask: int) -> int:
    """Middle director by definition: x is in when |H*x*K| = |H||K|."""
    t = g.table
    hbits = list(bit_indices(hmask))
    kbits = list(bit_indices(kmask))
    target = len(hbits) * len(kbits)
    mid = 0
    for x in range(g.order):
        seen = 0
        for a in hbits:
            row = t[t[a][x]]
            for b in kbits:
                seen |= 1 << row[b]
        if seen.bit_count() == target:
            mid |= 1 << x
    return mid


def all_maximal_direct_triples(
    h: ElementSet, k: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | Enumeration:
    """Every maximal X with H*X*K direct: one element of Mid per double
    coset meeting Mid.  With as_masks, their count, the answers per int and
    the rows of ints (_one_per_cell), in the order of the product over the
    cells (each double coset cut down to Mid) by least element, each
    ascending, the first slowest.  Raises MidEmpty when the middle director
    is empty."""
    g = _require_subgroup_pair(h, k)
    mid = _raw_mid_mask(g, h.mask, k.mask)
    if mid == 0:
        raise MidEmpty("the middle director is empty; no direct middle exists")
    blocks = _double_cosets(g, h, k)
    # cells by their own least element, as the search orders them; Mid is a
    # union of blocks, so that is the blocks' order, but the oracle does not
    # lean on that
    cells = sorted(tuple(bit_indices(b & mid)) for b in blocks if b & mid)
    return _answers(g, _one_per_cell(cells, limit, g.order), as_masks)

