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
varying slowest.  By default they wrap the masks as a set of ElementSets;
with as_masks=True they return the list of masks in that order, which is how
`enumerate --via both` compares them with the search's list.
"""

from __future__ import annotations

import itertools
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


def _one_per_cell(cells: list[tuple[int, ...]], limit: int | None) -> list[int]:
    """The mask of every set holding exactly one element of each cell (a
    tuple of element indices), as a list in the order of a plain product
    over the cells as given, the first cell slowest.  Built by a plain
    product over the first half of the cells and one over the second, then
    every left mask added to every right one, left slowest."""
    cap = config.enum_cap(limit)
    total = 1
    for cell in cells:
        total *= len(cell)
        if total > cap:
            raise EnumerationLimitExceeded(
                f"{total}+ combinations exceed the cap of {cap}; raise the limit to continue"
            )
    bit_cells = [[1 << i for i in cell] for cell in cells]
    # the cells are disjoint, so the sum of one bit from each is their union
    half = len(bit_cells) // 2
    left = list(map(sum, itertools.product(*bit_cells[:half])))
    right = list(map(sum, itertools.product(*bit_cells[half:])))
    return [a + b for a in left for b in right]


def all_right_transversals(
    h: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | list[int]:
    """Every set holding exactly one element of each right coset of H: the
    middle transversals of (H, {1}).  With as_masks, the list of their int
    masks, in the order all_middle_transversals gives."""
    return all_middle_transversals(h, h.group.trivial_subgroup(), limit=limit, as_masks=as_masks)


def all_middle_transversals(
    h: ElementSet, k: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | list[int]:
    """Every set holding exactly one element of each double coset of (H, K).
    With as_masks, the list of their int masks, in the order of the product
    over the double cosets by least element, each ascending, the first
    slowest."""
    g = _require_subgroup_pair(h, k)
    masks = _one_per_cell([tuple(bit_indices(b)) for b in _double_cosets(g, h, k)], limit)
    return masks if as_masks else set(map(g.subset_from_mask, masks))


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
) -> set[ElementSet] | list[int]:
    """Every maximal X with H*X*K direct: one element of Mid per double
    coset meeting Mid.  With as_masks, the list of their int masks, in the
    order of the product over the cells (each double coset cut down to Mid)
    by least element, each ascending, the first slowest.  Raises MidEmpty
    when the middle director is empty."""
    g = _require_subgroup_pair(h, k)
    mid = _raw_mid_mask(g, h.mask, k.mask)
    if mid == 0:
        raise MidEmpty("the middle director is empty; no direct middle exists")
    blocks = _double_cosets(g, h, k)
    # cells by their own least element, as the search orders them; Mid is a
    # union of blocks, so that is the blocks' order, but the oracle does not
    # lean on that
    cells = sorted(tuple(bit_indices(b & mid)) for b in blocks if b & mid)
    masks = _one_per_cell(cells, limit)
    return masks if as_masks else set(map(g.subset_from_mask, masks))

