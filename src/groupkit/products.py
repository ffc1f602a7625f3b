"""Subset products, directness predicates, and the middle director.

Conventions: A*B is the setwise product {a*b}.  The pair (A, B) is direct
when every product a*b is distinct, i.e. |A*B| = |A||B|.  A triple A*X*B is
middle direct when the sets A*x*B for x in X are pairwise disjoint, and
direct when additionally every A*x*B is itself direct.  The middle director
of (A, B) is the set of x making A*{x}*B direct; for subgroups H, K that is
exactly the x with H meeting K^x trivially.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import GroupMismatch
from .groups import ElementSet, Group, bit_indices

__all__ = [
    "set_product",
    "is_direct_pair",
    "double_coset",
    "is_middle_direct",
    "is_direct_triple",
    "mid_director",
    "mid_director_subgroups",
    "MidTag",
    "MidCase",
    "classify_mid",
    "is_right_transversal",
    "is_middle_transversal",
    "is_middle_factor",
]


def _same_group(*sets: ElementSet) -> Group:
    g = sets[0].group
    for s in sets[1:]:
        if s.group is not g:
            raise GroupMismatch("operands belong to different groups")
    return g


def _subgroup_pair(h: ElementSet, k: ElementSet, *others: ElementSet) -> Group:
    """The group of H, K and the other operands, once H and K are known to
    be subgroups of it."""
    g = _same_group(h, k, *others)
    h.require_subgroup("H")
    k.require_subgroup("K")
    return g


def _product_mask(g: Group, amask: int, bmask: int) -> int:
    t = g.table
    out = 0
    for x in bit_indices(amask):
        row = t[x]
        for y in bit_indices(bmask):
            out |= 1 << row[y]
    return out


def set_product(a: ElementSet, b: ElementSet) -> ElementSet:
    """The setwise product A*B."""
    g = _same_group(a, b)
    return g.subset_from_mask(_product_mask(g, a.mask, b.mask))


def is_direct_pair(a: ElementSet, b: ElementSet) -> bool:
    """True when all products a*b are pairwise distinct."""
    g = _same_group(a, b)
    return _product_mask(g, a.mask, b.mask).bit_count() == len(a) * len(b)


def double_coset(h: ElementSet, x: int, k: ElementSet) -> ElementSet:
    """The double coset H*x*K for subgroups H and K."""
    g = _subgroup_pair(h, k)
    g._check_index(x)
    return g.subset_from_mask(_middle_cell_mask(g, h.mask, x, k.mask))


def _middle_cell_mask(g: Group, amask: int, x: int, bmask: int) -> int:
    t = g.table
    ax = 0
    for a in bit_indices(amask):
        ax |= 1 << t[a][x]
    return _product_mask(g, ax, bmask)


def _cells_union(g: Group, a: ElementSet, x: ElementSet, b: ElementSet, size: int = 0) -> int:
    """The union of the cells A*t*B over t in X, or -1 when two cells meet
    or, given a positive size, when a cell has another size."""
    seen = 0
    for t in bit_indices(x.mask):
        cell = _middle_cell_mask(g, a.mask, t, b.mask)
        if cell & seen or size and cell.bit_count() != size:
            return -1
        seen |= cell
    return seen


def is_middle_direct(a: ElementSet, x: ElementSet, b: ElementSet) -> bool:
    """True when the sets A*t*B for t in X are pairwise disjoint."""
    return _cells_union(_same_group(a, x, b), a, x, b) >= 0


def is_direct_triple(a: ElementSet, x: ElementSet, b: ElementSet) -> bool:
    """True when all products a*t*b over A x X x B are pairwise distinct."""
    return _cells_union(_same_group(a, x, b), a, x, b, len(a) * len(b)) >= 0


def mid_director(a: ElementSet, b: ElementSet) -> ElementSet:
    """All x with A*{x}*B direct, for arbitrary subsets A and B."""
    g = _same_group(a, b)
    target = len(a) * len(b)
    mask = 0
    for x in range(g.order):
        if _middle_cell_mask(g, a.mask, x, b.mask).bit_count() == target:
            mask |= 1 << x
    return g.subset_from_mask(mask)


def mid_director_subgroups(h: ElementSet, k: ElementSet) -> ElementSet:
    """The middle director of subgroups via the conjugate test
    H ∩ K^x = {1}; agrees with mid_director on subgroup inputs."""
    g = _subgroup_pair(h, k)
    t = g.table
    inv = g.inverse
    id_bit = 1 << g.identity
    kbits = list(bit_indices(k.mask))
    mask = 0
    for x in range(g.order):
        xi = inv[x]
        kx = 0
        for s in kbits:
            kx |= 1 << t[t[x][s]][xi]
        if h.mask & kx == id_bit:
            mask |= 1 << x
    return g.subset_from_mask(mask)


class MidTag(enum.Enum):
    EMPTY = "Empty"
    FULL = "Full"
    PROPER_NONEMPTY = "ProperNonempty"


@dataclass(frozen=True)
class MidCase:
    """A middle director, classified by its size."""

    mid: ElementSet

    @property
    def tag(self) -> MidTag:
        size = len(self.mid)
        if size == 0:
            return MidTag.EMPTY
        return MidTag.FULL if size == self.mid.group.order else MidTag.PROPER_NONEMPTY


def classify_mid(h: ElementSet, k: ElementSet) -> MidCase:
    """Compute and classify the middle director of two subgroups."""
    return MidCase(mid_director_subgroups(h, k))


def is_right_transversal(h: ElementSet, t: ElementSet) -> bool:
    """True when T hits every right coset H*g exactly once: a middle
    transversal of (H, {1})."""
    return is_middle_transversal(h, t, h.group.trivial_subgroup())


def is_middle_transversal(h: ElementSet, x: ElementSet, k: ElementSet) -> bool:
    """True when X hits every double coset H*g*K exactly once."""
    g = _subgroup_pair(h, k, x)
    return _cells_union(g, h, x, k) == g.full_mask


def is_middle_factor(h: ElementSet, x: ElementSet, k: ElementSet) -> bool:
    """True when H*X*K is direct and covers the whole group."""
    g = _subgroup_pair(h, k, x)
    return _cells_union(g, h, x, k, len(h) * len(k)) == g.full_mask
