"""Subset products, directness predicates, and the middle director.

Conventions: A*B is the setwise product {a*b}.  A pair or a triple is
direct when its products are pairwise distinct, and every check here judges
that one way, by counting the product: (A, B) is direct when |A*B| = |A||B|,
and A*X*B when |A*X*B| = |A||X||B|.  A triple is middle direct when the
cells A*x*B for x in X are pairwise disjoint.  The middle director of
(A, B) is the set of x making A*{x}*B direct; for subgroups H, K that is
exactly the x with H meeting K^x trivially.

Products are read off the table by C-level gathers over whole rows and
columns, never one lookup per product.  A*B costs min(|A|, |B|) gathers
(_cell_maker), so a triple's directness costs min(|A|, |X|) + min(|A*X|,
|B|).  A cell A*x*B costs min(|A|, |B|), so a check over the cells of X
makes |X|*min(|A|, |B|) gathers and holds one cell, at most n products, at
a time.  mid_director is such a check over every x of G.  For subgroups the
cell of x is its double coset H*x*K, one per block of the (H, K) partition
that _coset_blocks builds for the searches too; Mid is the union of its
blocks of |H||K| elements.  mid_director_subgroups conjugates the smaller
subgroup instead: at most n*(min(|H|, |K|) - 1) lookups.  The two rules
share no code, and msfa's output check (direct_middle_verdict) takes Mid
from the conjugate test, so it does not repeat the walk that seeds msfa.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain

from .errors import GroupMismatch
from .groups import ElementSet, Group, _gather, _mask_of, bit_indices

__all__ = [
    "set_product",
    "is_direct_pair",
    "double_coset",
    "is_middle_direct",
    "is_direct_triple",
    "mid_director",
    "mid_director_subgroups",
    "mid_tag",
    "classify_mid",
    "is_right_transversal",
    "is_middle_transversal",
    "is_middle_factor",
    "direct_middle_verdict",
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


def _cell_maker(g: Group, a: Sequence[int], b: Sequence[int]) -> Callable[[int], set[int]]:
    """x -> the cell A*x*B as a set, for index sequences A and B of
    arbitrary subsets: the union of min(|A|, |B|) gathers, each row a*x of
    the table read at B or each column x*b read at A.  The gathers are
    consumed one by one, so at most n products are held at once."""
    t = g.table
    if len(a) <= len(b):
        at_b = _gather(b)
        return lambda x: set(chain.from_iterable(map(at_b, [t[t[u][x]] for u in a])))
    at_a = _gather(a)
    flat, n = g._flat(), g.order
    return lambda x: set(chain.from_iterable(map(at_a, [flat[t[x][v]::n] for v in b])))


def set_product(a: ElementSet, b: ElementSet) -> ElementSet:
    """The setwise product A*B."""
    g = _same_group(a, b)
    return g.subset_from_mask(_mask_of(_cell_maker(g, a.indices(), b.indices())(g.identity)))


def is_direct_pair(a: ElementSet, b: ElementSet) -> bool:
    """True when all products a*b are pairwise distinct."""
    return len(set_product(a, b)) == len(a) * len(b)


def double_coset(h: ElementSet, x: int, k: ElementSet) -> ElementSet:
    """The double coset H*x*K for subgroups H and K."""
    g = _subgroup_pair(h, k)
    g._check_index(x)
    return g.subset_from_mask(_mask_of(_cell_maker(g, h.indices(), k.indices())(x)))


def _cells_union(g: Group, a: ElementSet, x: ElementSet, b: ElementSet) -> int:
    """The size of the union of the cells A*t*B over t in X, or -1 when
    two cells meet.  Builds one cell at a time.  Every cell lies in G, so
    the union is G exactly when its size is the order: no mask is built."""
    cell_of = _cell_maker(g, a.indices(), b.indices())
    seen: set[int] = set()
    for t in bit_indices(x.mask):
        cell = cell_of(t)
        if not seen.isdisjoint(cell):
            return -1
        seen |= cell
    return len(seen)


def is_middle_direct(a: ElementSet, x: ElementSet, b: ElementSet) -> bool:
    """True when the sets A*t*B for t in X are pairwise disjoint."""
    return _cells_union(_same_group(a, x, b), a, x, b) >= 0


def is_direct_triple(a: ElementSet, x: ElementSet, b: ElementSet) -> bool:
    """True when all products a*t*b over A x X x B are pairwise distinct:
    |A*X*B| = |A||X||B|."""
    return len(set_product(set_product(a, x), b)) == len(a) * len(x) * len(b)


def _coset_blocks(h: ElementSet, k: ElementSet) -> tuple[list[int], int]:
    """The mask of the block H*x*K holding each element x of G, and Mid:
    the union of the blocks of |H||K| elements.  Covers G from its lowest
    uncovered element, one block at a time.  A block costs min(|H|, |K|)
    gathers (_cell_maker) and holds at least max(|H|, |K|) elements, so a
    walk makes at most n gathers and O(n) other steps."""
    g = h.group
    cell_of = _cell_maker(g, h.indices(), k.indices())
    size = len(h) * len(k)
    blocks, mid = [0] * g.order, 0
    uncovered = g.full_mask
    while uncovered:
        cell = cell_of((uncovered & -uncovered).bit_length() - 1)
        block = _mask_of(cell)
        for y in cell:
            blocks[y] = block
        if len(cell) == size:
            mid |= block
        uncovered &= ~block
    return blocks, mid


def mid_director(a: ElementSet, b: ElementSet) -> ElementSet:
    """All x with A*{x}*B direct, for arbitrary subsets A and B.

    Keeps x when its cell A*x*B has |A||B| elements, by definition.  When A
    and B are subgroups, the cell is the double coset of x, so Mid is read
    off the (H, K) partition (_coset_blocks): one cell per block, each of
    min(|A|, |B|) gathers.  Otherwise one cell per x, holding one of at most
    n products at a time: n*min(|A|, |B|) gathers.  No cell of G holds more
    than n products, so none is direct when |A||B| > n."""
    g = _same_group(a, b)
    size = len(a) * len(b)
    if size > g.order:
        return g.empty_set()
    if a.is_subgroup() and b.is_subgroup():
        return g.subset_from_mask(_coset_blocks(a, b)[1])
    cell_of = _cell_maker(g, a.indices(), b.indices())
    return g.subset_from_mask(_mask_of(x for x in range(g.order) if len(cell_of(x)) == size))


def mid_director_subgroups(h: ElementSet, k: ElementSet) -> ElementSet:
    """The middle director of subgroups via the conjugate test
    H ∩ K^x = {1}; agrees with mid_director on subgroup inputs.

    H ∩ xKx⁻¹ = x(x⁻¹Hx ∩ K)x⁻¹, so x is tested by conjugating the
    non-identity members of the smaller side into the other, up to the first
    that lands in it: at most n*(min(|H|, |K|) - 1) lookups.  Empty when
    |H||K| > n, as no double coset is that large."""
    g = _subgroup_pair(h, k)
    n = g.order
    if len(h) * len(k) > n:
        return g.empty_set()
    t, inv = g.table, g.inverse
    if len(k) <= len(h):  # x*s*x⁻¹ for s in K, tested against H
        small, other, left, right = k, h, range(n), inv
    else:  # x⁻¹*s*x for s in H, tested against K
        small, other, left, right = h, k, inv, range(n)
    sbits = [s for s in bit_indices(small.mask) if s != g.identity]
    inside = set(bit_indices(other.mask))
    mask = 0
    for x in range(n):
        row, y = t[left[x]], right[x]
        for s in sbits:
            if t[row[s]][y] in inside:
                break
        else:
            mask |= 1 << x
    return g.subset_from_mask(mask)


def mid_tag(mid: ElementSet) -> str:
    """A middle director's case by its size: "Empty", "Full" (all of G) or "ProperNonempty"."""
    if not mid:
        return "Empty"
    return "Full" if len(mid) == mid.group.order else "ProperNonempty"


def classify_mid(h: ElementSet, k: ElementSet) -> str:
    """The case of the middle director of two subgroups, as mid_tag gives it."""
    return mid_tag(mid_director_subgroups(h, k))


def is_right_transversal(h: ElementSet, t: ElementSet) -> bool:
    """True when T hits every right coset H*g exactly once: a middle
    transversal of (H, {1})."""
    return is_middle_transversal(h, t, h.group.trivial_subgroup())


def is_middle_transversal(h: ElementSet, x: ElementSet, k: ElementSet) -> bool:
    """True when X hits every double coset H*g*K exactly once."""
    g = _subgroup_pair(h, k, x)
    return _cells_union(g, h, x, k) == g.order


def is_middle_factor(h: ElementSet, x: ElementSet, k: ElementSet) -> bool:
    """True when H*X*K is direct and covers the whole group: |H||X||K| is
    the order, and so is |H*X*K|."""
    n = _subgroup_pair(h, k, x).order
    return len(h) * len(x) * len(k) == n == len(set_product(set_product(h, x), k))


def direct_middle_verdict(h: ElementSet, x: ElementSet, k: ElementSet) -> dict:
    """msfa's output check of X between subgroups H and K, which the caller
    has checked: the report's mid_size, covers_group, direct and maximal, in
    its key order.  X is maximal when all of Mid lies in H*X*K.  Mid comes
    from the conjugate test (mid_director_subgroups), which shares no code
    with the partition walk that seeds the search, so a fault in the walk
    cannot hide from this check."""
    g = _same_group(h, x, k)
    hxk = set_product(set_product(h, x), k)
    mid = mid_director_subgroups(h, k)
    covers, direct = len(hxk) == g.order, len(hxk) == len(h) * len(x) * len(k)
    return {"mid_size": len(mid), "covers_group": covers, "direct": direct, "maximal": mid <= hxk}
