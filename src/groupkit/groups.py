"""Concrete finite groups with full multiplication tables.

Elements are the indices 0..order-1.  A Group owns an immutable table,
canonical element names, and optional single-letter generator names used by
the word parser.  Subsets of a group are ElementSet values backed by int
bitmasks, which keeps the set algebra in this package cheap.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from array import array
from dataclasses import dataclass
from operator import itemgetter, lt, sub
from typing import Callable, Iterable, Iterator, Sequence

from . import config
from .errors import (
    SHOWN,
    GroupMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NotAGroup,
    NotASubgroup,
    SizeLimitExceeded,
    quote,
)

__all__ = [
    "Group",
    "ElementSet",
    "GroupSpec",
    "build_group",
    "bit_indices",
]


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(indices: Iterable[int]) -> int:
    """The mask with the bits of indices set: bit_indices reversed."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _typecode(n: int) -> str:
    """The smallest unsigned array typecode that holds 0..n-1."""
    return next(tc for tc in "BHIL" if n <= 1 << 8 * array(tc).itemsize)


def _table_rows(flat: memoryview, n: int) -> tuple[memoryview, ...]:
    """Read-only row views over a row-major n*n table's flat view."""
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def _table_row(i: int, row: Sequence[int], n: int, typecode: str, below: bytes) -> array:
    """Row i of a caller's table as an array of typecode.  A malformed row
    fails with the message of a cell-by-cell check: its length, else its
    first cell that is not an int (bools excluded) in 0..n-1.  For one-byte
    cells, below is bytes(range(n)): deleting those bytes from the row's
    leaves nothing exactly when every cell is below n."""
    row = tuple(row)
    if len(row) != n:
        raise InvalidSpec(f"table row {i} has length {len(row)}, expected {n}")
    if all(issubclass(t, int) and t is not bool for t in set(map(type, row))):
        try:
            cells = array(typecode, row)
        except OverflowError:  # a negative or too wide cell; reported below
            pass
        else:
            if below:
                in_range = not cells.tobytes().translate(None, below)
            else:
                in_range = max(row) < n
            if in_range:
                return cells
    bad = next(
        v for v in row if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n
    )
    try:
        shown = repr(bad)
    except ValueError:  # an int too long to print in decimal
        shown = f"an integer of {bad.bit_length()} bits"
    raise InvalidSpec(f"table row {i} holds {shown}, expected 0..{n - 1}")


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """f(seq) = tuple(seq[i] for i in indices), at C speed.  A bare
    itemgetter of one index would return the item, not a 1-tuple, and one of
    no index cannot be made."""
    if not indices:
        return lambda seq: ()
    if len(indices) == 1:
        (only,) = indices
        return lambda seq: (seq[only],)
    return itemgetter(*indices)


# Cells in each block of rows that a pass of Light's test fills and compares at
# once.  At the order cap 2**16 doubles a pass, and 2**20 is no faster.
_LIGHT_BLOCK_CELLS = 1 << 18
# The shortest run of row s that a pass copies row by row.  A pass with a run
# this long copies each shorter run one strided column at a time; a pass with
# none compares the columns in place.  Short runs are cheaper as columns, and
# cheaper still compared in place.  Best of 7 on a 2-CPU Xeon, Python 3.11,
# at 2, 8-16, 32 and 64-128: S6 checked at s = 1, 2, 6, 24, 120 takes 0.21,
# 0.030, 0.020 and 0.019 s; cyclic:64 x dihedral:32, whose row (0,b) has runs
# of exactly 32, 0.70, 0.69, 0.63 and 0.51 s; cyclic:8 x dihedral:32 11, 10,
# 7.6 and 4.8 ms.  cyclic:2048 and dihedral:512 are alike from 2 to 128.
_LIGHT_RUN_CELLS = 64


def _light_copy_plan(
    row_s: list[int], starts: list[int], lengths: list[int]
) -> tuple[tuple[int, int, int], list[tuple[int, int, int]], list[tuple[int, int]]]:
    """How a pass of Light's test builds the right side of a block from the
    runs of row s, which start at starts and have lengths: the longest run
    (y0, p0, L), copied across the whole block; the other runs of at least
    _LIGHT_RUN_CELLS, each (y0, p0, L) copied row by row; and the cells of
    the shorter runs, each (y, row_s[y]) copied as one strided column."""
    i = lengths.index(max(lengths))
    longest = (starts[i], row_s[starts[i]], lengths[i])
    long_runs: list[tuple[int, int, int]] = []
    columns: list[tuple[int, int]] = []
    for y0, length in zip(starts[:i] + starts[i + 1:], lengths[:i] + lengths[i + 1:]):
        if length >= _LIGHT_RUN_CELLS:
            long_runs.append((y0, row_s[y0], length))
        else:
            columns += zip(range(y0, y0 + length), row_s[y0:y0 + length])
    return longest, long_runs, columns


def _light_failure(
    flat: memoryview, n: int, identity: int | None, generators: Sequence[int] = ()
) -> tuple[int, int, int] | None:
    """Light's associativity test on the row-major n*n table flat: a triple
    (x, s, y) with (x*s)*y != x*(s*y), or None when the table is associative.

    Each pass checks one s against every x and y, taking the first of
    generators not yet reached, then the lowest s not yet reached, as a
    left-bracketed product of those that passed.  On any magma the elements
    that pass are closed under the product, so the table is associative once
    all are reached, whichever unreached s each pass takes.  A given two-sided
    identity passes trivially and is reached without a pass.  With the
    identity and two-sided inverses verified, at most floor(log2 n) + 1 passes
    run: x = s^-1, then y = s^-1, in (x*s)*y = x*(s*y) show that every s that
    passes has injective row and column maps, so the reached set is a finite
    cancellative monoid, that is a subgroup, and by Lagrange each newly passed
    s at least doubles it.

    A pass runs over blocks of rows x with no lookup per cell, by slice
    copies whose number depends on the runs of row s and column s, not on
    the cells they move.  The left side of row x is row x*s, so a run of x
    in a block whose x*s are consecutive is one slice of flat: one copy per
    run, a handful per block for cyclic and dihedral tables, and none for a
    block that is one run, whose left side is that slice of flat itself.
    The right side, x*(s*y) over y, is row x with its columns permuted by
    row s.  A run y0..y0+L-1 of row s, where row_s[y0+i] = p0+i, is the
    slice p0..p0+L-1 of row x.  The longest run is copied once for the whole
    block, from its first cell in the block's first row to its last in the
    block's last row; what that spills between the rows is overwritten by
    the other runs, each copied row by row if at least _LIGHT_RUN_CELLS long
    and else column by column.  The block's cells of the two sides are then
    compared as bytes, by one memcmp.  A pass whose row s has no run that
    long (a relabeled table, S_n from its builder's generators) builds no
    right side, nor the plan of its copies: column y of it is column
    row_s[y] of the block's rows in flat, compared with column y of the left
    side by one strided compare, which copies nothing.  Only a block where a
    column differs is built as above, so that the returned triple is still
    the first failure in row-major order.  Closing the reached set reads
    each passed s's column once, as a list.
    """
    block = min(n, _LIGHT_BLOCK_CELLS // n)
    lhs = memoryview(bytearray(block * n * flat.itemsize)).cast(flat.format)
    rhs = memoryview(bytearray(block * n * flat.itemsize)).cast(flat.format)
    passed: list[list[int]] = []  # column g, x*g over x, of each g that passed
    reached: list[int] = []
    seen = bytearray(n)
    if identity is not None:
        seen[identity] = 1
        reached.append(identity)
    while len(reached) < n:
        s = next((g for g in generators if not seen[g]), None)
        if s is None:
            s = seen.index(0)
        row_s = flat[s * n:(s + 1) * n].tolist()
        col_s = flat[s::n].tolist()
        starts = [0] + [y for y in range(1, n) if row_s[y] != row_s[y - 1] + 1]
        lengths = list(map(sub, starts[1:] + [n], starts))
        in_place = max(lengths) < _LIGHT_RUN_CELLS
        plan = None  # made by the first block that builds its right side
        for x0 in range(0, n, block):
            x1 = min(x0 + block, n)
            cells = (x1 - x0) * n
            base = x0 * n
            # The rows where a run of column s starts, one whose x*s are
            # consecutive; each run is one slice of flat.
            cuts = [x0] + [x for x in range(x0 + 1, x1) if col_s[x] != col_s[x - 1] + 1]
            if len(cuts) == 1:
                src = col_s[x0] * n
                left = flat[src:src + cells]
            else:
                for a, b in zip(cuts, cuts[1:] + [x1]):
                    src = col_s[a] * n
                    lhs[(a - x0) * n:(b - x0) * n] = flat[src:src + (b - a) * n]
                left = lhs[:cells]
            # With no long run, column y of the right side is compared where
            # it lies, column row_s[y] of the block's rows: a strided compare
            # copies nothing, a strided copy goes through a temporary buffer.
            # Only a block that differs builds its right side, below.
            if in_place and not any(
                left[y::n] != flat[base + sy:base + cells:n] for y, sy in enumerate(row_s)
            ):
                continue
            if plan is None:
                plan = _light_copy_plan(row_s, starts, lengths)
            (y0, p0, length), long_runs, columns = plan
            # The longest run, from the block's first row to its last.
            src, span = base + p0, cells - n + length
            rhs[y0:y0 + span] = flat[src:src + span]
            for y0, p0, length in long_runs:
                for row in range(0, cells, n):
                    src = base + row + p0
                    rhs[row + y0:row + y0 + length] = flat[src:src + length]
            for y, sy in columns:
                rhs[y:cells:n] = flat[base + sy:base + cells:n]
            # Only the block's cells: past a short last block the buffers
            # hold what earlier blocks left there.
            if not rhs.obj.startswith(left):
                k = next(k for k in range(0, cells, n) if left[k:k + n] != rhs[k:k + n])
                y = next(y for y in range(n) if left[k + y] != rhs[k + y])
                return x0 + k // n, s, y
        passed.append(col_s)
        seen[s] = 1
        reached.append(s)
        # Iterating the growing list closes it under right products.
        for r in reached:
            for col in passed:
                c = col[r]
                if not seen[c]:
                    seen[c] = 1
                    reached.append(c)
    return None


class Group:
    """A finite group on 0..order-1 given by its multiplication table.

    table[x][y] is the product x*y.  Each row is a read-only memoryview over
    one shared buffer, cast to the smallest unsigned typecode that holds the
    order ('B' up to order 256, 'H' up to 65536), so the table is immutable
    and costs one or two bytes per cell.  Every builder behind build_group
    ends in the one constructor, with the row-major table as n*n cells of
    typecode _typecode(n), the indices it was generated from as generators
    and, except for cayley tables, the inverse of each element as inverse.
    The cells are bytes, or for S_m and permutation closures the bytearray
    they were made in, kept without a copy: every view of them is read-only,
    _flat() too.  However a builder makes the cells (slices, lex-rank sums for
    all of S_m, gathers for other permutation closures), the constructor
    checks every table alike.  It validates the group axioms exactly, at every
    order: distinct names, a two-sided identity, two-sided inverses (the
    supplied ones checked, else searched for row by row), then associativity by
    Light's test (_light_failure), at most floor(log2 n) + 1 passes of n*n
    cells.  Each pass checks one s, taken from generators, then the lowest
    unreached element, and fills each block of rows by slice copies: one per
    run of column s on the left side, none when the block is one run, whose
    left side is then read from the table itself, and on the right one for
    the longest run of row s across the whole block, then one per row for
    each other long run and one strided column for each cell of a short run;
    the block's cells of the two sides are compared by one memcmp.  When row
    s has no long run, the right side is not built, nor the plan of its
    copies: each column of the left side is compared in place with the
    column of flat that it must equal, and only a block that differs is
    built, to find the first failing cell.
    """

    __slots__ = (
        "order",
        "table",
        "identity",
        "inverse",
        "names",
        "generator_names",
        "kind",
        "description",
        "full_mask",
        "_name_to_index",
        "_loose_names",
    )

    def __init__(
        self,
        n: int,
        cells: bytes | bytearray,
        names: Sequence[str],
        *,
        kind: str,
        description: str,
        generator_names: dict[str, int] | None = None,
        generators: Sequence[int] = (),
        inverse: Sequence[int] | None = None,
    ) -> None:
        self.order = n
        flat = memoryview(cells).cast(_typecode(n)).toreadonly()
        self.table = _table_rows(flat, n)
        self.names = tuple(str(s) for s in names)
        if len(set(self.names)) != n:
            raise InvalidSpec("element names must be pairwise distinct")
        self.kind = kind
        self.description = description
        self.full_mask = (1 << n) - 1

        self.identity = self._find_identity(flat)
        if inverse is None:
            self.inverse = self._find_inverses(flat)
        else:
            self.inverse = self._check_inverses(flat, tuple(inverse))
        if failure := _light_failure(flat, n, self.identity, generators):
            raise NotAGroup("associativity fails at i={}, j={}, k={}".format(*failure))

        gen = dict(generator_names or {})
        for sym, idx in gen.items():
            if len(sym) != 1 or not sym.isalpha():
                raise InvalidSpec(f"generator symbol {sym!r} must be a single letter")
            if not 0 <= idx < n:
                raise InvalidSpec(f"generator {sym!r} maps to invalid index {idx}")
        self.generator_names = gen

        self._name_to_index = {s: i for i, s in enumerate(self.names)}
        self._loose_names: dict[str, int] | None = None  # made on the first miss

    # -- validation -------------------------------------------------------
    # Each check compares or searches whole rows and columns of the flat
    # table, so its inner loop is in C.

    def _find_identity(self, flat: memoryview) -> int:
        # The columns need not be permutations, so e*0 = 0 alone does not
        # single out the identity: its whole row and column must be 0..n-1.
        n = self.order
        ident = memoryview(array(flat.format, range(n)))
        for e, row in enumerate(self.table):
            if row == ident and flat[e::n] == ident:
                return e
        raise NotAGroup("no two-sided identity element")

    def _find_inverses(self, flat: memoryview) -> tuple[int, ...]:
        n = self.order
        e = self.identity
        size = flat.itemsize
        cells: bytes | bytearray = flat.obj  # the buffer the table views
        target = array(flat.format, [e]).tobytes()
        inv = []
        for i in range(n):
            start, stop = i * n * size, (i + 1) * n * size
            pos = cells.find(target, start, stop)
            while pos >= 0 and (pos - start) % size:  # straddles two cells
                pos = cells.find(target, pos + 1, stop)
            if pos < 0:
                raise NotAGroup(f"element {i} has no two-sided inverse")
            j = (pos - start) // size
            if flat[j * n + i] != e:
                raise NotAGroup(
                    f"element {i} has a right inverse {j} that is not a left inverse"
                )
            inv.append(j)
        return tuple(inv)

    def _check_inverses(self, flat: memoryview, inverse: tuple[int, ...]) -> tuple[int, ...]:
        # One gather over the flat table per side: the cells i*inv[i] and
        # inv[i]*i for every i.
        n = self.order
        if len(inverse) != n or min(inverse) < 0 or max(inverse) >= n:
            raise NotAGroup(f"the supplied inverses must be {n} indices in 0..{n - 1}")
        for cells in (
            [i * n + j for i, j in enumerate(inverse)],
            [j * n + i for i, j in enumerate(inverse)],
        ):
            products = _gather(cells)(flat)
            if products.count(self.identity) != n:
                i = next(i for i, c in enumerate(products) if c != self.identity)
                raise NotAGroup(f"element {i} is not inverted by the supplied {inverse[i]}")
        return inverse

    # -- arithmetic -------------------------------------------------------

    def _check_index(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.order:
            raise IndexOutOfRange(f"element index {x!r} not in 0..{self.order - 1}")
        return x

    def _flat(self) -> memoryview:
        """The row-major n*n table as one view of the buffer that the rows
        share, read-only as they are; its strided slice [y::n] is column y,
        the products x*y."""
        row = self.table[0]
        return memoryview(row.obj).cast(row.format).toreadonly()

    def multiply(self, x: int, y: int) -> int:
        """Product x*y."""
        return self.table[self._check_index(x)][self._check_index(y)]

    def power(self, x: int, k: int) -> int:
        """x**k for any integer k (negative powers use the inverse)."""
        self._check_index(x)
        if k < 0:
            x, k = self.inverse[x], -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.table[acc][x]
            x = self.table[x][x]
            k >>= 1
        return acc

    def _grow(self, source: int, inside: int) -> int:
        """The mask of the subgroup generated by the members of source,
        grown inside the mask inside; 0 at the first product outside it.

        It grows <S> from S empty: each step adds to S the lowest member of
        source not yet reached, then closes the reached elements under right
        products by S.  The elements reached before a step are closed under
        the earlier S, so each new one takes |S| products and each earlier
        one only its product by the newest member of S.  Each step at least
        doubles the subgroup reached, so S never exceeds floor(log2 h)
        elements for a subgroup of h elements, and the growth reads at most
        h * floor(log2 h) products, not h^2."""
        t = self.table
        reached = 1 << self.identity
        members = [self.identity]
        gens: list[int] = []
        while rest := source & ~reached:
            gens.append((rest & -rest).bit_length() - 1)
            newest = gens[-1:]
            old = len(members)
            i = 0
            while i < len(members):
                row = t[members[i]]
                for y in newest if i < old else gens:
                    c = row[y]
                    if reached >> c & 1 == 0:
                        if inside >> c & 1 == 0:
                            return 0
                        reached |= 1 << c
                        members.append(c)
                i += 1
        return reached

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[i][j] == t[j][i] for i in range(self.order) for j in range(i))

    def center(self) -> ElementSet:
        """Elements commuting with everything."""
        t = self.table
        n = self.order
        mask = 0
        for z in range(n):
            if all(t[z][x] == t[x][z] for x in range(n)):
                mask |= 1 << z
        return ElementSet._from_mask(self, mask)

    # -- set constructors ---------------------------------------------------

    def subset(self, elements: Iterable[int]) -> ElementSet:
        return ElementSet(self, elements)

    def subset_from_mask(self, mask: int) -> ElementSet:
        if not 0 <= mask <= self.full_mask:
            raise IndexOutOfRange(f"mask {mask:#x} has bits outside 0..{self.order - 1}")
        return ElementSet._from_mask(self, mask)

    def singleton(self, x: int) -> ElementSet:
        return ElementSet._from_mask(self, 1 << self._check_index(x))

    def empty_set(self) -> ElementSet:
        return ElementSet._from_mask(self, 0)

    def full_set(self) -> ElementSet:
        return ElementSet._from_mask(self, self.full_mask)

    def trivial_subgroup(self) -> ElementSet:
        return ElementSet._from_mask(self, 1 << self.identity)

    # -- names --------------------------------------------------------------

    def index_of_name(self, name: str) -> int | None:
        """Index for an exact canonical name, else a whitespace-insensitive
        match for parenthesized names, else None."""
        hit = self._name_to_index.get(name)
        if hit is not None:
            return hit
        if self._loose_names is None:
            # Whitespace-insensitive keys for parenthesized names; ambiguous
            # keys (possible once a cycle name holds multi-digit points) are
            # dropped.
            loose: dict[str, int] = {}
            seen_twice: set[str] = set()
            for i, s in enumerate(self.names):
                key = "".join(s.split())
                if key in loose or key in seen_twice:
                    loose.pop(key, None)
                    seen_twice.add(key)
                else:
                    loose[key] = i
            self._loose_names = loose
        return self._loose_names.get("".join(name.split()))

    def __repr__(self) -> str:
        return f"Group({self.description!r}, order={self.order})"


class ElementSet:
    """Immutable subset of one group's elements, stored as an int bitmask."""

    __slots__ = ("group", "mask")

    def __init__(self, group: Group, elements: Iterable[int]) -> None:
        mask = 0
        for x in elements:
            group._check_index(x)
            mask |= 1 << x
        self.group = group
        self.mask = mask

    @classmethod
    def _from_mask(cls, group: Group, mask: int) -> "ElementSet":
        self = cls.__new__(cls)
        self.group = group
        self.mask = mask
        return self

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[int]:
        return bit_indices(self.mask)

    def __contains__(self, x: int) -> bool:
        # a bool is no element index, as in Group._check_index
        return (
            isinstance(x, int)
            and not isinstance(x, bool)
            and 0 <= x < self.group.order
            and self.mask >> x & 1 == 1
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.group is other.group and self.mask == other.mask

    def __hash__(self) -> int:
        # __eq__ already requires the same group, so the mask alone suffices
        return hash(self.mask)

    def __repr__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"

    def shown(self) -> str:
        """repr(self) for an error message: cut to its first SHOWN characters
        when it is longer, and built from no more than SHOWN names."""
        g = self.group
        names = (g.names[i] for i in bit_indices(self.mask))
        # SHOWN names with their separators already run past SHOWN characters
        text = "{" + ", ".join(itertools.islice(names, SHOWN)) + "}"
        if len(text) <= SHOWN:
            return text
        return f"{text[:SHOWN]}... ({len(self)} elements)"

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def names(self) -> list[str]:
        """Canonical names in ascending index order."""
        g = self.group
        return [g.names[i] for i in bit_indices(self.mask)]

    # -- set algebra ----------------------------------------------------------

    def _check_same_group(self, other: "ElementSet") -> None:
        if self.group is not other.group:
            raise GroupMismatch("element sets belong to different groups")

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check_same_group(other)
        return ElementSet._from_mask(self.group, self.mask & other.mask)

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check_same_group(other)
        return ElementSet._from_mask(self.group, self.mask | other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check_same_group(other)
        return ElementSet._from_mask(self.group, self.mask & ~other.mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._check_same_group(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "ElementSet":
        return ElementSet._from_mask(self.group, self.group.full_mask & ~self.mask)

    def with_element(self, x: int) -> "ElementSet":
        return ElementSet._from_mask(self.group, self.mask | 1 << self.group._check_index(x))

    # -- group-aware operations ------------------------------------------------

    def conjugate_by(self, x: int) -> "ElementSet":
        """The set x * self * x^-1."""
        g = self.group
        g._check_index(x)
        t = g.table
        xi = g.inverse[x]
        mask = 0
        for s in bit_indices(self.mask):
            mask |= 1 << t[t[x][s]][xi]
        return ElementSet._from_mask(g, mask)

    def is_subgroup(self) -> bool:
        """True when the set holds the identity and is closed under the
        product: the subgroup it generates, grown inside it, is itself."""
        g, m = self.group, self.mask
        return m >> g.identity & 1 == 1 and g._grow(m, m) == m

    def generated_subgroup(self) -> "ElementSet":
        """The subgroup generated by this set (the trivial subgroup when the
        set is empty)."""
        g = self.group
        return ElementSet._from_mask(g, g._grow(self.mask, g.full_mask))

    def require_subgroup(self, label: str = "set") -> "ElementSet":
        if not self.is_subgroup():
            raise NotASubgroup(f"{label} {self.shown()} is not a subgroup")
        return self


# -- specs and builders ----------------------------------------------------------


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _tuples(value, depth: int):
    """value with its lists, nested up to depth >= 1 deep, turned into
    tuples; anything else is left as it is, for GroupSpec to refuse."""
    if not isinstance(value, list):
        return value
    if depth == 1:
        return tuple(value)
    return tuple(_tuples(v, depth - 1) for v in value)


@dataclass(frozen=True)
class GroupSpec:
    """Validated description of a buildable group.  Every spec is checked
    when it is made, however it is made, so the builders trust its fields."""

    kind: str
    n: int | None = None
    factors: tuple["GroupSpec", ...] | None = None
    names: tuple[str, ...] | None = None
    table: tuple[tuple[int, ...], ...] | None = None
    degree: int | None = None
    generators: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind in ("cyclic", "dihedral", "symmetric"):
            if not _is_positive_int(self.n):
                raise InvalidSpec(f"{kind} group needs a positive integer n")
        elif kind == "direct_product":
            factors = self.factors
            if not isinstance(factors, tuple) or not factors or not all(
                isinstance(f, GroupSpec) for f in factors
            ):
                raise InvalidSpec("direct_product needs a nonempty factors list")
        elif kind == "cayley":
            names, table = self.names, self.table
            if not isinstance(names, tuple) or not all(isinstance(s, str) for s in names):
                raise InvalidSpec("cayley group needs a list of string names")
            if not isinstance(table, tuple) or not all(isinstance(r, tuple) for r in table):
                raise InvalidSpec("cayley group needs a table as a list of rows")
        elif kind == "permutation":
            if not _is_positive_int(self.degree):
                raise InvalidSpec("permutation group needs a positive integer degree")
            if not isinstance(self.generators, tuple):
                raise InvalidSpec("permutation group needs a generators list")
            for gi, cycles in enumerate(self.generators):
                if not isinstance(cycles, tuple):
                    raise InvalidSpec(f"generator {gi} must be a list of cycles")
                for cycle in cycles:
                    if not isinstance(cycle, tuple) or not all(
                        isinstance(p, int) and not isinstance(p, bool) for p in cycle
                    ):
                        raise InvalidSpec(f"generator {gi} holds a malformed cycle")
        else:
            raise InvalidSpec(f"unknown group kind {quote(kind)}")

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        try:
            return cls._from_dict(data)
        except RecursionError:
            raise InvalidSpec("group spec is nested too deeply") from None

    @classmethod
    def _from_dict(cls, data: dict) -> "GroupSpec":
        if not isinstance(data, dict):
            raise InvalidSpec(f"group spec must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if kind == "direct_product":
            factors = data.get("factors")
            if isinstance(factors, list):
                factors = tuple(cls._from_dict(f) for f in factors)
            return cls(kind=kind, factors=factors)
        if kind == "cayley":
            names, table = data.get("names"), data.get("table")
            return cls(kind=kind, names=_tuples(names, 1), table=_tuples(table, 2))
        if kind == "permutation":
            gens = _tuples(data.get("generators"), 3)
            return cls(kind=kind, degree=data.get("degree"), generators=gens)
        return cls(kind=kind, n=data.get("n"))

    @classmethod
    def from_inline(cls, text: str) -> "GroupSpec":
        """Parse the compact kind:n form, e.g. 'cyclic:12'.  n is ASCII
        digits, as in element words; whitespace around it is ignored."""
        kind, sep, arg = text.partition(":")
        kind, arg = kind.strip(), arg.strip()
        if not sep or kind not in ("cyclic", "dihedral", "symmetric"):
            raise InvalidSpec(
                f"inline group {quote(text)} not understood; use kind:n with kind in "
                "cyclic/dihedral/symmetric, or give a JSON object"
            )
        if not arg.isascii() or not arg.isdigit():
            raise InvalidSpec(f"inline group {quote(text)} needs an integer parameter")
        try:
            n = int(arg)
        except ValueError:  # more digits than the interpreter converts
            raise InvalidSpec(f"inline group {quote(text)} needs an integer parameter") from None
        return cls.from_dict({"kind": kind, "n": n})


def _check_order(order: int, limit: int, what: str) -> None:
    if order > limit:
        raise SizeLimitExceeded(f"{what} has order above the limit {limit}")


def _capped_prod(values: Iterable[int], limit: int) -> int:
    """The product of positive values, or limit + 1 once it passes limit, so
    a huge spec is refused without computing its order in full."""
    out = 1
    for v in values:
        out *= v
        if out > limit:
            return limit + 1
    return out


def _least_order(spec: GroupSpec, limit: int) -> int:
    """The order spec builds, capped at limit + 1, found without building
    anything.  A permutation closure counts as 1: its order is known only
    once the closure is built, which checks the limit as it grows."""
    if spec.kind == "cyclic":
        return min(spec.n, limit + 1)
    if spec.kind == "dihedral":
        return min(2 * spec.n, limit + 1)
    if spec.kind == "symmetric":
        return _capped_prod(range(2, spec.n + 1), limit)
    if spec.kind == "direct_product":
        return _capped_prod((_least_order(f, limit) for f in spec.factors), limit)
    if spec.kind == "cayley":
        return min(len(spec.table), limit + 1)
    return 1


def _build_cyclic(n: int) -> Group:
    # Row i is the doubled 0..n-1 sliced at i.
    doubled = memoryview(array(_typecode(n), range(n)) * 2)
    cells = b"".join(doubled[i:i + n] for i in range(n))
    names = [str(i) for i in range(n)]
    inverse = [(n - i) % n for i in range(n)]
    return Group(n, cells, names, kind="cyclic", description=f"cyclic:{n}", inverse=inverse)


def _rot_name(i: int) -> str:
    return "1" if i == 0 else "a" if i == 1 else f"a^{i}"


def _refl_name(i: int) -> str:
    return "b" if i == 0 else "ba" if i == 1 else f"ba^{i}"


def _build_dihedral(n: int) -> Group:
    # order 2n; indices 0..n-1 are a^i, n..2n-1 are b*a^i, and
    # a^i a^j = a^(i+j), a^i ba^j = ba^(j-i), ba^i a^j = ba^(i+j), ba^i ba^j = a^(j-i)
    size = 2 * n
    typecode = _typecode(size)
    rot = memoryview(array(typecode, range(n)) * 2)  # rot[k] = a^(k mod n)
    refl = memoryview(array(typecode, range(n, size)) * 2)  # refl[k] = ba^(k mod n)
    halves = [(rot[i:i + n], refl[n - i:size - i]) for i in range(n)]
    halves += [(refl[i:i + n], rot[n - i:size - i]) for i in range(n)]
    cells = b"".join(itertools.chain.from_iterable(halves))
    names = [_rot_name(i) for i in range(n)] + [_refl_name(i) for i in range(n)]
    gens = {"a": 1 % n, "b": n}
    inverse = [(n - i) % n for i in range(n)] + list(range(n, size))  # reflections are involutions
    return Group(
        size,
        cells,
        names,
        kind="dihedral",
        description=f"dihedral:{n}",
        generator_names=gens,
        inverse=inverse,
    )


def _cycle_names(
    elements: Iterable[Sequence[int]], points: Sequence[int]
) -> list[str]:
    """Each permutation of elements in disjoint-cycle notation, position i
    standing for the 1-based point points[i]; '()' for the identity."""
    labels = [str(p) for p in points]
    names = []
    for perm in elements:
        parts = []
        listed = bytearray(len(perm))
        # A cycle is listed from its lowest position, the first one reached.
        for start, j in enumerate(perm):
            if j == start or listed[start]:
                continue
            cycle = [labels[start]]
            while j != start:
                cycle.append(labels[j])
                listed[j] = 1
                j = perm[j]
            parts.append("(" + " ".join(cycle) + ")")
        names.append("".join(parts) or "()")
    return names


def _permutation_cells(
    elements: Sequence[tuple[int, ...]],
    index: dict[tuple[int, ...], int],
    gens: Sequence[tuple[int, ...]],
) -> tuple[bytearray, list[int]]:
    """The table of a permutation closure on elements, elements[0] the
    identity, generated by right products of gens, and the inverse of each
    element.  Only the generator rows take dict lookups: the others follow a
    breadth-first tree from the identity, since row(p*g)[y] = p*(g*y) is
    row(p) read at the indices row(g), and inv(p*g) = g^-1 * inv(p).  Each
    row is packed into the cells, at its element's index, once its children
    are made, and its tuple dropped, so only the frontier's rows are alive."""
    n = len(elements)
    steps = []
    for g in gens:
        # row g holds g*q, that is g, then q: q read at the positions g
        row_g = list(map(index.__getitem__, map(_gather(g), elements)))
        g_inv_times = [0] * n  # g_inv_times[x] = g^-1 * x, as row_g[y] = g * y
        for y, x in enumerate(row_g):
            g_inv_times[x] = y
        steps.append((index[g], _gather(row_g), g_inv_times))
    typecode = _typecode(n)
    pack_into = struct.Struct(f"{n}{typecode}").pack_into
    row_bytes = n * array(typecode).itemsize
    cells = bytearray(n * row_bytes)
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[0] = tuple(range(n))
    seen = bytearray(n)
    seen[0] = 1
    inverse = [0] * n
    queue = [0]
    for p in queue:
        row = rows[p]
        rows[p] = None
        for g, via_g, g_inv_times in steps:
            child = row[g]
            if not seen[child]:
                seen[child] = 1
                rows[child] = via_g(row)
                inverse[child] = g_inv_times[inverse[p]]
                queue.append(child)
        pack_into(cells, p * row_bytes, *row)
    return cells, inverse


def _symmetric_cells(perms: Sequence[tuple[int, ...]]) -> bytearray:
    """The table of S_m on perms, all m! permutations of range(m) in lex
    order, so that each element's index is its lex rank.

    Row p over q holds the rank of "p, then q", which is q read at the
    positions p: the sum over k of (m-1-k)! times the number of j > k with
    q[p[j]] < q[p[k]].  Each term depends on a = p[k] and on the set S of
    the later p[j] only, so it is w(a, S) = |S|! * sum over b in S of
    [q[b] < q[a]].  Every vector over q is one int with one lane of
    8 * itemsize bits per q, lane i for perms[i], in the byte order of the
    table's buffer; no lane carries, as every partial sum is below m!.
    w(a, S) follows from the m(m-1)/2 pairwise vectors by a subset
    recurrence, and a walk in lex order over the prefixes of p adds one
    w(a, S) per prefix, so rows that share a prefix share its sum."""
    m, n = len(perms[0]), len(perms)
    size = array(_typecode(n)).itemsize
    row_bytes = n * size
    order = sys.byteorder
    # A 0/1 vector is written into the low byte of each lane of one buffer.
    lanes = bytearray(row_bytes)
    low_bytes = slice(0 if order == "little" else size - 1, None, size)
    lanes[low_bytes] = bytes([1]) * n
    ones = int.from_bytes(lanes, order)
    cols = list(zip(*perms))  # cols[a][i] = perms[i][a]
    less = [[0] * m for _ in range(m)]  # less[a][b]: lane q holds q[b] < q[a]
    for a, b in itertools.combinations(range(m), 2):
        lanes[low_bytes] = bytes(map(lt, cols[b], cols[a]))
        less[a][b] = int.from_bytes(lanes, order)
        less[b][a] = ones - less[a][b]
    weights = []  # weights[a][S] = w(a, S), S a bitmask of points without a
    for a in range(m):
        counts = [0] * (1 << m)
        w = [0] * (1 << m)
        for s in range(1, 1 << m):
            if not s >> a & 1:
                bit = s & -s
                counts[s] = counts[s ^ bit] + less[a][bit.bit_length() - 1]
                w[s] = math.factorial(s.bit_count()) * counts[s]
        weights.append(w)
    points = [list(bit_indices(s)) for s in range(1 << m)]
    cells = bytearray(n * row_bytes)
    end = 0

    def walk(total: int, rest: int) -> None:
        # rest holds the points after the prefix whose terms sum to total
        nonlocal end
        for a in points[rest]:
            later = rest ^ 1 << a
            if later & (later - 1):
                walk(total + weights[a][later], later)
            else:  # the one point left adds nothing: the row is complete
                row = total + weights[a][later]
                cells[end:end + row_bytes] = row.to_bytes(row_bytes, order)
                end += row_bytes

    walk(0, (1 << m) - 1)
    del walk  # its closure refers to walk itself: a cycle that only gc would free
    return cells


def _permutation_group(
    perms: list[tuple[int, ...]],
    points: Sequence[int],
    gens: Sequence[tuple[int, ...]],
    symbols: str,
    *,
    kind: str,
    description: str,
) -> Group:
    """The group on perms, permutations of range(m) in lex order holding the
    identity, position i standing for the point points[i], generated by
    gens, whose indices get the names in symbols.  This is where the table
    kernel is chosen: a group of m! elements is all of S_m, whose lex ranks
    _symmetric_cells sums; any other closure, and the one with no moved
    point, takes the gathers of _permutation_cells."""
    m, n = len(points), len(perms)
    index = {p: i for i, p in enumerate(perms)}
    if m and n == _capped_prod(range(2, m + 1), n):
        cells = _symmetric_cells(perms)
        inverse = [index[tuple(map(p.index, range(m)))] for p in perms]
    else:
        cells, inverse = _permutation_cells(perms, index, gens)
    generators = [index[g] for g in gens]
    return Group(
        n,
        cells,
        _cycle_names(perms, points),
        kind=kind,
        description=description,
        generator_names=dict(zip(symbols, generators)),
        generators=generators,
        inverse=inverse,
    )


def _build_symmetric(n: int) -> Group:
    """S_n on its permutations in lex order."""
    perms = list(itertools.permutations(range(n)))
    # perms[1] swaps the last two points; with the n-cycle it generates S_n.
    gens = perms[1:2] + [tuple(range(1, n)) + (0,)]
    return _permutation_group(
        perms, range(1, n + 1), gens, "", kind="symmetric", description=f"symmetric:{n}"
    )


def _product_cells(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]], typecode: str
) -> bytes:
    """The table of A x B with (x, y) at index x*|B| + y: row (x1, y1) is,
    for x2 in turn, row y1 of B shifted up by |B| times x1*x2 in A."""
    nb = len(b_rows)
    # tuples, not ranges: a gather reads a tuple's items without making ints
    shifts = [tuple(range(k * nb, (k + 1) * nb)) for k in range(len(a_rows))]
    # shifted[y][k] = row y of B plus k*|B|
    shifted = [
        [array(typecode, via_y(shift)).tobytes() for shift in shifts]
        for via_y in map(_gather, b_rows)
    ]
    return b"".join(
        itertools.chain.from_iterable(
            via_x(shifted_y) for via_x in map(_gather, a_rows) for shifted_y in shifted
        )
    )


def _build_direct_product(spec: GroupSpec, limit: int) -> Group:
    factors = [_build(f, limit) for f in spec.factors]
    order = _capped_prod((f.order for f in factors), limit)
    _check_order(order, limit, "direct product")
    # Fold the factors in pairwise, from the trivial group.
    rows: Sequence[Sequence[int]] = ((0,),)
    inverse: Sequence[int] = (0,)
    for f in factors:
        n = len(rows) * f.order
        cells = _product_cells(rows, f.table, _typecode(n))
        rows = _table_rows(memoryview(cells).cast(_typecode(n)), n)
        inverse = [a * f.order + b for a in inverse for b in f.inverse]
    names = [
        "(" + ",".join(parts) + ")" for parts in itertools.product(*(f.names for f in factors))
    ]
    desc = "x".join(f.description for f in factors)
    return Group(
        order, cells, names, kind="direct_product", description=desc, inverse=inverse
    )


def _perm_from_cycles(
    cycles: Sequence[Sequence[int]], position: dict[int, int]
) -> tuple[int, ...]:
    """The product of the cycles, applied left to right, as a permutation of
    the positions of the points.  Each cycle moves only the positions that
    the product so far sends onto its points, found through the inverse."""
    perm = list(range(len(position)))
    inverse = list(perm)
    for cycle in cycles:
        points = [position[p] for p in cycle]
        sources = [inverse[p] for p in points]
        for source, q in zip(sources, points[1:] + points[:1]):
            perm[source] = q
            inverse[q] = source
    return tuple(perm)


_GEN_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


def _build_permutation(spec: GroupSpec, limit: int) -> Group:
    """The closure of spec's generators on the points they move, its
    elements numbered in lex order of their images on those points, as
    symmetric:n numbers S_n, so that the numbering does not depend on the
    generators listed; _permutation_group picks the table kernel."""
    degree = spec.degree
    generators = spec.generators
    for cycles in generators:
        for cycle in cycles:
            if len(cycle) != len(set(cycle)):
                raise InvalidSpec(f"cycle {list(cycle)} repeats a point")
            for p in cycle:
                if not 1 <= p <= degree:
                    raise InvalidSpec(f"cycle point {p} outside 1..{degree}")
    # Every other point is fixed by the whole group, so the closure runs on
    # the points the generators name: its cost does not grow with degree.
    points = sorted({p for cycles in generators for cycle in cycles for p in cycle})
    position = {p: i for i, p in enumerate(points)}
    gens = [_perm_from_cycles(cycles, position) for cycles in generators]
    identity = tuple(range(len(points)))
    elements = [identity]
    found = {identity}
    # Iterating the growing list visits the elements breadth first; p, then
    # q, is q read at the positions p.
    for p in elements:
        for r in map(_gather(p), gens):
            if r not in found:
                if len(elements) >= limit:
                    raise SizeLimitExceeded(
                        f"permutation closure exceeds the order limit {limit}"
                    )
                found.add(r)
                elements.append(r)
    elements.sort()
    return _permutation_group(
        elements,
        points,
        gens,
        _GEN_SYMBOLS,
        kind="permutation",
        description=f"permutation:deg{degree}",
    )


def _build_cayley(table: Sequence[Sequence[int]], names: Sequence[str]) -> Group:
    n = len(table)
    if n == 0:
        raise InvalidSpec("a group needs at least one element")
    if len(names) != n:
        raise InvalidSpec(f"{n} table rows but {len(names)} names")
    typecode = _typecode(n)
    below = bytes(range(n)) if typecode == "B" else b""
    cells = b"".join(_table_row(i, row, n, typecode, below) for i, row in enumerate(table))
    return Group(n, cells, names, kind="cayley", description="cayley")


def _build(spec: GroupSpec, limit: int) -> Group:
    what = "direct product" if spec.kind == "direct_product" else f"{spec.kind} group"
    _check_order(_least_order(spec, limit), limit, what)
    if spec.kind == "cyclic":
        return _build_cyclic(spec.n)
    if spec.kind == "dihedral":
        return _build_dihedral(spec.n)
    if spec.kind == "symmetric":
        return _build_symmetric(spec.n)
    if spec.kind == "direct_product":
        return _build_direct_product(spec, limit)
    if spec.kind == "cayley":
        return _build_cayley(spec.table, spec.names)
    return _build_permutation(spec, limit)


def build_group(spec: GroupSpec | dict) -> Group:
    """Build a group from a GroupSpec or its dict form, refusing one whose
    order passes GROUPKIT_MAX_ORDER."""
    if isinstance(spec, dict):
        spec = GroupSpec.from_dict(spec)
    elif not isinstance(spec, GroupSpec):
        raise InvalidSpec(f"build_group needs a GroupSpec or a dict, got {type(spec).__name__}")
    try:
        return _build(spec, config.max_order())
    except RecursionError:
        raise InvalidSpec("group spec is nested too deeply") from None
