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
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import itemgetter, lt, sub

from . import config
from .errors import (
    SHOWN,
    GroupMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NotAGroup,
    NotASubgroup,
    SizeLimitExceeded,
    cut,
    quote,
)

__all__ = [
    "Group",
    "ElementSet",
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


def _table_row(i: int, row: Sequence, n: int, typecode: str, below: bytes) -> bytes | array:
    """Row i of a caller's table, a list or tuple, packed: bytes for one-byte
    cells, else an array of typecode.  A malformed row fails with the
    message of a cell-by-cell check: its length, else its first cell that
    is not an int (bools excluded) in 0..n-1.  The type gate runs first,
    since bytes() and array() also take a bool, or any object with
    __index__.  For one-byte cells, below is bytes(range(n)): deleting
    those bytes from the row's leaves nothing exactly when every cell is
    below n.  A row of plain ints, the usual case, passes the gate on one
    C-level count; only other rows build the set of their cell types."""
    if len(row) != n:
        raise InvalidSpec(f"table row {i} has length {len(row)}, expected {n}")
    types = list(map(type, row))
    if types.count(int) == n or all(issubclass(t, int) and t is not bool for t in set(types)):
        try:
            cells = bytes(row) if below else array(typecode, row)
        except (ValueError, OverflowError):  # a negative or too wide cell; reported below
            pass
        else:
            if below:
                in_range = not cells.translate(None, below)
            else:
                in_range = max(row) < n
            if in_range:
                return cells
    bad = next(v for v in row if not _is_int(v) or not 0 <= v < n)
    raise InvalidSpec(f"table row {i} holds {quote(bad)}, expected 0..{n - 1}")


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
# The shortest run of row s that an in-place pass made of runs of one width
# compares as one 2-D view per side over a whole block, not one strided
# column per cell.  Measured on a 2-CPU Xeon, Python 3.11.7, over blocks of
# 364 rows: a run of 24 cells costs 1.05 ns a cell as a view and 3.31 ns as
# columns; at 8 cells the two are even, 3.57 and 3.53 ns; below 8 the
# columns win.
_LIGHT_RUN_VIEW_CELLS = 8


def _run_differs(
    left: memoryview, at_left: int, right: memoryview, at_right: int,
    rows: int, step: int, width: int,
) -> bool:
    """Whether one run of row s reads differently on the two sides of a
    block of rows: left and right are byte views of the sides, at_left and
    at_right the run's first byte in the block's first row, and the run's
    width bytes recur every step * width bytes, once a row.  Each side is
    cast to rows of width bytes, every step-th of which is the run in one
    row of the block, and compared as bytes."""
    shape = [(rows - 1) * step + 1, width]
    span = shape[0] * width
    return (
        left[at_left:at_left + span].cast("B", shape)[::step].tobytes()
        != right[at_right:at_right + span].cast("B", shape)[::step].tobytes()
    )


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
    flat: memoryview,
    n: int,
    identity: int | None,
    generators: Sequence[int] = (),
    inverse: list[int] | None = None,
) -> tuple[int, int, int] | None:
    """Light's associativity test on the row-major n*n table flat: a triple
    (x, s, y) with (x*s)*y != x*(s*y), or None when the table is associative.

    Each pass checks one s against every x and y, taking the first of
    generators not yet reached, then the lowest s not yet reached, as a
    left-bracketed product of those that passed.  On any magma the elements
    that pass are closed under the product, so the table is associative once
    all are reached, whichever unreached s each pass takes.  A given two-sided
    identity passes trivially and is reached without a pass.

    Given the identity, the test also finds every inverse, into inverse when
    given.  Before its pass, s must have a two-sided inverse: j, the first
    cell of row s that holds the identity, with j*s the identity too; else
    NotAGroup names s.  The axioms are thus checked s by s, in pass order: s's
    inverse, then associativity at s.  Each element that the closure reaches
    as r*g, r reached and g passed, gets the inverse g^-1 * r^-1, one read of
    flat.  That is exact: x = s^-1, then y = s^-1, in (x*s)*y = x*(s*y) show
    that every s that passes has injective row and column maps, so the
    reached set is a finite cancellative monoid, that is a subgroup, which
    holds r^-1 and g^-1.  By Lagrange each newly passed s at least doubles
    it, so at most floor(log2 n) + 1 passes run.  Given no identity, no
    inverse is checked and the bound need not hold, but the triple or None
    is still exact on any magma.

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
    long compares in place and builds no right side, nor the plan of its
    copies.  If row s is runs of one width L of at least
    _LIGHT_RUN_VIEW_CELLS (S_m's first seed, the (0,b) row of a direct
    product with a dihedral factor), each run is compared over the whole
    block at once: on each side a byte view from the run's first cell is
    cast to rows of L cells, every (n/L)-th of which is the run in one row
    of the block, and the two are compared as bytes.  Any other such row
    (a relabeled table, S_m's second seed) compares column y of the right
    side, column row_s[y] of the block's rows in flat, with column y of the
    left side by one strided compare, which copies nothing.  Only a block
    where a run or a column differs is built as above, so that the returned
    triple is still the first failure in row-major order.  Closing the
    reached set reads each passed s's column once, as a list.
    """
    block = min(n, _LIGHT_BLOCK_CELLS // n)
    size = flat.itemsize
    flat_bytes = flat.cast("B")
    lhs = rhs = None  # made by the first block that needs each
    inv = [0] * n if inverse is None else inverse
    passed: list[tuple[int, list[int]]] = []  # each g that passed, with its column x*g over x
    reached: list[int] = []
    seen = bytearray(n)
    if identity is not None:
        seen[identity] = 1
        reached.append(identity)
        inv[identity] = identity
    while len(reached) < n:
        s = next((g for g in generators if not seen[g]), None)
        if s is None:
            s = seen.index(0)
        row_s = flat[s * n:(s + 1) * n].tolist()
        col_s = flat[s::n].tolist()
        if identity is not None:
            try:
                j = row_s.index(identity)
            except ValueError:
                raise NotAGroup(f"element {s} has no two-sided inverse") from None
            if col_s[j] != identity:
                raise NotAGroup(f"element {s} has a right inverse {j} that is not a left inverse")
            inv[s] = j
        starts = [0] + [y for y in range(1, n) if row_s[y] != row_s[y - 1] + 1]
        lengths = list(map(sub, starts[1:] + [n], starts))
        in_place = max(lengths) < _LIGHT_RUN_CELLS
        width = lengths[0]
        runs = None  # per run of row s, its first byte in row x and in row x*s
        if in_place and width >= _LIGHT_RUN_VIEW_CELLS and lengths.count(width) == len(lengths):
            runs = [(y0 * size, row_s[y0] * size) for y0 in starts]
            step, run_bytes = n // width, width * size
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
                if lhs is None:
                    lhs = memoryview(bytearray(block * n * size)).cast(flat.format)
                for a, b in zip(cuts, cuts[1:] + [x1]):
                    src = col_s[a] * n
                    lhs[(a - x0) * n:(b - x0) * n] = flat[src:src + (b - a) * n]
                left = lhs[:cells]
            # With no long run, each run of row s, else each column y, of
            # the right side is compared where it lies, at row_s[y] in the
            # block's rows: a strided compare copies nothing, a strided copy
            # goes through a temporary buffer.  Only a block that differs
            # builds its right side, below.
            if runs is not None:
                left_bytes, rows, at = left.cast("B"), x1 - x0, base * size
                if not any(
                    _run_differs(left_bytes, y0, flat_bytes, at + p0, rows, step, run_bytes)
                    for y0, p0 in runs
                ):
                    continue
            elif in_place and not any(
                left[y::n] != flat[base + sy:base + cells:n] for y, sy in enumerate(row_s)
            ):
                continue
            if plan is None:
                plan = _light_copy_plan(row_s, starts, lengths)
            if rhs is None:
                rhs = memoryview(bytearray(block * n * size)).cast(flat.format)
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
        passed.append((s, col_s))
        seen[s] = 1
        reached.append(s)
        # Iterating the growing list closes it under right products.
        for r in reached:
            for g, col in passed:
                c = col[r]
                if not seen[c]:
                    seen[c] = 1
                    reached.append(c)
                    inv[c] = flat[inv[g] * n + inv[r]]
    return None


class Group:
    """A finite group on 0..order-1 given by its multiplication table.

    table[x][y] is the product x*y.  Each row is a read-only memoryview over
    one shared buffer, cast to the smallest unsigned typecode that holds the
    order ('B' up to order 256, 'H' up to 65536), so the table is immutable
    and costs one or two bytes per cell.  Every builder behind build_group
    ends in the one constructor, with the row-major table as n*n cells of
    typecode _typecode(n), and as generators indices that generate the group,
    which seed Light's test (the spec's generators, but for all of S_m the
    swap of its first two points, whose row has long runs, and the cycle of
    the others).  No builder hands over inverses: Light's test finds them.
    The cells are bytes, or for cayley tables, S_m and permutation closures
    the bytearray they were made in, kept without a copy: every view of them
    is read-only, _flat() too.  However a builder makes the cells (packed
    rows, slices, lex-rank sums for all of S_m, gathers for other permutation
    closures), the constructor checks every table alike.  It first refuses,
    with InvalidSpec, arguments of the wrong type (an order that is no
    positive int, cells that are not bytes or a bytearray, names or
    generators that are not a list or tuple, generator_names that is not a
    dict, a kind, description or name that is not a str) and arguments that
    do not fit n: other than n names, other than n*n cells, a generator that
    is no element index, or generator_names that maps anything but a single
    letter to an element index.  Only then does it read the table, and it
    validates the group axioms exactly, at every order: distinct names, a
    two-sided identity, then Light's test, which checks each s it passes for
    a two-sided inverse and then for associativity, and finds the inverses,
    as _light_failure describes.
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
    ) -> None:
        if not _is_int(n) or n < 1:
            raise InvalidSpec(f"a group's order must be a positive integer, not {quote(n)}")
        if not isinstance(cells, (bytes, bytearray)):
            raise InvalidSpec(
                f"a table's cells must be bytes or a bytearray, not {type(cells).__name__}"
            )
        for what, value in (("element names", names), ("generators", generators)):
            if not isinstance(value, _ARRAY):
                raise InvalidSpec(f"{what} must be a list or tuple, not {type(value).__name__}")
        if not isinstance(generator_names, (dict, type(None))):
            raise InvalidSpec(
                f"generator names must be a dict, not {type(generator_names).__name__}"
            )
        for value in (kind, description, *names):
            if not isinstance(value, str):
                raise InvalidSpec(f"kind, description and names must be str, not {quote(value)}")
        self.order = n
        typecode = _typecode(n)
        if len(names) != n:
            raise InvalidSpec(f"order {n} needs {n} element names, got {len(names)}")
        raw, size = memoryview(cells), n * n * array(typecode).itemsize
        if raw.nbytes != size:
            raise InvalidSpec(f"a table of order {n} takes {size} bytes, not {raw.nbytes}")
        for x in generators:
            if not self._is_index(x):
                raise InvalidSpec(f"generator {quote(x)} is not an element index in 0..{n - 1}")
        gen = dict(generator_names or {})
        for sym, idx in gen.items():
            if not isinstance(sym, str) or len(sym) != 1 or not sym.isalpha():
                raise InvalidSpec(f"generator symbol {quote(sym)} must be a single letter")
            if not self._is_index(idx):
                raise InvalidSpec(f"generator {quote(sym)} maps to invalid index {quote(idx)}")
        self.generator_names = gen
        flat = raw.cast(typecode).toreadonly()
        self.table = _table_rows(flat, n)
        self.names = tuple(names)
        if len(set(self.names)) != n:
            raise InvalidSpec("element names must be pairwise distinct")
        self.kind = kind
        self.description = description
        self.full_mask = (1 << n) - 1

        self.identity = self._find_identity(flat)
        inverse = [0] * n
        if failure := _light_failure(flat, n, self.identity, generators, inverse):
            raise NotAGroup("associativity fails at i={}, j={}, k={}".format(*failure))
        self.inverse = tuple(inverse)

        self._name_to_index = {s: i for i, s in enumerate(self.names)}
        self._loose_names: dict[str, int] | None = None  # made on the first miss

    # -- validation -------------------------------------------------------
    # The identity is found by comparing whole rows and columns of the flat
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

    # -- arithmetic -------------------------------------------------------

    def _is_index(self, x: object) -> bool:
        """Whether x is an element index: an int, not a bool, in 0..order-1."""
        return _is_int(x) and 0 <= x < self.order

    def _check_index(self, x: int) -> int:
        if not self._is_index(x):
            raise IndexOutOfRange(f"element index {quote(x)} not in 0..{self.order - 1}")
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
        if not _is_int(k):
            raise InvalidSpec(f"exponent {quote(k)} is not an integer")
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
        if not _is_int(mask):
            raise IndexOutOfRange(f"mask {quote(mask)} is not an integer")
        if not 0 <= mask <= self.full_mask:
            raise IndexOutOfRange(f"mask {cut(f'{mask:#x}')} has bits outside 0..{self.order - 1}")
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
        self.group = group
        self.mask = _mask_of(map(group._check_index, elements))

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
        return self.group._is_index(x) and self.mask >> x & 1 == 1

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

    # -- group-aware operations ------------------------------------------------

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


def _is_int(value: object) -> bool:
    """Whether value is an int, a bool excepted: True is no count or index."""
    return isinstance(value, int) and not isinstance(value, bool)


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


_ARRAY = (list, tuple)  # what a spec's JSON array may be


def _spec_order(spec: object, limit: int) -> tuple[int, Callable[[], Group]]:
    """Check the whole spec tree, a JSON object as a dict whose arrays may
    be lists or tuples, and return the order it builds, capped at limit + 1,
    found without building or copying anything, with a no-argument callable
    that builds it.  Faults are reported in the order of the tree: factors,
    generators and cycles in turn.  A permutation closure counts as 1: its
    order is known only once the closure is built, which checks the limit as
    it grows.  A cayley table's cells are left to its builder, which checks
    them as it packs them."""
    if not isinstance(spec, dict):
        raise InvalidSpec(f"group spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind in ("cyclic", "dihedral", "symmetric"):
        n = spec.get("n")
        if not _is_int(n) or n < 1:
            raise InvalidSpec(f"{kind} group needs a positive integer n")
        if kind == "cyclic":
            return min(n, limit + 1), lambda: _build_cyclic(n)
        if kind == "dihedral":
            return min(2 * n, limit + 1), lambda: _build_dihedral(n)
        return _capped_prod(range(2, n + 1), limit), lambda: _build_symmetric(n)
    if kind == "direct_product":
        factors = spec.get("factors")
        if not isinstance(factors, _ARRAY) or not factors:
            raise InvalidSpec("direct_product needs a nonempty factors list")
        # Every factor is checked, also past one that passes the limit.
        orders, builds = zip(*[_spec_order(f, limit) for f in factors])
        return _capped_prod(orders, limit), lambda: _build_direct_product(builds, limit)
    if kind == "cayley":
        names, table = spec.get("names"), spec.get("table")
        if not isinstance(names, _ARRAY) or not all(isinstance(s, str) for s in names):
            raise InvalidSpec("cayley group needs a list of string names")
        if not isinstance(table, _ARRAY) or not all(isinstance(r, _ARRAY) for r in table):
            raise InvalidSpec("cayley group needs a table as a list of rows")
        if not table:
            raise InvalidSpec("a group needs at least one element")
        if len(names) != len(table):
            raise InvalidSpec(f"{len(table)} table rows but {len(names)} names")
        return min(len(table), limit + 1), lambda: _build_cayley(table, names)
    if kind == "permutation":
        degree, generators = spec.get("degree"), spec.get("generators")
        if not _is_int(degree) or degree < 1:
            raise InvalidSpec("permutation group needs a positive integer degree")
        try:
            str(degree)  # the group's description shows it
        except ValueError:
            raise InvalidSpec(f"permutation degree too big to print: {quote(degree)}") from None
        if not isinstance(generators, _ARRAY):
            raise InvalidSpec("permutation group needs a generators list")
        for gi, cycles in enumerate(generators):
            if not isinstance(cycles, _ARRAY):
                raise InvalidSpec(f"generator {gi} must be a list of cycles")
            for cycle in cycles:
                if not isinstance(cycle, _ARRAY) or not all(map(_is_int, cycle)):
                    raise InvalidSpec(f"generator {gi} holds a malformed cycle")
                if len(cycle) != len(set(cycle)):
                    raise InvalidSpec(f"cycle {quote(list(cycle))} repeats a point")
                bad = [p for p in cycle if not 1 <= p <= degree]
                if bad:
                    raise InvalidSpec(f"cycle point {quote(bad[0])} outside 1..{quote(degree)}")
        return 1, lambda: _build_permutation(degree, generators, limit)
    raise InvalidSpec(f"unknown group kind {quote(kind)}")


def _build_cyclic(n: int) -> Group:
    # Row i is the doubled 0..n-1 sliced at i.
    doubled = memoryview(array(_typecode(n), range(n)) * 2)
    cells = b"".join(doubled[i:i + n] for i in range(n))
    names = [str(i) for i in range(n)]
    return Group(n, cells, names, kind="cyclic", description=f"cyclic:{n}")


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
    return Group(
        size, cells, names, kind="dihedral", description=f"dihedral:{n}", generator_names=gens
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
) -> bytearray:
    """The table of a permutation closure on elements, elements[0] the
    identity, generated by right products of gens.  Only the generator rows
    take dict lookups: the others follow a breadth-first tree from the
    identity, since row(p*g)[y] = p*(g*y) is row(p) read at the indices
    row(g).  Each row is packed into the cells, at its element's index, once
    its children are made, and its tuple dropped, so only the frontier's
    rows are alive."""
    n = len(elements)
    steps = []
    for g in gens:
        # row g holds g*q, that is g, then q: q read at the positions g
        row_g = list(map(index.__getitem__, map(_gather(g), elements)))
        steps.append((index[g], _gather(row_g)))
    typecode = _typecode(n)
    pack_into = struct.Struct(f"{n}{typecode}").pack_into
    row_bytes = n * array(typecode).itemsize
    cells = bytearray(n * row_bytes)
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[0] = tuple(range(n))
    seen = bytearray(n)
    seen[0] = 1
    queue = [0]
    for p in queue:
        row = rows[p]
        rows[p] = None
        for g, via_g in steps:
            child = row[g]
            if not seen[child]:
                seen[child] = 1
                rows[child] = via_g(row)
                queue.append(child)
        pack_into(cells, p * row_bytes, *row)
    return cells


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
    _symmetric_cells sums and which seeds Light's test with generators of its
    own, so that gens may be empty; any other closure, and the one with no
    moved point, takes the gathers of _permutation_cells."""
    m, n = len(points), len(perms)
    index = {p: i for i, p in enumerate(perms)}
    generators = [index[g] for g in gens]
    seeds = generators
    if m and n == _capped_prod(range(2, m + 1), n):
        cells = _symmetric_cells(perms)
        if m >= 3:
            # Light's test is seeded with the swap of the first two points,
            # whose row is runs of (m-2)! cells, and the cycle of the other
            # m-1 points, which together generate S_m.
            rest = tuple(range(2, m))
            seeds = [index[(1, 0) + rest], index[(0,) + rest + (1,)]]
    else:
        cells = _permutation_cells(perms, index, gens)
    return Group(
        n,
        cells,
        _cycle_names(perms, points),
        kind=kind,
        description=description,
        generator_names=dict(zip(symbols, generators)),
        generators=seeds,
    )


def _build_symmetric(n: int) -> Group:
    """S_n on its permutations in lex order."""
    perms = list(itertools.permutations(range(n)))
    # _permutation_group picks the seeds of Light's test for all of S_n.
    return _permutation_group(
        perms, range(1, n + 1), (), "", kind="symmetric", description=f"symmetric:{n}"
    )


def _product_cells(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[memoryview], typecode: str
) -> bytes:
    """The table of A x B with (x, y) at index x*|B| + y: row (x1, y1) is,
    for x2 in turn, row y1 of B shifted up by |B| times x1*x2 in A.  Each
    row of B is read once as one int with one lane per cell, of typecode's
    width, in the byte order of the table's buffer, as _symmetric_cells
    reads its vectors; B's own narrower cells fill the low bytes of their
    lanes.  A shifted copy is then that int plus k*|B| in every lane, made
    bytes: no lane carries, as every cell is below |A|*|B|."""
    nb = len(b_rows)
    size = array(typecode).itemsize
    row_bytes = nb * size
    order = sys.byteorder
    ones = int.from_bytes((1).to_bytes(size, order) * nb, order)
    lanes = bytearray(row_bytes)
    b_ints = []
    for row in b_rows:
        width = row.itemsize
        low = 0 if order == "little" else size - width
        raw = row.cast("B")
        for j in range(width):
            lanes[low + j::size] = raw[j::width]
        b_ints.append(int.from_bytes(lanes, order))
    shifts = [k * nb * ones for k in range(len(a_rows))]
    # shifted[y][k] = row y of B plus k*|B|
    shifted = [[(r + s).to_bytes(row_bytes, order) for s in shifts] for r in b_ints]
    return b"".join(
        itertools.chain.from_iterable(
            via_x(shifted_y) for via_x in map(_gather, a_rows) for shifted_y in shifted
        )
    )


def _build_direct_product(builds: Sequence[Callable[[], Group]], limit: int) -> Group:
    factors = [build() for build in builds]
    # A permutation factor's order is known only now that it is built.
    order = _capped_prod((f.order for f in factors), limit)
    _check_order(order, limit, "direct product")
    # Fold the factors in pairwise, from the trivial group.
    rows: Sequence[Sequence[int]] = ((0,),)
    for f in factors:
        n = len(rows) * f.order
        cells = _product_cells(rows, f.table, _typecode(n))
        rows = _table_rows(memoryview(cells).cast(_typecode(n)), n)
    names = [
        "(" + ",".join(parts) + ")" for parts in itertools.product(*(f.names for f in factors))
    ]
    desc = "x".join(f.description for f in factors)
    return Group(order, cells, names, kind="direct_product", description=desc)


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


def _build_permutation(degree: int, generators: Sequence, limit: int) -> Group:
    """The closure of generators, lists of cycles, on the points they move,
    its elements numbered in lex order of their images on those points, as
    symmetric:n numbers S_n, so that the numbering does not depend on the
    generators listed; _permutation_group picks the table kernel.  The
    closure grows by left products, "g, then p" for each generator g, which
    is p read at the positions g: one gather made per generator, not one
    per element, and the same set as right products reach."""
    # Every other point is fixed by the whole group, so the closure runs on
    # the points the generators name: its cost does not grow with degree.
    points = sorted({p for cycles in generators for cycle in cycles for p in cycle})
    position = {p: i for i, p in enumerate(points)}
    gens = [_perm_from_cycles(cycles, position) for cycles in generators]
    identity = tuple(range(len(points)))
    elements = [identity]
    found = {identity}
    # Iterating the growing list visits the elements breadth first.
    lefts = [_gather(g) for g in gens]
    for p in elements:
        for left in lefts:
            r = left(p)
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
    typecode = _typecode(n)
    below = bytes(range(n)) if typecode == "B" else b""
    width = n * array(typecode).itemsize
    cells = bytearray(n * width)
    for i, row in enumerate(table):
        cells[i * width:(i + 1) * width] = _table_row(i, row, n, typecode, below)
    return Group(n, cells, names, kind="cayley", description="cayley")


def build_group(spec: dict) -> Group:
    """Build a group from its spec, the JSON object as a dict.  The whole
    spec is checked before anything is built, and one whose order passes
    GROUPKIT_MAX_ORDER is refused."""
    limit = config.max_order()
    try:
        order, build = _spec_order(spec, limit)
        kind = spec["kind"]
        what = "direct product" if kind == "direct_product" else f"{kind} group"
        _check_order(order, limit, what)
        return build()
    except RecursionError:
        raise InvalidSpec("group spec is nested too deeply") from None
