"""Concrete finite groups with full multiplication tables.

Elements are the indices 0..order-1.  A Group owns an immutable table,
canonical element names, and optional single-letter generator names used by
the word parser.  Subsets of a group are ElementSet values backed by int
bitmasks, which keeps the set algebra in this package cheap.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import config
from .errors import (
    GroupMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NotAGroup,
    NotASubgroup,
    SizeLimitExceeded,
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


def _typecode(n: int) -> str:
    """The smallest unsigned array typecode that holds 0..n-1."""
    return next(tc for tc in "BHIL" if n <= 1 << 8 * array(tc).itemsize)


def _table_rows(flat: memoryview, n: int) -> tuple[memoryview, ...]:
    """Read-only row views over a row-major n*n table's flat view."""
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def _table_row(i: int, row: Sequence[int], n: int, typecode: str) -> array:
    """Row i of a caller's table as an array of typecode.  A malformed row
    fails with the message of a cell-by-cell check: its length, else its
    first cell that is not an int (bools excluded) in 0..n-1."""
    row = tuple(row)
    if len(row) != n:
        raise InvalidSpec(f"table row {i} has length {len(row)}, expected {n}")
    if all(issubclass(t, int) and t is not bool for t in set(map(type, row))):
        try:
            cells = array(typecode, row)
        except OverflowError:  # a negative or too wide cell; reported below
            pass
        else:
            if max(row) < n:
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
    itemgetter of one index would return the item, not a 1-tuple."""
    if len(indices) == 1:
        (only,) = indices
        return lambda seq: (seq[only],)
    return itemgetter(*indices)


# Cells in each block of rows that a pass of Light's test fills and compares at
# once.  At the order cap 2**16 doubles a pass, and 2**20 is no faster.
_LIGHT_BLOCK_CELLS = 1 << 18
# The shortest run of row s that a pass copies row by row; a shorter run is
# copied one strided column at a time.  Short runs are cheaper as columns: S6
# checked at s = 1, 2, 6, 24, 120 takes 0.16 s at 2 and 0.02-0.04 s at 16-64.
# Tables with long runs are alike from 2 to 64.
_LIGHT_RUN_CELLS = 32


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

    A pass runs over blocks of rows x with no lookup per cell: the left side
    of row x is row x*s, and the right side, x*(s*y) over y, is row x with its
    columns permuted by row s.  A run y0..y0+L-1 of row s, where
    row_s[y0+i] = p0+i, is the slice p0..p0+L-1 of row x, so a run of at least
    _LIGHT_RUN_CELLS is copied row by row and a shorter one column by column.
    """
    block = min(n, _LIGHT_BLOCK_CELLS // n)
    lhs = memoryview(bytearray(block * n * flat.itemsize)).cast(flat.format)
    rhs = memoryview(bytearray(block * n * flat.itemsize)).cast(flat.format)
    gens: list[int] = []
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
        runs: list[tuple[int, int, int]] = []  # (y0, p0, L), copied row by row
        columns: list[tuple[int, int]] = []  # (y, row_s[y]), copied strided
        for y0, y1 in zip(starts, starts[1:] + [n]):
            if y1 - y0 >= _LIGHT_RUN_CELLS:
                runs.append((y0, row_s[y0], y1 - y0))
            else:
                columns += zip(range(y0, y1), row_s[y0:y1])
        for x0 in range(0, n, block):
            cells = min(block, n - x0) * n
            for i, xs in enumerate(col_s[x0:x0 + block]):
                lhs[i * n:(i + 1) * n] = flat[xs * n:(xs + 1) * n]
            for y0, p0, length in runs:
                for row in range(0, cells, n):
                    src = x0 * n + row + p0
                    rhs[row + y0:row + y0 + length] = flat[src:src + length]
            for y, sy in columns:
                rhs[y:cells:n] = flat[x0 * n + sy:x0 * n + cells:n]
            # The buffers agree whenever a block starts (zeroed, or the last
            # block passed), so comparing them whole covers a short last block.
            if lhs.obj != rhs.obj:
                k = next(k for k in range(0, cells, n) if lhs[k:k + n] != rhs[k:k + n])
                y = next(y for y in range(n) if lhs[k + y] != rhs[k + y])
                return x0 + k // n, s, y
        gens.append(s)
        seen[s] = 1
        reached.append(s)
        # Iterating the growing list closes it under right products.
        for r in reached:
            for g in gens:
                c = flat[r * n + g]
                if not seen[c]:
                    seen[c] = 1
                    reached.append(c)
    return None


class Group:
    """A finite group on 0..order-1 given by its multiplication table.

    table[x][y] is the product x*y.  Each row is a read-only memoryview over
    one shared bytes buffer, cast to the smallest unsigned typecode that holds
    the order ('B' up to order 256, 'H' up to 65536), so the table is
    immutable and costs one or two bytes per cell.  Every builder behind
    build_group ends in the one constructor, with the row-major table as n*n
    cells of typecode _typecode(n), the indices it was generated from as
    generators and, except for cayley tables, the inverse of each element as
    inverse.  It validates the group axioms exactly, at every order:
    distinct names, a two-sided identity, two-sided inverses (the supplied
    ones checked, else searched for row by row), then associativity by
    Light's test (_light_failure), at most floor(log2 n) + 1 passes of n*n
    cells.  Each pass checks one s, taken from generators, then
    the lowest unreached element, and fills its rows by the runs of row s.
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
        "_abelian",
    )

    def __init__(
        self,
        n: int,
        cells: bytes,
        names: Sequence[str],
        *,
        kind: str,
        description: str,
        generator_names: dict[str, int] | None = None,
        generators: Sequence[int] = (),
        inverse: Sequence[int] | None = None,
    ) -> None:
        self.order = n
        flat = memoryview(cells).cast(_typecode(n))
        self.table = _table_rows(flat, n)
        self.names = tuple(str(s) for s in names)
        if len(set(self.names)) != n:
            raise InvalidSpec("element names must be pairwise distinct")
        self.kind = kind
        self.description = description
        self.full_mask = (1 << n) - 1
        self._abelian: bool | None = None

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
        # Whitespace-insensitive fallback for parenthesized names; ambiguous
        # keys (possible once a cycle name holds multi-digit points) are dropped.
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
        cells: bytes = flat.obj  # the buffer the table views
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

    def conjugate(self, x: int, by: int) -> int:
        """by * x * by^-1."""
        t = self.table
        return t[t[self._check_index(by)][self._check_index(x)]][self.inverse[by]]

    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            n = self.order
            self._abelian = all(
                t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n)
            )
        return self._abelian

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

    def name_of(self, x: int) -> str:
        return self.names[self._check_index(x)]

    def index_of_name(self, name: str) -> int | None:
        """Index for an exact canonical name, else a whitespace-insensitive
        match for parenthesized names, else None."""
        hit = self._name_to_index.get(name)
        if hit is not None:
            return hit
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
        return isinstance(x, int) and 0 <= x < self.group.order and self.mask >> x & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.group is other.group and self.mask == other.mask

    def __hash__(self) -> int:
        # __eq__ already requires the same group, so the mask alone suffices
        return hash(self.mask)

    def __repr__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"

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

    def issubset(self, other: "ElementSet") -> bool:
        return self <= other

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
        """True when the set is nonempty and closed under the product."""
        g = self.group
        m = self.mask
        if m == 0 or m >> g.identity & 1 == 0:
            return False
        t = g.table
        members = list(bit_indices(m))
        return all(m >> t[x][y] & 1 for x in members for y in members)

    def generated_subgroup(self) -> "ElementSet":
        """Closure of this set under multiplication (the trivial subgroup
        when the set is empty)."""
        g = self.group
        t = g.table
        mask = 1 << g.identity
        frontier = [g.identity]
        gens = list(bit_indices(self.mask))
        for x in gens:
            if mask >> x & 1 == 0:
                mask |= 1 << x
                frontier.append(x)
        while frontier:
            x = frontier.pop()
            for y in gens:
                for z in (t[x][y], t[y][x]):
                    if mask >> z & 1 == 0:
                        mask |= 1 << z
                        frontier.append(z)
        return ElementSet._from_mask(g, mask)

    def require_subgroup(self, label: str = "set") -> "ElementSet":
        if not self.is_subgroup():
            raise NotASubgroup(f"{label} {self!r} is not a subgroup")
        return self


# -- specs and builders ----------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """Validated description of a buildable group."""

    kind: str
    n: int | None = None
    factors: tuple["GroupSpec", ...] | None = None
    names: tuple[str, ...] | None = None
    table: tuple[tuple[int, ...], ...] | None = None
    degree: int | None = None
    generators: tuple[tuple[tuple[int, ...], ...], ...] | None = None

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
        if kind in ("cyclic", "dihedral", "symmetric"):
            n = data.get("n")
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InvalidSpec(f"{kind} group needs a positive integer n")
            return cls(kind=kind, n=n)
        if kind == "direct_product":
            factors = data.get("factors")
            if not isinstance(factors, list) or not factors:
                raise InvalidSpec("direct_product needs a nonempty factors list")
            return cls(kind=kind, factors=tuple(cls._from_dict(f) for f in factors))
        if kind == "cayley":
            names = data.get("names")
            table = data.get("table")
            if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
                raise InvalidSpec("cayley group needs a list of string names")
            if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
                raise InvalidSpec("cayley group needs a table as a list of rows")
            return cls(
                kind=kind,
                names=tuple(names),
                table=tuple(tuple(r) for r in table),
            )
        if kind == "permutation":
            degree = data.get("degree")
            gens = data.get("generators")
            if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
                raise InvalidSpec("permutation group needs a positive integer degree")
            if not isinstance(gens, list):
                raise InvalidSpec("permutation group needs a generators list")
            out = []
            for gi, cycles in enumerate(gens):
                if not isinstance(cycles, list):
                    raise InvalidSpec(f"generator {gi} must be a list of cycles")
                packed = []
                for cycle in cycles:
                    if not isinstance(cycle, list) or not all(
                        isinstance(p, int) and not isinstance(p, bool) for p in cycle
                    ):
                        raise InvalidSpec(f"generator {gi} holds a malformed cycle")
                    packed.append(tuple(cycle))
                out.append(tuple(packed))
            return cls(kind=kind, degree=degree, generators=tuple(out))
        raise InvalidSpec(f"unknown group kind {kind!r}")

    @classmethod
    def from_inline(cls, text: str) -> "GroupSpec":
        """Parse the compact kind:n form, e.g. 'cyclic:12'."""
        kind, sep, arg = text.partition(":")
        kind = kind.strip()
        if not sep or kind not in ("cyclic", "dihedral", "symmetric"):
            raise InvalidSpec(
                f"inline group {text!r} not understood; use kind:n with kind in "
                "cyclic/dihedral/symmetric, or give a JSON object"
            )
        try:
            n = int(arg)
        except ValueError:
            raise InvalidSpec(f"inline group {text!r} needs an integer parameter") from None
        return cls.from_dict({"kind": kind, "n": n})

    def to_dict(self) -> dict:
        if self.kind in ("cyclic", "dihedral", "symmetric"):
            return {"kind": self.kind, "n": self.n}
        if self.kind == "direct_product":
            return {"kind": self.kind, "factors": [f.to_dict() for f in self.factors or ()]}
        if self.kind == "cayley":
            return {
                "kind": self.kind,
                "names": list(self.names or ()),
                "table": [list(r) for r in self.table or ()],
            }
        return {
            "kind": self.kind,
            "degree": self.degree,
            "generators": [[list(c) for c in g] for g in self.generators or ()],
        }


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
        return min(spec.n or 1, limit + 1)
    if spec.kind == "dihedral":
        return min(2 * (spec.n or 1), limit + 1)
    if spec.kind == "symmetric":
        return _capped_prod(range(2, (spec.n or 1) + 1), limit)
    if spec.kind == "direct_product":
        return _capped_prod((_least_order(f, limit) for f in spec.factors or ()), limit)
    if spec.kind == "cayley":
        return min(len(spec.table or ()), limit + 1)
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


def _cycle_name(perm: Sequence[int], points: Sequence[int]) -> str:
    """Disjoint-cycle notation, position i standing for the 1-based point
    points[i]; '()' for the identity."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + " ".join(str(points[p]) for p in cyc) + ")")
    return "".join(parts) or "()"


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[x] for x in p)


def _permutation_cells(
    elements: Sequence[tuple[int, ...]],
    index: dict[tuple[int, ...], int],
    gens: Sequence[tuple[int, ...]],
) -> tuple[bytes, list[int]]:
    """The table of the permutation group elements, elements[0] the identity,
    generated by right products of gens, and the inverse of each element.
    Only the generator rows take dict lookups: the others follow a BFS tree
    from the identity, since row(p*g)[y] = p*(g*y) is row(p) read at the
    indices row(g), and inv(p*g) = g^-1 * inv(p)."""
    n = len(elements)
    steps = []
    for g in gens:
        row_g = [index[_compose(g, q)] for q in elements]
        g_inv_times = [0] * n  # g_inv_times[x] = g^-1 * x, as row_g[y] = g * y
        for y, x in enumerate(row_g):
            g_inv_times[x] = y
        steps.append((index[g], _gather(row_g), g_inv_times))
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[0] = tuple(range(n))
    inverse = [0] * n
    queue = [0]
    for p in queue:
        row = rows[p]
        for g, via_g, g_inv_times in steps:
            child = row[g]
            if rows[child] is None:
                rows[child] = via_g(row)
                inverse[child] = g_inv_times[inverse[p]]
                queue.append(child)
    pack = struct.Struct(f"{n}{_typecode(n)}").pack
    return b"".join(pack(*row) for row in rows), inverse


def _permutation_group(
    elements: Sequence[tuple[int, ...]],
    index: dict[tuple[int, ...], int],
    gens: Sequence[tuple[int, ...]],
    points: Sequence[int],
    kind: str,
    description: str,
    generator_names: dict[str, int] | None = None,
) -> Group:
    """The group on the permutations in elements, named in cycles of points."""
    cells, inverse = _permutation_cells(elements, index, gens)
    names = [_cycle_name(p, points) for p in elements]
    return Group(
        len(elements),
        cells,
        names,
        kind=kind,
        description=description,
        generator_names=generator_names,
        generators=[index[g] for g in gens],
        inverse=inverse,
    )


def _build_symmetric(n: int) -> Group:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # perms[1] swaps the last two points; with the n-cycle it generates S_n.
    gens = perms[1:2] + [tuple(range(1, n)) + (0,)]
    return _permutation_group(perms, index, gens, range(1, n + 1), "symmetric", f"symmetric:{n}")


def _product_cells(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]], typecode: str
) -> bytes:
    """The table of A x B with (x, y) at index x*|B| + y: row (x1, y1) is,
    for x2 in turn, row y1 of B shifted up by |B| times x1*x2 in A."""
    nb = len(b_rows)
    shifts = [range(k * nb, (k + 1) * nb) for k in range(len(a_rows))]
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
    factors = [_build(f, limit) for f in spec.factors or ()]
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
    degree = spec.degree or 1
    generators = spec.generators or ()
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
    index = {identity: 0}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for q in gens:
            r = _compose(p, q)
            if r not in index:
                if len(elements) >= limit:
                    raise SizeLimitExceeded(
                        f"permutation closure exceeds the order limit {limit}"
                    )
                index[r] = len(elements)
                elements.append(r)
                queue.append(r)
    gen_names = dict(zip(_GEN_SYMBOLS, (index[g] for g in gens)))
    desc = f"permutation:deg{degree}"
    return _permutation_group(elements, index, gens, points, "permutation", desc, gen_names)


def _build_cayley(table: Sequence[Sequence[int]], names: Sequence[str]) -> Group:
    n = len(table)
    if n == 0:
        raise InvalidSpec("a group needs at least one element")
    if len(names) != n:
        raise InvalidSpec(f"{n} table rows but {len(names)} names")
    typecode = _typecode(n)
    cells = b"".join(_table_row(i, row, n, typecode) for i, row in enumerate(table))
    return Group(n, cells, names, kind="cayley", description="cayley")


def _build(spec: GroupSpec, limit: int) -> Group:
    what = "direct product" if spec.kind == "direct_product" else f"{spec.kind} group"
    _check_order(_least_order(spec, limit), limit, what)
    if spec.kind == "cyclic":
        return _build_cyclic(spec.n or 1)
    if spec.kind == "dihedral":
        return _build_dihedral(spec.n or 1)
    if spec.kind == "symmetric":
        return _build_symmetric(spec.n or 1)
    if spec.kind == "direct_product":
        return _build_direct_product(spec, limit)
    if spec.kind == "cayley":
        return _build_cayley(spec.table or (), spec.names or ())
    if spec.kind == "permutation":
        return _build_permutation(spec, limit)
    raise InvalidSpec(f"unknown group kind {spec.kind!r}")


def build_group(spec: GroupSpec | dict) -> Group:
    """Build a group from a GroupSpec or its dict form, refusing one whose
    order passes GROUPKIT_MAX_ORDER."""
    if isinstance(spec, dict):
        spec = GroupSpec.from_dict(spec)
    try:
        return _build(spec, config.max_order())
    except RecursionError:
        raise InvalidSpec("group spec is nested too deeply") from None
