"""Independent group arithmetic and output checkers for the benchmark.

Every check here works from element *names* as groupkit prints them and
from arithmetic this module does itself: integers mod n, dihedral words
b^s a^r, permutations composed from cycle notation, componentwise products,
and the benchmark's own formula for the Cayley-table group it generates.
Nothing here reads groupkit's multiplication tables or calls its
algorithms, so a wrong table or a wrong search cannot vouch for itself.
"""

from __future__ import annotations

import itertools
import math
import random
import re


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own arithmetic."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- element models ------------------------------------------------------------


class Cyclic:
    """Integers mod n under addition; names are the decimal residues."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.order = n
        self.identity = 0

    def mul(self, x: int, y: int) -> int:
        return (x + y) % self.n

    def parse(self, name: str) -> int:
        require(name.isdigit() and int(name) < self.n, f"{name!r} names no element of Z{self.n}")
        return int(name)

    def name(self, x: int) -> str:
        return str(x)

    def elements(self) -> list:
        return list(range(self.n))


class Dihedral:
    """b^s a^r stored as (s, r), with a^r b = b a^-r; names 1, a^r, b, ba^r."""

    _NAME = re.compile(r"^(b?)(?:(a)(?:\^(\d+))?)?$")

    def __init__(self, n: int) -> None:
        self.n = n
        self.order = 2 * n
        self.identity = (0, 0)

    def mul(self, x: tuple, y: tuple) -> tuple:
        s1, r1 = x
        s2, r2 = y
        return ((s1 + s2) % 2, ((-r1 if s2 else r1) + r2) % self.n)

    def parse(self, name: str) -> tuple:
        if name == "1":
            return (0, 0)
        m = self._NAME.match(name)
        require(m is not None and (m.group(1) or m.group(2)), f"{name!r} is no dihedral name")
        r = 0 if not m.group(2) else int(m.group(3) or 1)
        require(r < self.n, f"{name!r} has exponent >= {self.n}")
        return (1 if m.group(1) else 0, r)

    def name(self, x: tuple) -> str:
        s, r = x
        tail = "" if r == 0 else "a" if r == 1 else f"a^{r}"
        if s:
            return "b" + tail
        return tail or "1"

    def elements(self) -> list:
        return [(s, r) for s in (0, 1) for r in range(self.n)]


class Perm:
    """Permutations of 1..degree as 0-based image tuples, written in
    disjoint-cycle notation; the product x*y applies x first, then y."""

    _CYCLE = re.compile(r"\(([^()]*)\)")

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self.order = math.factorial(degree)
        self.identity = tuple(range(degree))

    def mul(self, x: tuple, y: tuple) -> tuple:
        return tuple(y[p] for p in x)

    def parse(self, name: str) -> tuple:
        require(name.startswith("(") and name.endswith(")"), f"{name!r} is no cycle word")
        img = list(range(self.degree))
        pos = 0
        for m in self._CYCLE.finditer(name):
            require(m.start() == pos, f"{name!r} is no cycle word")
            pos = m.end()
            pts = [int(p) - 1 for p in m.group(1).split()]
            require(all(0 <= p < self.degree for p in pts), f"{name!r} leaves 1..{self.degree}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a] = b
        require(pos == len(name), f"{name!r} is no cycle word")
        return tuple(img)

    def name(self, x: tuple) -> str:
        seen = set()
        parts = []
        for start in range(self.degree):
            if start in seen or x[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            j = x[start]
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = x[j]
            parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
        return "".join(parts) or "()"

    def elements(self) -> list:
        return list(itertools.permutations(range(self.degree)))


class Product:
    """Direct product of models whose names hold no commas or parentheses;
    elements are tuples, names '(x,y,...)'."""

    def __init__(self, *factors) -> None:
        self.factors = factors
        self.order = math.prod(f.order for f in factors)
        self.identity = tuple(f.identity for f in factors)

    def mul(self, x: tuple, y: tuple) -> tuple:
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def parse(self, name: str) -> tuple:
        require(name.startswith("(") and name.endswith(")"), f"{name!r} is no product name")
        parts = name[1:-1].split(",")
        require(len(parts) == len(self.factors), f"{name!r} has the wrong arity")
        return tuple(f.parse(p) for f, p in zip(self.factors, parts))

    def name(self, x: tuple) -> str:
        return "(" + ",".join(f.name(a) for f, a in zip(self.factors, x)) + ")"

    def elements(self) -> list:
        return list(itertools.product(*(f.elements() for f in self.factors)))


class Semidirect:
    """Z_m ⋊ Z_m with (i, j)(k, l) = (i + u^j k, j + l), named 'x<i>y<j>'.

    The benchmark hands groupkit this group as a raw Cayley table, so its
    names and formula exist only here."""

    _NAME = re.compile(r"^x(\d+)y(\d+)$")

    def __init__(self, m: int, u: int) -> None:
        require(pow(u, m, m) == 1 % m, "u^m must be 1 mod m for a valid action")
        self.m = m
        self.u = u
        self.order = m * m
        self.identity = (0, 0)

    def mul(self, x: tuple, y: tuple) -> tuple:
        m = self.m
        return ((x[0] + pow(self.u, x[1], m) * y[0]) % m, (x[1] + y[1]) % m)

    def parse(self, name: str) -> tuple:
        hit = self._NAME.match(name)
        require(hit is not None, f"{name!r} is no x<i>y<j> name")
        i, j = int(hit.group(1)), int(hit.group(2))
        require(i < self.m and j < self.m, f"{name!r} is out of range")
        return (i, j)

    def name(self, x: tuple) -> str:
        return f"x{x[0]}y{x[1]}"

    def elements(self) -> list:
        return [(i, j) for i in range(self.m) for j in range(self.m)]

    def cayley_spec(self, rng: random.Random) -> dict:
        """A groupkit 'cayley' spec of this group, rows in a seeded order."""
        elems = self.elements()
        rng.shuffle(elems)
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[self.mul(x, y)] for y in elems] for x in elems]
        return {"kind": "cayley", "names": [self.name(e) for e in elems], "table": table}


# -- subgroup structure, computed from the model alone ---------------------------


def closure(model, gens) -> frozenset:
    """The subgroup generated by gens."""
    out = {model.identity}
    frontier = [model.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = model.mul(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def double_coset(model, h, x, k) -> frozenset:
    return frozenset(model.mul(model.mul(a, x), b) for a in h for b in k)


def partition(model, h, k) -> list[frozenset]:
    """Blocks H*x*K covering the group (right cosets when K is trivial)."""
    left = set(model.elements())
    blocks = []
    while left:
        x = next(iter(left))
        block = double_coset(model, h, x, k)
        blocks.append(block)
        left -= block
    return blocks


def mid_set(model, h, k) -> frozenset:
    """Every x with |H x K| = |H||K|."""
    target = len(h) * len(k)
    return frozenset(x for x in model.elements() if len(double_coset(model, h, x, k)) == target)


class Structure:
    """The coset blocks of one (H, K) pair, with a block label per element."""

    def __init__(self, model, h, k=None, *, restrict_to_mid: bool = False) -> None:
        self.model = model
        self.h = frozenset(h)
        self.k = frozenset(k) if k is not None else frozenset([model.identity])
        self.blocks = partition(model, self.h, self.k)
        self.mid = mid_set(model, self.h, self.k)
        if restrict_to_mid:
            self.blocks = [b & self.mid for b in self.blocks if b & self.mid]
        self.label = {x: i for i, b in enumerate(self.blocks) for x in b}

    def count(self) -> int:
        """Sets holding exactly one element of each block."""
        return math.prod(len(b) for b in self.blocks)

    def parse_set(self, names) -> list:
        elems = [self.model.parse(s) for s in names]
        require(len(set(elems)) == len(elems), "a returned set repeats an element")
        return elems

    def hits(self, elems) -> list[int]:
        labels = []
        for x in elems:
            require(x in self.label, f"{self.model.name(x)} lies in no block")
            labels.append(self.label[x])
        return labels

    def check_one_per_block(self, names, what: str) -> None:
        labels = self.hits(self.parse_set(names))
        require(
            len(labels) == len(self.blocks) and len(set(labels)) == len(self.blocks),
            f"{what} does not meet each of the {len(self.blocks)} blocks exactly once",
        )

    def check_direct_maximal(self, names) -> set:
        """H*X*K direct (X inside Mid, one per block) and Mid ⊆ H*X*K;
        returns H*X*K."""
        elems = self.parse_set(names)
        require(all(x in self.mid for x in elems), "X leaves the middle director")
        labels = self.hits(elems)
        require(len(set(labels)) == len(labels), "two elements of X share a double coset")
        covered = set()
        for i in labels:
            covered |= self.blocks[i]
        require(self.mid <= covered, "X is not maximal: some Mid element lies outside HXK")
        return covered


def check_table(model, names, table, pairs) -> None:
    """groupkit's names and table rows agree with the model on the pairs."""
    require(len(names) == model.order, f"order {len(names)}, expected {model.order}")
    elems = [model.parse(s) for s in names]
    require(len(set(elems)) == model.order, "two indices name the same element")
    for i, j in pairs:
        got = elems[table[i][j]]
        want = model.mul(elems[i], elems[j])
        require(
            got == want,
            f"{names[i]} * {names[j]} is {names[table[i][j]]}, expected {model.name(want)}",
        )


def sample_pairs(order: int, rng: random.Random, full_up_to: int, samples: int) -> list:
    if order <= full_up_to:
        return [(i, j) for i in range(order) for j in range(order)]
    return [(rng.randrange(order), rng.randrange(order)) for _ in range(samples)]
