"""Fleet construction and reusable property-suite runners.

Each suite runner takes groups (and usually a seed), checks one equivalence between
independent formulations across many inputs, and returns a list of violation strings.
The unit tests run them on a small fleet; the acceptance tests run them on
the full one, and scale/ at sizes too slow for tier-1.
"""

from __future__ import annotations

import itertools
import json
import random
from array import array
from functools import reduce
from math import factorial, gcd, prod
from operator import itemgetter, or_

from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupkit import (
    ChoicePolicy,
    GroupKitError,
    MidEmpty,
    build_group,
    enumerate_all_middle_subfactors,
    enumerate_all_middle_transversals,
    enumerate_all_right_transversals,
    extend_to_middle_transversal,
    msfa,
    mta,
    rta,
)
from groupkit import algorithms, oracle, products
from groupkit.groups import (
    _LIGHT_BLOCK_CELLS,
    _LIGHT_RUN_CELLS,
    _LIGHT_RUN_VIEW_CELLS,
    ElementSet,
    Group,
    _light_failure,
    _permutation_cells,
    _symmetric_cells,
    bit_indices,
)
from groupkit.report import RunReport


def build_fleet() -> list[Group]:
    """Builtin groups of order at most 12: cyclic 1..12, dihedral orders
    4..12, and the symmetric group on 3 points."""
    fleet = [build_group({"kind": "cyclic", "n": n}) for n in range(1, 13)]
    fleet += [build_group({"kind": "dihedral", "n": n}) for n in range(2, 7)]
    fleet.append(build_group({"kind": "symmetric", "n": 3}))
    return fleet


def lane_sum_gather_disagreements(n: int) -> list[str]:
    """The two table kernels on S_n: the lex-rank lane sums of
    _symmetric_cells against the breadth-first gathers of _permutation_cells
    on the same lex-ordered permutations and symmetric:n's generators, the
    table byte for byte.  One string for the first product of each row that
    differs."""
    sym = build_group({"kind": "symmetric", "n": n})
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    gens = perms[1:2] + [tuple(range(1, n)) + (0,)]
    gathered = _permutation_cells(perms, index, gens)
    size = len(perms)
    sums = memoryview(_symmetric_cells(perms)).cast(sym.table[0].format)
    rows = memoryview(gathered).cast(sym.table[0].format)
    bad = []
    for x in range(size):
        row = slice(x * size, (x + 1) * size)
        if sums[row] != rows[row]:
            y = next(y for y in range(size) if sums[x * size + y] != rows[x * size + y])
            bad.append(f"S{n}: {sym.names[x]} * {sym.names[y]} = "
                       f"{sym.names[sums[x * size + y]]} by lane sums, "
                       f"{sym.names[rows[x * size + y]]} by gathers")
    return bad


def run_lengths(row) -> list[int]:
    """Lengths of the maximal runs row[y0 + i] = row[y0] + i, left to right."""
    lengths = [1]
    for a, b in zip(row, row[1:]):
        if b == a + 1:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


def relabeled_flat(t: array, n: int, rng: random.Random) -> tuple[array, list[int]]:
    """The flat table t with its elements renamed by a seeded random
    permutation pi, and pi: row pi(i) of the result is pi(t[i][pi^-1(y)])."""
    pi = list(range(n))
    rng.shuffle(pi)
    inverse = [0] * n
    for i, p in enumerate(pi):
        inverse[p] = i
    read_inverse = itemgetter(*inverse)
    out = array(t.typecode)
    for i in inverse:
        out.extend(itemgetter(*read_inverse(t[i * n:(i + 1) * n]))(pi))
    return out, pi


def relabeled_light_problems(n: int, seed: int) -> list[str]:
    """Light's test on cyclic:n (n >= 3) renamed by a seeded permutation, so
    that no row but the identity's has a run of _LIGHT_RUN_CELLS and every
    pass compares its columns in place.  Given the identity and the image of
    1, the table must pass.  With two cells of one row swapped, the test
    given the image of 1 and no identity, exact on any table, must return a
    triple that the table really fails.  One string per problem."""
    rng = random.Random(seed)
    g = build_group({"kind": "cyclic", "n": n})
    t, pi = relabeled_flat(array(g.table[0].format, g.table[0].obj), n, rng)
    bad = []
    e = pi[0]
    longest = max(max(run_lengths(t[x * n:(x + 1) * n])) for x in range(n) if x != e)
    if longest >= _LIGHT_RUN_CELLS:
        bad.append(f"cyclic:{n} relabeled: a row keeps a run of {longest}")
    found = _light_failure(memoryview(t), n, e, [pi[1]])
    if found is not None:
        bad.append(f"cyclic:{n} relabeled: the group table fails at {found}")
    return bad + _swapped_row_problems(t, n, e, [pi[1]], rng, f"cyclic:{n} relabeled")


def swapped_row_light_problems(spec: dict, generators: list[str], seed: int) -> list[str]:
    """Light's test on the table of spec, handed the elements named
    generators: the table must pass given its identity, and with two cells
    of a seeded row swapped, given no identity, it must return a triple that
    the table really fails.  One string per problem."""
    g = build_group(spec)
    n = g.order
    t = array(g.table[0].format, g.table[0].obj)
    seeds = [g.names.index(name) for name in generators]
    bad = []
    found = _light_failure(memoryview(t), n, g.identity, seeds)
    if found is not None:
        bad.append(f"{g.description}: the group table fails at {found}")
    return bad + _swapped_row_problems(t, n, g.identity, seeds, random.Random(seed),
                                       g.description)


def _swapped_row_problems(
    t: array, n: int, e: int, seeds: list[int], rng: random.Random, label: str
) -> list[str]:
    """Swap two cells, off column e, of a seeded row other than e's in the
    flat group table t, in place; Light's test handed seeds and no identity,
    exact on any table, must then return a triple that t really fails."""
    x = rng.choice([i for i in range(n) if i != e])
    j1, j2 = rng.sample([j for j in range(n) if j != e], 2)
    t[x * n + j1], t[x * n + j2] = t[x * n + j2], t[x * n + j1]
    found = _light_failure(memoryview(t), n, None, seeds)
    if found is None:
        return [f"{label}: row {x} with columns {j1}, {j2} swapped passes"]
    x, s, y = found
    if t[t[x * n + s] * n + y] == t[x * n + t[s * n + y]]:
        return [f"{label}: {found} is returned but associates"]
    return []


def first_failure(t, n: int, s: int) -> tuple[int, int, int] | None:
    """The first (x, s, y) in row-major order over (x, y) with
    (x*s)*y != x*(s*y) in the flat table t, or None; n > 1."""
    read_row_s = itemgetter(*t[s * n:(s + 1) * n])
    for x in range(n):
        xs = t[x * n + s]
        lhs, rhs = tuple(t[xs * n:(xs + 1) * n]), read_row_s(t[x * n:(x + 1) * n])
        if lhs != rhs:
            return x, s, next(y for y in range(n) if lhs[y] != rhs[y])
    return None


def one_cell_changed(t: array, n: int, s: int, side: str, x: int, y: int) -> array:
    """A copy of the flat table t with the one cell changed that the pass for
    s reads at row x, column y: (x*s, y) on the left side, (x*s)*y, and
    (x, s*y) on the right side, x*(s*y)."""
    i, j = (t[x * n + s], y) if side == "left" else (x, t[s * n + y])
    out = array(t.typecode, t)
    out[i * n + j] = (out[i * n + j] + 1) % n
    return out


def witness_row(t, n: int, e: int, s: int, side: str, rows, y: int) -> int | None:
    """The first x of rows where one changed cell on side of the pass for s
    gives the witness (x, s, y), or None: the other row of the pass that
    reads the cell, x*s on the left side and x*s^-1 on the right, comes
    after x, and x, y avoid e and s, whose row or column would change the
    whole pass."""
    col_s = t[s::n]
    for x in rows:
        other = col_s[x] if side == "left" else col_s.index(x)
        if x not in (e, s) and y not in (e, s) and other > x:
            return x
    return None


def block_rows(n: int) -> tuple[range, range, range]:
    """Rows of the first, a middle and the last block of a pass, the last
    taken from the bottom up."""
    block = _LIGHT_BLOCK_CELLS // n
    last = (n - 1) // block * block
    middle = (last // block) // 2 * block or block
    return range(1, block), range(middle, min(middle + block, n)), range(n - 1, last - 1, -1)


def on_runs(t, n: int, s: int) -> bool:
    """Whether the pass for s compares each run of row s over a whole block:
    row s of the flat table t is runs of one width, at least
    _LIGHT_RUN_VIEW_CELLS and short of _LIGHT_RUN_CELLS."""
    lengths = run_lengths(t[s * n:(s + 1) * n])
    return len(set(lengths)) == 1 and _LIGHT_RUN_VIEW_CELLS <= lengths[0] < _LIGHT_RUN_CELLS


def changed_cell_problems(
    t: array, n: int, e: int, s: int, rng: random.Random
) -> tuple[int, list[str]]:
    """One changed cell on either side of the pass for s, in the first, a
    middle and the last block of the flat group table t with identity e:
    Light's test handed s alone and no identity must return the naive loop's
    witness (x, s, y), with row s, and so the pass's path, unchanged.  The
    number of cells checked, and one string per problem."""
    checked, bad = 0, []
    row_s = t[s * n:(s + 1) * n]
    for rows in block_rows(n):
        for side in ("left", "right"):
            y = rng.choice([y for y in range(n) if y not in (e, s)])
            x = witness_row(t, n, e, s, side, rows, y)
            if x is None:
                continue
            changed = one_cell_changed(t, n, s, side, x, y)
            found = _light_failure(memoryview(changed), n, None, (s,))
            where = f"pass for {s}, cell ({x}, {y}) on the {side} side"
            if changed[s * n:(s + 1) * n] != row_s:
                bad.append(f"{where}: row {s} changed")
            elif found != (x, s, y) or first_failure(changed, n, s) != found:
                bad.append(f"{where}: {found} returned")
            checked += 1
    return checked, bad


def changed_cell_light_problems(spec: dict, generator: str, seed: int) -> list[str]:
    """changed_cell_problems on the table of spec, for the pass of the
    element named generator, whose row must be compared run by run; a cell
    must be checked on each side in each of the three blocks.  One string
    per problem."""
    g = build_group(spec)
    n = g.order
    t = array(g.table[0].format, g.table[0].obj)
    s = g.names.index(generator)
    bad = [] if on_runs(t, n, s) else [f"{g.description}: row {generator} is not compared by runs"]
    checked, problems = changed_cell_problems(t, n, g.identity, s, random.Random(seed))
    if checked != 6:
        bad.append(f"{g.description}: {checked} of 6 changed cells checked")
    return bad + [f"{g.description}: {p}" for p in problems]


def product_row(factors: list[Group], x: int) -> list[int]:
    """Row x of the direct product of factors, by the factors' formula, not
    by its table: for two, (x1, y1)*(x2, y2) = a[x1][x2]*|B| + b[y1][y2],
    and more factors fold in from the left."""
    parts = []
    for f in reversed(factors):
        x, part = divmod(x, f.order)
        parts.append(part)
    row = [0]
    for f, part in zip(factors, reversed(parts)):
        row = [r * f.order + c for r in row for c in f.table[part]]
    return row


def product_formula_problems(spec: dict) -> list[str]:
    """Every row of the direct product spec against product_row over its
    factors, each built alone; one string per row that differs."""
    g = build_group(spec)
    factors = [build_group(f) for f in spec["factors"]]
    return [f"{g.description}: row {x} differs from the factors' formula"
            for x in range(g.order) if g.table[x].tolist() != product_row(factors, x)]


def small_fleet() -> list[Group]:
    return [g for g in build_fleet() if g.order <= 8]


def naive_closure(g: Group, mask: int) -> int:
    """The mask of the subgroup generated by the members of mask: the
    identity and those members, multiplied two at a time until nothing new
    appears.  A finite set closed under the product is a subgroup."""
    t = g.table
    members = {g.identity, *bit_indices(mask)}
    while new := {t[a][b] for a in members for b in members} - members:
        members |= new
    return sum(1 << x for x in members)


def naive_subgroups(g: Group) -> set[ElementSet]:
    """Every subgroup of g: from the trivial one, the closure of each known
    subgroup with one more element, until nothing new appears."""
    known = {1 << g.identity}
    frontier = list(known)
    while frontier:
        mask = frontier.pop()
        for x in bit_indices(g.full_mask & ~mask):
            bigger = naive_closure(g, mask | 1 << x)
            if bigger not in known:
                known.add(bigger)
                frontier.append(bigger)
    return {g.subset_from_mask(m) for m in known}


def conjugate(s: ElementSet, x: int) -> ElementSet:
    """The set x * s * x^-1, one member at a time."""
    g = s.group
    t = g.table
    xi = g.inverse[x]
    return g.subset(t[t[x][a]][xi] for a in s)


def inverted(s: ElementSet) -> ElementSet:
    """The set of the inverses of the members of s."""
    return s.group.subset(s.group.inverse[a] for a in s)


_SUBGROUPS: dict[int, list[ElementSet]] = {}


def subgroups_of(g: Group) -> list[ElementSet]:
    subs = _SUBGROUPS.get(id(g))
    if subs is None:
        subs = sorted(naive_subgroups(g), key=lambda s: (len(s), s.mask))
        _SUBGROUPS[id(g)] = subs
    return subs


def subgroup_pairs(g: Group) -> list[tuple[ElementSet, ElementSet]]:
    subs = subgroups_of(g)
    return [(h, k) for h in subs for k in subs]


def conjugacy_class_representatives(g: Group) -> list[ElementSet]:
    """The first subgroup, in subgroups_of order, of each conjugacy class."""
    reps: list[ElementSet] = []
    seen: set[ElementSet] = set()
    for s in subgroups_of(g):
        if s not in seen:
            reps.append(s)
            seen.update(conjugate(s, x) for x in range(g.order))
    return reps


def is_normal(s: ElementSet) -> bool:
    return all(conjugate(s, x) == s for x in range(s.group.order))


def random_subset(g: Group, rng: random.Random, nonempty: bool = True) -> ElementSet:
    while True:
        mask = rng.getrandbits(g.order)
        if mask or not nonempty:
            return g.subset_from_mask(mask)


def raw_direct_triple(g: Group, a: ElementSet, x: ElementSet, b: ElementSet) -> bool:
    """Directness by counting raw products, using only Group.multiply."""
    prods = [
        g.multiply(g.multiply(i, j), l)
        for i in a
        for j in x
        for l in b
    ]
    return len(set(prods)) == len(a) * len(x) * len(b)


def _one_per_block(blocks, t: ElementSet) -> bool:
    return all(len(b & t) == 1 for b in blocks)


def _maximal_direct(h: ElementSet, x: ElementSet, k: ElementSet) -> bool:
    g = h.group
    return all(
        y in x or not products.is_direct_triple(h, x | g.singleton(y), k)
        for y in range(g.order)
    )


def _maximal_middle_direct(h: ElementSet, x: ElementSet, k: ElementSet) -> bool:
    g = h.group
    return all(
        y in x or not products.is_middle_direct(h, x | g.singleton(y), k)
        for y in range(g.order)
    )


def _hxk(h: ElementSet, x: ElementSet, k: ElementSet) -> ElementSet:
    return products.set_product(products.set_product(h, x), k)


# -- suites -------------------------------------------------------------------


def suite_empty_director(groups: list[Group], seed: int = 1) -> list[str]:
    """Mid(A,B) empty iff no nonempty X makes the triple direct (groups of
    order at most 8, exhaustive over X)."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        if g.order > 8:
            continue
        for _ in range(6):
            a = random_subset(g, rng)
            b = random_subset(g, rng)
            mid = products.mid_director(a, b)
            direct_found = False
            for xmask in range(1, 1 << g.order):
                x = g.subset_from_mask(xmask)
                if products.is_direct_triple(a, x, b):
                    direct_found = True
                    if not x <= mid:
                        bad.append(f"{g.description}: direct X outside Mid for A={a!r}, B={b!r}")
                    break
            if direct_found == (len(mid) == 0):
                bad.append(f"{g.description}: Mid/direct-X disagreement for A={a!r}, B={b!r}")
    return bad


def suite_direct_triple_split(groups: list[Group], seed: int = 2) -> list[str]:
    """Triple direct iff middle direct and X inside Mid(A,B); cross-checked
    against raw product counting."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        for _ in range(12):
            a = random_subset(g, rng)
            b = random_subset(g, rng)
            x = random_subset(g, rng)
            lhs = products.is_direct_triple(a, x, b)
            rhs = products.is_middle_direct(a, x, b) and x <= products.mid_director(a, b)
            raw = raw_direct_triple(g, a, x, b)
            if not (lhs == rhs == raw):
                bad.append(
                    f"{g.description}: direct={lhs} decomposed={rhs} raw={raw} "
                    f"for A={a!r}, X={x!r}, B={b!r}"
                )
    return bad


def suite_singleton_four_way(groups: list[Group]) -> list[str]:
    """Four-way equivalence for subgroup pairs: H{x}K direct, trivial
    H∩K^x, trivial H^(x^-1)∩K, and Hx∩xK = {x}."""
    bad = []
    for g in groups:
        e = g.identity
        for h, k in subgroup_pairs(g):
            for x in range(g.order):
                xset = g.singleton(x)
                c1 = products.is_direct_triple(h, xset, k)
                c2 = (h & conjugate(k, x)) == g.singleton(e)
                c3 = (conjugate(h, g.inverse[x]) & k) == g.singleton(e)
                hx = g.subset_from_mask(_right_mask(g, h, x))
                xk = g.subset_from_mask(_left_mask(g, x, k))
                c4 = (hx & xk) == xset
                if not (c1 == c2 == c3 == c4):
                    bad.append(
                        f"{g.description}: x={g.names[x]} H={h!r} K={k!r}: "
                        f"{c1},{c2},{c3},{c4}"
                    )
    return bad


def _right_mask(g: Group, h: ElementSet, x: int) -> int:
    out = 0
    for a in bit_indices(h.mask):
        out |= 1 << g.table[a][x]
    return out


def _left_mask(g: Group, x: int, k: ElementSet) -> int:
    out = 0
    for b in bit_indices(k.mask):
        out |= 1 << g.table[x][b]
    return out


def _transversal_candidates(g, blocks, rng, known: set[ElementSet]) -> list[ElementSet]:
    picks = list(known)[:4]
    out = list(picks)
    for t in picks:
        indices = t.indices()
        out.append(g.subset_from_mask(t.mask & ~(1 << indices[0])))  # drop one
        out.append(t | g.singleton(rng.randrange(g.order)))  # may add a duplicate rep
    for _ in range(3):
        out.append(random_subset(g, rng))
    return out


def suite_right_transversal_forms(groups: list[Group], seed: int = 3) -> list[str]:
    """Right-transversal equivalences: one-per-coset, direct cover, and
    direct-plus-maximal all agree."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        for h in subgroups_of(g):
            blocks = oracle.double_coset_partition(h, g.trivial_subgroup())
            known = oracle.all_right_transversals(h, limit=10 ** 4)
            for t in _transversal_candidates(g, blocks, rng, known):
                a = _one_per_block(blocks, t)
                covers = products.set_product(h, t) == g.full_set()
                b = covers and products.is_direct_pair(h, t)
                c = (
                    products.is_direct_pair(h, t)
                    and bool(t)
                    and all(
                        y in t or not products.is_direct_pair(h, t | g.singleton(y))
                        for y in range(g.order)
                    )
                )
                d = products.is_right_transversal(h, t)
                if not (a == b == c == d):
                    bad.append(f"{g.description}: H={h!r} T={t!r}: {a},{b},{c},{d}")
    return bad


def suite_middle_transversal_forms(groups: list[Group], seed: int = 4) -> list[str]:
    """Middle-transversal equivalences: one per double coset, middle-direct
    cover, and middle-direct-plus-maximal all agree."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        pairs = subgroup_pairs(g)
        if len(pairs) > 40:
            pairs = rng.sample(pairs, 40)
        for h, k in pairs:
            blocks = oracle.double_coset_partition(h, k)
            known = oracle.all_middle_transversals(h, k, limit=10 ** 4)
            for x in _transversal_candidates(g, blocks, rng, known):
                a = _one_per_block(blocks, x)
                b = products.is_middle_transversal(h, x, k)
                c = (
                    bool(x)
                    and products.is_middle_direct(h, x, k)
                    and _maximal_middle_direct(h, x, k)
                )
                if not (a == b == c):
                    bad.append(f"{g.description}: H={h!r} K={k!r} X={x!r}: {a},{b},{c}")
    return bad


def suite_full_director_factor(groups: list[Group]) -> list[str]:
    """Mid = G iff a middle factor exists; then every middle transversal is
    one."""
    bad = []
    for g in groups:
        for h, k in subgroup_pairs(g):
            mid = products.mid_director_subgroups(h, k)
            full = mid == g.full_set()
            try:
                triples = oracle.all_maximal_direct_triples(h, k, limit=10 ** 4)
                factor_exists = any(_hxk(h, x, k) == g.full_set() for x in triples)
            except MidEmpty:
                factor_exists = False
            if full != factor_exists:
                bad.append(f"{g.description}: H={h!r} K={k!r}: full={full} factor={factor_exists}")
            if full:
                for x in oracle.all_middle_transversals(h, k, limit=10 ** 4):
                    if not products.is_direct_triple(h, x, k):
                        bad.append(f"{g.description}: transversal not direct with Mid=G: {x!r}")
                        break
    return bad


def suite_middle_factor_five_way(groups: list[Group], seed: int = 5) -> list[str]:
    """Middle-factor equivalences (a)-(e) agree on sampled X."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        pairs = subgroup_pairs(g)
        if len(pairs) > 30:
            pairs = rng.sample(pairs, 30)
        for h, k in pairs:
            mid = products.mid_director_subgroups(h, k)
            mid_full = mid == g.full_set()
            candidates = []
            try:
                candidates += list(oracle.all_maximal_direct_triples(h, k, limit=10 ** 4))[:3]
            except MidEmpty:
                pass
            candidates += list(oracle.all_middle_transversals(h, k, limit=10 ** 4))[:3]
            for _ in range(3):
                candidates.append(random_subset(g, rng))
            for x in candidates:
                direct = products.is_direct_triple(h, x, k)
                a = direct and _hxk(h, x, k) == g.full_set()
                b = products.is_middle_transversal(h, x, k) and direct
                c = products.is_middle_transversal(h, x, k) and mid_full
                d = direct and bool(x) and _maximal_direct(h, x, k) and x.complement() <= mid
                e = (
                    products.is_middle_direct(h, x, k)
                    and _maximal_middle_direct(h, x, k)
                    and mid_full
                )
                if not (a == b == c == d == e):
                    bad.append(
                        f"{g.description}: H={h!r} K={k!r} X={x!r}: {a},{b},{c},{d},{e}"
                    )
    return bad


def suite_forced_full_director(groups: list[Group]) -> list[str]:
    """Coprime orders, or trivial intersection with one side normal, force
    Mid = G."""
    bad = []
    for g in groups:
        for h, k in subgroup_pairs(g):
            cond = gcd(len(h), len(k)) == 1 or (
                len(h & k) == 1 and (is_normal(h) or is_normal(k))
            )
            if cond and products.mid_director_subgroups(h, k) != g.full_set():
                bad.append(f"{g.description}: H={h!r} K={k!r}")
    return bad


def suite_search_cover(groups: list[Group], seed: int = 6) -> list[str]:
    """For maximal-direct-middle runs: output covers G iff Mid = G; the
    removed double cosets tile Mid exactly; with Mid = G the search-side
    subfactor enumeration equals the brute-force transversal enumeration."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        for h, k in subgroup_pairs(g):
            mid = products.mid_director_subgroups(h, k)
            if not mid:
                continue
            full = mid == g.full_set()
            policies = [ChoicePolicy.smallest(), ChoicePolicy.random(rng.randrange(10 ** 6))]
            for policy in policies:
                trace = msfa(h, k, policy=policy)
                hxk = _hxk(h, trace.output, k)
                if (hxk == g.full_set()) != full:
                    bad.append(f"{g.description}: cover/Mid mismatch H={h!r} K={k!r}")
                if not mid <= hxk:
                    bad.append(f"{g.description}: Mid not inside H X K for H={h!r} K={k!r}")
                if not hxk <= mid:
                    bad.append(f"{g.description}: H X K exceeds Mid for H={h!r} K={k!r}")
            if full:
                got = enumerate_all_middle_subfactors(h, k, limit=10 ** 4)
                want = oracle.all_middle_transversals(h, k, limit=10 ** 4)
                if got != want:
                    bad.append(f"{g.description}: subfactors != transversals with Mid=G")
    return bad


def suite_abelian_subgroup_dichotomy(groups: list[Group]) -> list[str]:
    """Abelian dichotomy for subgroups: Mid = G exactly when H∩K is
    trivial, and Mid is never proper nonempty."""
    bad = []
    for g in groups:
        if not g.is_abelian():
            continue
        for h, k in subgroup_pairs(g):
            mid = products.mid_director_subgroups(h, k)
            trivial_meet = len(h & k) == 1
            if trivial_meet != (mid == g.full_set()):
                bad.append(f"{g.description}: H={h!r} K={k!r}")
            if mid and mid != g.full_set():
                bad.append(f"{g.description}: proper Mid in an abelian group")
    return bad


def suite_abelian_subset_dichotomy(groups: list[Group], seed: int = 7) -> list[str]:
    """For arbitrary subsets of an abelian group the middle director is
    empty or everything."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        if not g.is_abelian():
            continue
        for _ in range(10):
            a = random_subset(g, rng)
            b = random_subset(g, rng)
            mid = products.mid_director(a, b)
            if mid and mid != g.full_set():
                bad.append(f"{g.description}: A={a!r} B={b!r} -> |Mid|={len(mid)}")
    return bad


def suite_identity_in_mid(groups: list[Group], seed: int = 8) -> list[str]:
    """AB direct iff the identity lies in Mid(A,B), for arbitrary subsets."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        for _ in range(12):
            a = random_subset(g, rng)
            b = random_subset(g, rng)
            if products.is_direct_pair(a, b) != (g.identity in products.mid_director(a, b)):
                bad.append(f"{g.description}: A={a!r} B={b!r}")
    return bad


def suite_block_partition(groups: list[Group]) -> list[str]:
    """The search-side block list gives, block for block, the right-coset
    and double-coset partitions of the oracle."""
    bad = []
    for g in groups:
        for h, k in subgroup_pairs(g):
            for kk in (g.trivial_subgroup(), k):
                partition = oracle.double_coset_partition(h, kk)
                blocks = algorithms._coset_blocks(h, kk)[0]
                if any(blocks[x] >> x & 1 == 0 for x in range(g.order)):
                    bad.append(f"{g.description}: an element outside its block, H={h!r} K={kk!r}")
                # distinct blocks in order of first appearance, i.e. of least member
                got = [g.subset_from_mask(m) for m in dict.fromkeys(blocks)]
                if got != list(partition):
                    bad.append(f"{g.description}: blocks differ from the oracle, H={h!r} K={kk!r}")
    return bad


def suite_maximal_covers_mid(groups: list[Group], seed: int = 9) -> list[str]:
    """For direct X: Mid ⊆ HXK iff no x in Mid outside X keeps H(X∪{x})K
    direct; checked on every subset of size at most 4 of random msfa outputs."""
    rng = random.Random(seed)
    bad = []
    for g in groups:
        for h, k in subgroup_pairs(g):
            mid = products.mid_director_subgroups(h, k)
            if not mid:
                continue
            out = msfa(h, k, policy=ChoicePolicy.random(rng.randrange(10 ** 6))).output
            for size in range(1, min(len(out), 4) + 1):
                for xs in itertools.combinations(out, size):
                    x = g.subset(xs)
                    if not products.is_direct_triple(h, x, k):
                        continue
                    covers = mid <= _hxk(h, x, k)
                    maximal = all(
                        y in x or not products.is_direct_triple(h, x | g.singleton(y), k)
                        for y in mid
                    )
                    if covers != maximal:
                        bad.append(f"{g.description}: H={h!r} K={k!r} X={x!r}: {covers},{maximal}")
    return bad


ALL_SUITES = [
    ("empty director", suite_empty_director),
    ("direct triple split", suite_direct_triple_split),
    ("singleton four-way", suite_singleton_four_way),
    ("right transversal forms", suite_right_transversal_forms),
    ("middle transversal forms", suite_middle_transversal_forms),
    ("full director factor", suite_full_director_factor),
    ("middle factor five-way", suite_middle_factor_five_way),
    ("forced full director", suite_forced_full_director),
    ("search cover", suite_search_cover),
    ("abelian subgroup dichotomy", suite_abelian_subgroup_dichotomy),
    ("abelian subset dichotomy", suite_abelian_subset_dichotomy),
    ("identity in Mid", suite_identity_in_mid),
    ("block partition", suite_block_partition),
    ("maximal covers Mid", suite_maximal_covers_mid),
]


# -- enumeration agreement (search vs brute force) -----------------------------


def masks(enumerate_all, *args, **kwargs) -> list[int]:
    """The masks enumerate_all lists with as_masks=True: its rows joined."""
    return list(itertools.chain.from_iterable(enumerate_all(*args, as_masks=True, **kwargs)))


def run_enumeration_agreement(groups: list[Group], limit: int = 10 ** 6,
                              subgroups=subgroups_of):
    """Compare exhaustive search enumeration against brute force for every
    subgroup / subgroup pair that subgroups(g) gives of every group.
    Returns (violations, stats)."""
    bad = []
    stats = {"groups": 0, "subgroups": 0, "pairs": 0, "skipped_empty_mid": 0}
    for g in groups:
        stats["groups"] += 1
        subs = subgroups(g)
        for h in subs:
            stats["subgroups"] += 1
            got = enumerate_all_right_transversals(h, limit=limit)
            want = oracle.all_right_transversals(h, limit=limit)
            if got != want:
                bad.append(f"{g.description}: right transversals differ for H={h!r}")
        for h, k in itertools.product(subs, repeat=2):
            stats["pairs"] += 1
            got = enumerate_all_middle_transversals(h, k, limit=limit)
            want = oracle.all_middle_transversals(h, k, limit=limit)
            if got != want:
                bad.append(f"{g.description}: middle transversals differ for H={h!r} K={k!r}")
            try:
                got_sf = enumerate_all_middle_subfactors(h, k, limit=limit)
            except MidEmpty:
                got_sf = None
            try:
                want_sf = oracle.all_maximal_direct_triples(h, k, limit=limit)
            except MidEmpty:
                want_sf = None
            if (got_sf is None) != (want_sf is None):
                bad.append(f"{g.description}: empty-Mid disagreement for H={h!r} K={k!r}")
            elif got_sf is None:
                stats["skipped_empty_mid"] += 1
            elif got_sf != want_sf:
                bad.append(f"{g.description}: subfactors differ for H={h!r} K={k!r}")
    return bad, stats


# -- randomized trace invariants ------------------------------------------------


def _chain_follows_oracle(trace) -> bool:
    """Whether each step of trace removes exactly the oracle block of its
    pick from the live set, and an extension's chain starts from G minus the
    oracle blocks of its inherited picks: a check of the chain that shares
    nothing with the search's own blocks or validate()."""
    partition = oracle.double_coset_partition(trace.h, trace.k)
    block = {x: b.mask for b in partition for x in b}
    start = trace.extension_start
    picks = trace.chosen
    if start is not None:
        uncovered = trace.group.full_mask
        for pick in picks[: start + 1]:
            uncovered &= ~block[pick]
        if trace.chain[0] != uncovered:
            return False
        picks = picks[start + 1:]
    return len(picks) + 1 == len(trace.chain) and all(
        live >> pick & 1 and after == live & ~block[pick]
        for pick, live, after in zip(picks, trace.chain, trace.chain[1:])
    )


def run_trace_invariants(groups: list[Group], n_runs: int = 1000, seed: int = 2025):
    """Seeded random searches; every completed run must satisfy the trace
    invariants and its output predicate.  Returns (violations, runs)."""
    rng = random.Random(seed)
    bad = []
    runs = 0
    while runs < n_runs:
        g = groups[runs % len(groups)]
        subs = subgroups_of(g)
        h = rng.choice(subs)
        k = rng.choice(subs)
        kind = rng.choice(("rta", "mta", "msfa"))
        policy = ChoicePolicy.random(rng.randrange(10 ** 9))
        try:
            if kind == "rta":
                trace = rta(h, policy=policy)
                ok = products.is_right_transversal(h, trace.output)
            elif kind == "mta":
                trace = mta(h, k, policy=policy)
                ok = products.is_middle_transversal(h, trace.output, k)
            else:
                trace = msfa(h, k, policy=policy)
                ok = products.is_direct_triple(h, trace.output, k) and _maximal_direct(
                    h, trace.output, k
                )
                if rng.random() < 0.5:
                    ext = extend_to_middle_transversal(trace, policy=policy)
                    ext.validate()
                    if not products.is_middle_transversal(h, ext.output, k):
                        bad.append(f"{g.description}: extension output invalid")
                    if not _chain_follows_oracle(ext):
                        bad.append(f"{g.description}: extension chain breaks the oracle blocks")
        except MidEmpty:
            continue
        trace.validate()
        if not _chain_follows_oracle(trace):
            bad.append(f"{g.description}: {kind} chain breaks the oracle blocks")
        if len(trace.output) != trace.n_steps + 1:
            bad.append(f"{g.description}: output size != N+1")
        if not ok:
            bad.append(f"{g.description}: {kind} output fails its predicate for H={h!r} K={k!r}")
        runs += 1
    return bad, runs


# -- every pick order of the chain search ----------------------------------------


def pick_order_problems(cap: int) -> tuple[list[str], dict]:
    """Replay every pick order the chain search allows, for mta and msfa
    over every subgroup pair of C12, D12, S3 and D8, through the public
    searches with g0 and a scripted policy.

    A pick removes its whole block, so the orders of a case are the
    sequences that take one element of each cell (a block of the oracle's
    partition cut down to the seed) in any order of the cells: the product
    of the cell sizes times (number of cells)!.  They are counted before
    any is walked, and a case with more than cap is skipped.  The seed is
    G for mta and, for msfa, the union of the oracle's answers, which is
    Mid.  Every oracle answer X must be reached by exactly |X|! orders and
    nothing else reached.  Returns (violations, stats)."""
    groups = [build_group({"kind": kind, "n": n})
              for kind, n in (("cyclic", 12), ("dihedral", 6), ("symmetric", 3), ("dihedral", 4))]
    bad = []
    stats = {"cases": 0, "runs": 0, "skipped": 0}
    for g in groups:
        for (h, k), (name, search, answers_of) in itertools.product(
            subgroup_pairs(g),
            (("mta", mta, oracle.all_middle_transversals),
             ("msfa", msfa, oracle.all_maximal_direct_triples)),
        ):
            case = f"{g.description} {name} H={h!r} K={k!r}"
            try:
                answers = masks(answers_of, h, k)
            except MidEmpty:
                continue
            seed = reduce(or_, answers)
            block = {x: b.mask for b in oracle.double_coset_partition(h, k) for x in b}
            cells = {block[x] & seed for x in bit_indices(seed)}
            orders = factorial(len(cells)) * prod(c.bit_count() for c in cells)
            if orders > cap:
                stats["skipped"] += 1
                continue
            stats["cases"] += 1
            reached: dict[int, int] = {}

            def walk(live: int, picks: list[int]) -> None:
                if not live:
                    try:
                        trace = search(h, k, g0=picks[0],
                                       policy=ChoicePolicy.scripted(picks[1:]))
                    except GroupKitError as exc:
                        bad.append(f"{case}: picks {picks} refused: {exc}")
                        return
                    out = trace.output.mask
                    reached[out] = reached.get(out, 0) + 1
                    stats["runs"] += 1
                    return
                for x in bit_indices(live):
                    walk(live & ~block[x], picks + [x])

            walk(seed, [])
            for x in answers:
                times = reached.pop(x, 0)
                if times != factorial(x.bit_count()):
                    bad.append(f"{case}: {g.subset_from_mask(x)!r} reached {times} times")
            bad += [f"{case}: {g.subset_from_mask(x)!r} is no answer" for x in reached]
    return bad, stats


# -- the report's JSON against json.dumps ----------------------------------------


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.text(),
    st.sampled_from(["é", "\x00\x1f\x7f", "\u2028\U0001f600", "\ud800", '"\\/']),
)
_JSON_PAYLOADS = st.recursive(
    st.one_of(
        _JSON_LEAVES,
        st.lists(st.text()),
        st.lists(st.integers()),
        st.lists(st.one_of(st.integers(), st.booleans())),
    ),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
        # json writes keys that are not strs as strs
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()), inner),
    ),
    max_leaves=25,
)


def report_json_property(max_examples: int):
    """A hypothesis test that RunReport.to_json writes what
    json.dumps(..., indent=2) writes, byte for byte, on one fixed example
    and max_examples derandomized ones."""
    group = build_group({"kind": "cyclic", "n": 2})

    @settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)
    @given(_JSON_PAYLOADS, _JSON_PAYLOADS, st.lists(st.text()), st.floats())
    @example(
        {"ints": [1, -(10**30), True, 0], "names": ["é", "\x00", "a\nb"], "none": None, "empty": {}},
        [[], [1, "a", None], {}, [float("nan"), float("inf"), float("-inf"), -0.0]],
        ["ünïcode \x07"],
        float("nan"),
    )
    def report_json_is_json_dumps_indent_2(inputs, result, warnings, timing_ms):
        report = RunReport("rta", group, inputs, result, warnings, timing_ms)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    return report_json_is_json_dumps_indent_2
