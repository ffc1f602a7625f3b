"""The compact table format, Light's associativity test, and the cayley
input path, each checked against a naive reference kept in this file."""

import itertools
import json
import math
import random
import re
import sys
from array import array
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupkit import Group, InvalidSpec, NotAGroup, build_group
from groupkit import groups
from groupkit.cli import main
from groupkit.groups import (
    _LIGHT_BLOCK_CELLS,
    _LIGHT_RUN_CELLS,
    _light_failure,
    _permutation_cells,
    _symmetric_cells,
    _typecode,
)
import suites
from suites import relabeled_flat, run_lengths

LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 4, 2, 3],
    [2, 3, 0, 4, 1],
    [3, 4, 1, 0, 2],
    [4, 2, 3, 1, 0],
]


def naive_associative(table):
    n = len(table)
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def light_failure(table):
    """_light_failure on a list of rows, given no identity: exact on any magma."""
    flat = array(_typecode(len(table)), itertools.chain.from_iterable(table))
    return _light_failure(memoryview(flat), len(table), None)


def first_failure(t, n, s):
    """The first (x, s, y) in row-major order over (x, y) with
    (x*s)*y != x*(s*y) in the flat table t, or None; n > 1."""
    read_row_s = itemgetter(*t[s * n:(s + 1) * n])
    for x in range(n):
        xs = t[x * n + s]
        lhs, rhs = tuple(t[xs * n:(xs + 1) * n]), read_row_s(t[x * n:(x + 1) * n])
        if lhs != rhs:
            return x, s, next(y for y in range(n) if lhs[y] != rhs[y])
    return None


def is_first_failure(t, n, triple):
    """Whether triple is the first (x, y) for its s that breaks associativity."""
    return triple == first_failure(t, n, triple[1])


def in_place(t, n, s):
    """Whether the pass for s compares in place: row s of the flat table t
    has no run of _LIGHT_RUN_CELLS."""
    return max(run_lengths(t[s * n:(s + 1) * n])) < _LIGHT_RUN_CELLS


def light_passes(t, n, e, seeds, last=None):
    """The s of each pass that _light_failure makes on the flat table t with
    identity e and generators seeds, picked and closed over as it does, up
    to the pass for last, where a failure ends the test."""
    seen = [False] * n
    reached, passed = [], []
    if e is not None:
        seen[e] = True
        reached.append(e)
    while len(reached) < n:
        s = next((g for g in seeds if not seen[g]), None)
        if s is None:
            s = seen.index(False)
        yield s
        if s == last:
            return
        passed.append(s)
        seen[s] = True
        reached.append(s)
        for r in reached:
            for g in passed:
                c = t[r * n + g]
                if not seen[c]:
                    seen[c] = True
                    reached.append(c)


def seedings(t, n, e, gens):
    """Seeds for Light's test: the identity, a repeated index, an index that
    the first seed reaches, and the builder's generators."""
    g = gens[0] if gens else 1 % n
    return [(e,), (g, g), (g, t[g * n + g]), tuple(gens)]


def check_seeded(t, n, e, gens, associative):
    """Every seeded test on the flat table t, given no identity, returns None
    when the table is associative and else a triple that really fails."""
    for seeds in seedings(t, n, e, gens):
        failure = _light_failure(memoryview(t), n, None, seeds)
        assert (failure is None) == associative, seeds
        assert failure is None or is_first_failure(t, n, failure), (seeds, failure)


def generating_indices(spec, g):
    """Indices that the builder's table of spec is generated from."""
    kind = spec["kind"]
    if kind == "cyclic":
        return [1 % g.order]
    if kind == "symmetric":
        perms = list(itertools.permutations(range(spec["n"])))
        return [1 % len(perms), perms.index(tuple(range(1, spec["n"])) + (0,))]
    return list(g.generator_names.values())


def small_builder_specs():
    specs = [{"kind": "cyclic", "n": n} for n in range(1, 9)]
    specs += [{"kind": "dihedral", "n": n} for n in range(1, 7)]
    specs += [{"kind": "symmetric", "n": n} for n in range(1, 5)]
    specs += [
        {"kind": "permutation", "degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]},
        {"kind": "permutation", "degree": 9, "generators": [[[3, 7], [9, 5]], [[5, 7, 9]]]},
        {"kind": "permutation", "degree": 3, "generators": []},
        {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                               {"kind": "dihedral", "n": 3}]},
        {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 1},
                                               {"kind": "cyclic", "n": 2},
                                               {"kind": "symmetric", "n": 3}]},
        {"kind": "direct_product", "factors": [
            {"kind": "cyclic", "n": 2},
            {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                                   {"kind": "cyclic", "n": 3}]},
        ]},
    ]
    return specs


# -- Light's test against the triple loop ---------------------------------------


@pytest.mark.parametrize("spec", small_builder_specs(), ids=lambda s: str(s)[:60])
def test_light_agrees_with_naive_on_builders(spec):
    table = [list(row) for row in build_group(spec).table]
    assert naive_associative(table)
    assert light_failure(table) is None


def test_light_agrees_with_naive_on_the_order_5_loop():
    assert not naive_associative(LOOP5)
    x, s, y = light_failure(LOOP5)
    assert LOOP5[LOOP5[x][s]][y] != LOOP5[x][LOOP5[s][y]]


def _perturbed(table, rng):
    """One seeded perturbation of a group table, with its kind."""
    n = len(table)
    t = [list(row) for row in table]
    kind = rng.choice(["row swap", "column swap", "relabel", "intercalate"])
    if kind == "row swap":
        i = rng.randrange(n)
        j1, j2 = rng.sample(range(n), 2)
        t[i][j1], t[i][j2] = t[i][j2], t[i][j1]
    elif kind == "column swap":
        j1, j2 = rng.sample(range(n), 2)
        for row in t:
            row[j1], row[j2] = row[j2], row[j1]
    elif kind == "relabel":
        # rename two elements throughout: still a group
        a, b = rng.sample(range(n), 2)
        swap = list(range(n))
        swap[a], swap[b] = b, a
        t = [[swap[table[swap[i]][swap[j]]] for j in range(n)] for i in range(n)]
    else:
        # switch a 2x2 Latin subsquare off the identity row and column: the
        # result stays a Latin square with identity 0, but rarely a group
        cells = [
            (i1, i2, j1, j2)
            for i1, i2 in itertools.combinations(range(1, n), 2)
            for j1, j2 in itertools.combinations(range(1, n), 2)
            if t[i1][j1] == t[i2][j2] and t[i1][j2] == t[i2][j1]
        ]
        if not cells:
            return "none", t
        i1, i2, j1, j2 = rng.choice(cells)
        u, v = t[i1][j1], t[i1][j2]
        t[i1][j1] = t[i2][j2] = v
        t[i1][j2] = t[i2][j1] = u
    return kind, t


@pytest.mark.parametrize(
    "spec", small_builder_specs() + [{"kind": "symmetric", "n": 5}], ids=lambda s: str(s)[:60]
)
def test_seeded_light_passes_the_builders(spec):
    g = build_group(spec)
    t = memoryview(g.table[0].obj).cast(g.table[0].format)
    gens = generating_indices(spec, g)
    check_seeded(t, g.order, g.identity, gens, True)
    for seeds in seedings(t, g.order, g.identity, gens):
        assert _light_failure(t, g.order, g.identity, seeds) is None


def test_light_agrees_with_naive_on_perturbed_tables():
    rng = random.Random(20261018)
    bases = [
        (build_group(spec), spec)
        for spec in (
            {"kind": "cyclic", "n": 6},
            {"kind": "cyclic", "n": 8},
            {"kind": "dihedral", "n": 3},
            {"kind": "dihedral", "n": 4},
            {"kind": "symmetric", "n": 3},
            {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2}] * 3},
            {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                                   {"kind": "cyclic", "n": 4}]},
        )
    ]
    seen = {True: 0, False: 0}
    rejected_by_associativity = 0
    for _ in range(240):
        g, spec = rng.choice(bases)
        _, table = _perturbed([list(row) for row in g.table], rng)
        associative = naive_associative(table)
        failure = light_failure(table)
        assert (failure is None) == associative
        flat = array(_typecode(len(table)), itertools.chain.from_iterable(table))
        check_seeded(flat, len(table), g.identity, generating_indices(spec, g), associative)
        if failure is not None:
            x, s, y = failure
            assert table[table[x][s]][y] != table[x][table[s][y]]
            assert is_first_failure(flat, len(table), failure)
        seen[associative] += 1
        names = [f"e{i}" for i in range(len(table))]
        if associative:
            continue
        with pytest.raises(NotAGroup) as caught:
            build_group({"kind": "cayley", "names": names, "table": table})
        rejected_by_associativity += "associat" in str(caught.value)
    assert seen[True] > 20 and seen[False] > 20
    assert rejected_by_associativity > 5


# -- exact validation at every order ---------------------------------------------------


ASSOCIATIVITY_FAILURE = re.compile(r"associativity fails at i=(\d+), j=(\d+), k=(\d+)$")


def cayley(table):
    return {"kind": "cayley", "names": [str(i) for i in range(len(table))], "table": table}


def rejection(table):
    """The NotAGroup that build_group raises on table, after checking that an
    associativity failure names a triple that really fails."""
    with pytest.raises(NotAGroup) as caught:
        build_group(cayley(table))
    found = ASSOCIATIVITY_FAILURE.search(str(caught.value))
    if found:
        x, s, y = map(int, found.groups())
        assert table[table[x][s]][y] != table[x][table[s][y]]
    return caught.value


def z300_with_an_intercalate_switched():
    """Z300 with 3 and 153 swapped at (1,2), (1,152), (151,2) and (151,152):
    a Latin square with identity 0 and inverses, but not associative."""
    t = [[(i + j) % 300 for j in range(300)] for i in range(300)]
    for i, j in [(1, 2), (1, 152), (151, 2), (151, 152)]:
        t[i][j] = 156 - t[i][j]
    return t


NOT_GROUPS = [
    ([[1, 1], [1, 1]], "no two-sided identity element"),
    ([[0, 1, 2], [1, 1, 1], [2, 0, 0]], "element 1 has no two-sided inverse"),
    # index 1 is a two-sided identity although column 0 holds 0 twice
    ([[0, 0, 2], [0, 1, 2], [2, 2, 1]], "element 0 has no two-sided inverse"),
    ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], "element 1 has a right inverse 2 that is not a left"),
]


@pytest.mark.parametrize("table, message", NOT_GROUPS)
def test_tables_without_identity_or_inverses_are_refused(table, message, tmp_path, capsys):
    assert message in str(rejection(table))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(cayley(table)))
    assert main(["rta", "--group", f"@{path}", "-H", "0"]) == 2
    assert message in capsys.readouterr().err


def test_the_z300_intercalate_table_is_refused(tmp_path, capsys):
    table = z300_with_an_intercalate_switched()
    assert ASSOCIATIVITY_FAILURE.search(str(rejection(table)))
    flat = array("H", itertools.chain.from_iterable(table))
    check_seeded(flat, 300, 0, [1], False)
    path = tmp_path / "z300.json"
    path.write_text(json.dumps(cayley(table)))
    assert main(["rta", "--group", f"@{path}", "-H", "0"]) == 2
    assert "associativity fails" in capsys.readouterr().err


def _perturbed_large(table, kind, rng):
    """A perturbation of a group table of any order: the intercalate is found
    from a random cell in O(n^2) rather than by listing them all."""
    n = len(table)
    t = [list(row) for row in table]
    if kind == "row swap":
        i = rng.randrange(n)
        j1, j2 = rng.sample(range(n), 2)
        t[i][j1], t[i][j2] = t[i][j2], t[i][j1]
    elif kind == "column swap":
        j1, j2 = rng.sample(range(n), 2)
        for row in t:
            row[j1], row[j2] = row[j2], row[j1]
    elif kind == "relabel":
        a, b = rng.sample(range(n), 2)
        swap = list(range(n))
        swap[a], swap[b] = b, a
        t = [[swap[table[swap[i]][swap[j]]] for j in range(n)] for i in range(n)]
    else:
        found = []
        while not found:
            i1, j1 = rng.randrange(1, n), rng.randrange(1, n)
            u = t[i1][j1]
            found = [
                (i2, j2)
                for i2 in range(1, n)
                for j2 in [t[i2].index(u)]
                if i2 != i1 and j2 not in (0, j1) and t[i1][j2] == t[i2][j1]
            ]
        i2, j2 = rng.choice(found)
        v = t[i1][j2]
        t[i1][j1] = t[i2][j2] = v
        t[i1][j2] = t[i2][j1] = u
    return t


def test_perturbed_tables_above_256_are_refused():
    # Orders 257, 300 and 600 use two-byte cells; at 600 a pass of Light's
    # test runs over a full block of rows and a short last one.
    rng = random.Random(20261018)
    later_blocks = 0
    for spec in ({"kind": "cyclic", "n": 257}, {"kind": "cyclic", "n": 300},
                 {"kind": "dihedral", "n": 150}, {"kind": "dihedral", "n": 300}):
        base = build_group(spec)
        table = [list(row) for row in base.table]
        n = len(table)
        kinds = ["row swap", "column swap", "relabel"]
        if n % 2 == 0:  # a group of odd order has no intercalate
            kinds.append("intercalate")
        for kind in kinds:
            t = _perturbed_large(table, kind, rng)
            flat = array("H", itertools.chain.from_iterable(t))
            check_seeded(flat, n, 0, generating_indices(spec, base), kind == "relabel")
            if kind == "relabel":
                g = build_group(cayley(t))
                assert all(t[x][g.inverse[x]] == g.identity == t[g.inverse[x]][x]
                           for x in range(n))
                continue
            found = ASSOCIATIVITY_FAILURE.search(str(rejection(t)))
            later_blocks += bool(found) and int(found.group(1)) >= _LIGHT_BLOCK_CELLS // n
    assert later_blocks


def _swaps(t, n, kind, rng, rows):
    """A perturbation of the flat group table t as the cells it swaps within
    rows, (i, j1, j2) for t[i][j1] <-> t[i][j2].  A row swap touches one of
    rows, an intercalate one of rows and one row below rows[0], and a column
    swap moves whole columns."""
    if kind == "row swap":
        return [(rng.choice(rows), *rng.sample(range(1, n), 2))]
    if kind == "column swap":
        j1, j2 = rng.sample(range(1, n), 2)
        return [(i, j1, j2) for i in range(n)]
    # an intercalate: t[i1][j1] = t[i2][j2] and t[i1][j2] = t[i2][j1]
    found = []
    while not found:
        i1, j1 = rng.choice(rows), rng.randrange(1, n)
        u = t[i1 * n + j1]
        found = [
            (i2, j2)
            for i2 in range(rows[0], n)
            for j2 in [t.index(u, i2 * n, (i2 + 1) * n) - i2 * n]
            if i2 != i1 and j2 not in (0, j1) and t[i1 * n + j2] == t[i2 * n + j1]
        ]
    i2, j2 = rng.choice(found)
    return [(i1, j1, j2), (i2, j1, j2)]


def _swapped(t, n, swaps):
    out = array(t.typecode, t)
    for i, j1, j2 in swaps:
        out[i * n + j1], out[i * n + j2] = out[i * n + j2], out[i * n + j1]
    return out


@pytest.mark.parametrize("spec", [{"kind": "cyclic", "n": 1024}, {"kind": "dihedral", "n": 512}],
                         ids=lambda s: f"{s['kind']}:{s['n']}")
def test_light_fills_runs_and_columns_over_many_blocks(spec):
    # Order 1024 makes four blocks of 256 rows.  The builder's generator rows
    # have long runs, copied row by row; a random relabeling leaves no run
    # long enough for that, so every pass on its tables compares the columns
    # in place and builds the right side only for a block that differs.
    # Each perturbation is applied to the table near the top of its second
    # block and, at the renamed cells, to its relabeling, which is then the
    # relabeling of the perturbed table.
    rng = random.Random(20261019)
    g = build_group(spec)
    n = g.order
    rows_per_block = _LIGHT_BLOCK_CELLS // n
    assert n // rows_per_block == 4
    base = array(g.table[0].format, g.table[0].obj)
    gens = generating_indices(spec, g)
    relabeled, pi = relabeled_flat(base, n, rng)
    pi_gens = [pi[x] for x in gens]
    passes = list(light_passes(base, n, g.identity, gens))
    pi_passes = list(light_passes(relabeled, n, pi[g.identity], pi_gens))
    assert passes[0] == gens[0] and not any(in_place(base, n, s) for s in passes)
    assert pi_passes[0] == pi_gens[0] and all(in_place(relabeled, n, s) for s in pi_passes)
    assert _light_failure(memoryview(base), n, g.identity, gens) is None
    assert _light_failure(memoryview(relabeled), n, pi[g.identity], pi_gens) is None
    later_blocks = 0
    for kind in ("row swap", "column swap", "intercalate"):
        swaps = _swaps(base, n, kind, rng, range(rows_per_block, rows_per_block + 8))
        pi_swaps = [(pi[i], pi[j1], pi[j2]) for i, j1, j2 in swaps]
        for table, e, seeds, short in [
            (_swapped(base, n, swaps), g.identity, gens, False),
            (_swapped(relabeled, n, pi_swaps), pi[g.identity], pi_gens, True),
        ]:
            failure = _light_failure(memoryview(table), n, None)
            assert failure is not None and is_first_failure(table, n, failure), kind
            paths = {in_place(table, n, s) for s in light_passes(table, n, None, (), failure[1])}
            assert paths == {short}, kind
            later_blocks += failure[0] >= rows_per_block
            check_seeded(table, n, e, seeds, False)
    assert later_blocks


def test_light_run_split_edge_cases():
    one = array("B", [0])
    assert _light_failure(memoryview(one), 1, None) is None
    assert _light_failure(memoryview(one), 1, 0, (0,)) is None
    n = 128
    # C2^7: with no identity given, s = 0 is one run over the whole row, s = 1
    # has no run longer than 1, s = 32 has runs of 32, one short of the
    # copy path, and s = 64 has runs of exactly _LIGHT_RUN_CELLS.
    xor = array("B", [x ^ y for x in range(n) for y in range(n)])
    assert run_lengths(xor[:n]) == [n]
    assert max(run_lengths(xor[n:2 * n])) == 1
    assert set(run_lengths(xor[32 * n:33 * n])) == {32} and in_place(xor, n, 32)
    assert set(run_lengths(xor[64 * n:65 * n])) == {_LIGHT_RUN_CELLS} and not in_place(xor, n, 64)
    # Z128 seeded with 127: a run of 1, then a long run that ends at the last column.
    z128 = array("B", [(x + y) % n for x in range(n) for y in range(n)])
    assert run_lengths(z128[127 * n:]) == [1, 127]
    for t, e, seeds in [(xor, None, ()), (xor, 0, (1, 64)), (xor, 0, (32, 64)),
                        (z128, 0, (127,)), (z128, None, (127,))]:
        assert _light_failure(memoryview(t), n, e, seeds) is None
        broken = array(t.typecode, t)
        broken[40 * n + 3], broken[40 * n + 63] = broken[40 * n + 63], broken[40 * n + 3]
        failure = _light_failure(memoryview(broken), n, None, seeds)
        assert failure is not None and is_first_failure(broken, n, failure)


def _one_cell_changed(t, n, s, side, x, y):
    """A copy of the flat table t with the one cell changed that the pass for
    s reads at row x, column y: (x*s, y) on the left side, (x*s)*y, and
    (x, s*y) on the right side, x*(s*y)."""
    i, j = (t[x * n + s], y) if side == "left" else (x, t[s * n + y])
    out = array(t.typecode, t)
    out[i * n + j] = (out[i * n + j] + 1) % n
    return out


def _witness_row(t, n, e, s, side, rows, y):
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


def _copy_path_cases(t, n, e, s_left, s_right):
    """(place, side, s, x, y) for one changed cell in each place that a pass
    copies in its own way, each at a row that _witness_row picks."""
    block = _LIGHT_BLOCK_CELLS // n
    last = (n - 1) // block * block  # the first row of the last block
    cases = []

    def add(place, side, s, rows, y):
        x = _witness_row(t, n, e, s, side, rows, y)
        if x is not None:
            cases.append((place, side, s, x, y))

    lengths = run_lengths(t[s_right * n:(s_right + 1) * n])
    longest = lengths.index(max(lengths))
    y0 = sum(lengths[:longest])  # the first column of the longest run
    spill = range(y0, y0 + lengths[longest])
    inside = y0 + lengths[longest] // 2
    below_first_row = range(block + 1, min(2 * block, n))  # in the second block
    add("spilled copy", "right", s_right, below_first_row, inside)
    for y in [y for y in range(n) if y not in spill][:4]:
        add("after the spill", "right", s_right, below_first_row, y)
    col_s = t[s_left::n]
    breaks = [x for x in range(1, n) if x % block and col_s[x] != col_s[x - 1] + 1]
    add("column run break", "left", s_left, breaks, n // 3)
    add("block boundary", "left", s_left, range(block, n, block), n // 3)
    add("block boundary", "left", s_left, range(block - 1, n, block), n // 3)
    if n % block:
        add("short last block", "left", s_left, range(last, n), n // 3)
        add("short last block", "right", s_right, range(last + 1, n), inside)
    return cases


@pytest.mark.parametrize("spec", [{"kind": "cyclic", "n": 1024}, {"kind": "dihedral", "n": 300}],
                         ids=lambda s: f"{s['kind']}:{s['n']}")
def test_one_changed_cell_on_each_copy_path(spec):
    # The pass for s copies the left side by runs of column s, cut at block
    # boundaries, and the right side by the longest run of row s spilled
    # across the whole block, then the other runs and columns over it.  One
    # changed cell in each of those copies must give the naive loop's
    # witness.  The builder's table has long runs.  Its seeded relabeling
    # has none, so its passes compare in place and build a block's right
    # side by these copies only once the block differs.  Order 600 ends in
    # a short block of 164 rows.
    rng = random.Random(20261019)
    g = build_group(spec)
    n = g.order
    base = array(g.table[0].format, g.table[0].obj)
    relabeled, pi = relabeled_flat(base, n, rng)
    places = set()
    # s = a for the left side and a^-2 for the right, so that the other row
    # reading a changed cell comes after x: x*a and x*a^2 follow x in most of
    # the table, and a^-2 has a short run of row s besides its longest.
    a, a_2 = 1, g.inverse[g.multiply(1, 1)]
    for t, e, s_left, s_right, short in [(base, g.identity, a, a_2, False),
                                         (relabeled, pi[g.identity], pi[a], pi[a_2], True)]:
        for place, side, s, x, y in _copy_path_cases(t, n, e, s_left, s_right):
            changed = _one_cell_changed(t, n, s, side, x, y)
            assert in_place(changed, n, s) == short, (place, side)
            assert first_failure(changed, n, s) == (x, s, y), (place, side)
            assert _light_failure(memoryview(changed), n, None, (s,)) == (x, s, y), (place, side)
            places.add(place)
    expected = {"spilled copy", "after the spill", "column run break", "block boundary"}
    if n % (_LIGHT_BLOCK_CELLS // n):
        expected.add("short last block")
    assert places == expected


def _relabeled_group(spec, seed):
    """The flat table of spec's builder renamed by a seeded permutation, its
    identity and the image of 1, whose row has no long run."""
    g = build_group(spec)
    n = g.order
    t, pi = relabeled_flat(array(g.table[0].format, g.table[0].obj), n, random.Random(seed))
    assert in_place(t, n, pi[1])
    return t, n, pi[g.identity], pi[1]


def _block_rows(n):
    """Rows of the first, a middle and the last block of a pass, the last
    taken from the bottom up."""
    block = _LIGHT_BLOCK_CELLS // n
    last = (n - 1) // block * block
    middle = (last // block) // 2 * block or block
    return range(1, block), range(middle, min(middle + block, n)), range(n - 1, last - 1, -1)


def _one_run_blocks(t, n, s):
    """The first rows of the blocks whose rows x*s are consecutive, so that
    the pass for s reads their left side straight from the flat table t."""
    block = _LIGHT_BLOCK_CELLS // n
    col_s = t[s::n]
    return [x0 for x0 in range(0, n, block)
            if all(col_s[x] == col_s[x - 1] + 1 for x in range(x0 + 1, min(x0 + block, n)))]


def _check_one_changed_cell_per_block(t, n, e, s, rng):
    """One changed cell on either side of the pass for s, in the first, a
    middle and the last block, must give the naive loop's witness on the
    same path as the unchanged table.  The number of cells checked."""
    checked = 0
    for rows in _block_rows(n):
        for side in ("left", "right"):
            y = rng.choice([y for y in range(n) if y not in (e, s)])
            x = _witness_row(t, n, e, s, side, rows, y)
            if x is None:
                continue
            changed = _one_cell_changed(t, n, s, side, x, y)
            assert in_place(changed, n, s) == in_place(t, n, s), (s, rows, side)
            failure = _light_failure(memoryview(changed), n, None, (s,))
            assert failure == (x, s, y) and is_first_failure(changed, n, failure), (s, rows, side)
            checked += 1
    return checked


@pytest.mark.parametrize("spec", [{"kind": "cyclic", "n": 1024}, {"kind": "dihedral", "n": 300}],
                         ids=lambda s: f"{s['kind']}:{s['n']}")
def test_one_changed_cell_on_the_in_place_path(spec):
    # One changed cell on either side of an in-place pass, near the top of
    # the first block, near the top of the second and near the end of the
    # last, must give the naive loop's witness.  Order 1024 makes four
    # blocks of 256 rows; order 600 a block of 436 rows and a short one of 164.
    t, n, e, s = _relabeled_group(spec, 20261020)
    block = _LIGHT_BLOCK_CELLS // n
    last = (n - 1) // block * block
    assert (n - last, n % block == 0) in [(256, True), (164, False)]
    assert _check_one_changed_cell_per_block(t, n, e, s, random.Random(20261020)) == 6


def test_two_changed_cells_in_one_in_place_block():
    # The in-place compare stops at the lowest column that differs anywhere
    # in the block, here the later row's.  The witness must still be the
    # first failure in row-major order: the earlier row, at its higher column.
    t, n, e, s = _relabeled_group({"kind": "dihedral", "n": 300}, 20261021)
    block = _LIGHT_BLOCK_CELLS // n
    y_early, y_late = n - 2, 2
    assert {y_early, y_late}.isdisjoint((e, s))
    x_early = _witness_row(t, n, e, s, "right", range(1, block), y_early)
    x_late = _witness_row(t, n, e, s, "right", range(x_early + 1, block), y_late)
    assert x_late is not None
    late_only = _one_cell_changed(t, n, s, "right", x_late, y_late)
    assert _light_failure(memoryview(late_only), n, None, (s,)) == (x_late, s, y_late)
    both = _one_cell_changed(late_only, n, s, "right", x_early, y_early)
    assert first_failure(both, n, s) == (x_early, s, y_early)
    assert _light_failure(memoryview(both), n, None, (s,)) == (x_early, s, y_early)


@pytest.mark.parametrize("factors, paths", [
    ([{"kind": "cyclic", "n": 32}, {"kind": "dihedral", "n": 16}], [True, True, False]),
    ([{"kind": "cyclic", "n": 16}, {"kind": "dihedral", "n": 32}], [True, True, False]),
], ids=["C32xD16", "C16xD32"])
def test_one_changed_cell_on_each_path_of_a_direct_product(factors, paths):
    # A direct product hands Light's test no generators, so its passes take
    # (0,a), (0,b), then (1,1).  The rows of (0,a) and (0,b) have runs of at
    # most 32 cells (exactly 32 for (0,b) in C16xD32, the shape of
    # cyclic:64 x dihedral:32 at the order cap), so both compare in place.
    # Row (1,1) is one long run and a short one, so it copies, and the rows
    # x*(1,1) are consecutive in every block but the last, whose left side is
    # then read straight from the table.
    rng = random.Random(20261025)
    g = build_group({"kind": "direct_product", "factors": factors})
    n = g.order
    t = array(g.table[0].format, g.table[0].obj)
    passes = list(light_passes(t, n, g.identity, ()))
    assert [in_place(t, n, s) for s in passes] == paths
    assert len(_one_run_blocks(t, n, passes[-1])) == n // (_LIGHT_BLOCK_CELLS // n) - 1
    for s in passes:
        assert _check_one_changed_cell_per_block(t, n, g.identity, s, rng) >= 3, s


@pytest.mark.parametrize("spec", [{"kind": "cyclic", "n": 1024}, {"kind": "dihedral", "n": 300},
                                  {"kind": "cyclic", "n": 600}],
                         ids=lambda s: f"{s['kind']}:{s['n']}")
def test_one_changed_cell_against_a_one_run_left_side(spec):
    # A block whose rows x*s are consecutive is compared with the table
    # itself, as bytes.  The identity's pass, given no identity, does that in
    # every block; s = a does it in every block but the one where the cyclic
    # rows wrap, s = a^-1 in every block after that one.  Order 1024 makes
    # four blocks of 256 rows; order 600 a block of 436 and a short one of
    # 164, where only the short block's cells may be compared, as the
    # buffers past them still hold what the full block left there:
    # cyclic:600's pass for a reads the full block from the table and
    # copies the short one.
    rng = random.Random(20261026)
    g = build_group(spec)
    n = g.order
    t = array(g.table[0].format, g.table[0].obj)
    e, a = g.identity, 1
    assert _one_run_blocks(t, n, e) == list(range(0, n, _LIGHT_BLOCK_CELLS // n))
    for s in (e, a, g.inverse[a]):
        assert _light_failure(memoryview(t), n, None, (s,)) is None
    # The identity's pass fails only where column e changes, which cuts the
    # run of the changed row's block.
    for rows in _block_rows(n):
        x = rows[0]
        changed = array(t.typecode, t)
        changed[x * n + e] = (x + 1) % n
        failure = _light_failure(memoryview(changed), n, None, (e,))
        assert failure[0] == x and is_first_failure(changed, n, failure), rows
    for s in (a, g.inverse[a]):
        assert _check_one_changed_cell_per_block(t, n, e, s, rng) >= 3, s


def test_light_in_place_on_a_relabeled_cyclic_table():
    # Order 600 makes a block of 436 rows and a short one; CI runs the same
    # check at the order cap, where each of 64 blocks holds 64 rows.
    assert suites.relabeled_light_problems(600, 20261022) == []


def test_a_cayley_identity_need_not_be_index_0():
    # D12 relabelled so that the identity is index 11
    table = [list(row) for row in build_group({"kind": "dihedral", "n": 6}).table]
    swap = list(range(12))
    swap[0], swap[11] = 11, 0
    relabelled = [[swap[table[swap[i]][swap[j]]] for j in range(12)] for i in range(12)]
    g = build_group(cayley(relabelled))
    assert g.identity == 11
    assert all(g.multiply(x, g.inverse[x]) == 11 for x in range(12))


# -- builders against their formulas ----------------------------------------------


def _perm_of_name(name, degree):
    """The permutation (0-based tuple) written in 1-based cycle notation."""
    perm = list(range(degree))
    for cycle in name.strip("()").split(")("):
        points = [int(p) - 1 for p in cycle.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    return tuple(perm)


def _compose(p, q):
    return tuple(q[x] for x in p)


PERMUTATION_SPECS = [{"kind": "symmetric", "n": n} for n in range(1, 7)] + [
    spec for spec in small_builder_specs() if spec["kind"] == "permutation"
]


@pytest.mark.parametrize("spec", PERMUTATION_SPECS, ids=lambda s: str(s)[:60])
def test_permutation_rows_pack_like_an_array(spec):
    # The rows packed one struct call each are the bytes of an array holding
    # the composition table in the builder's element order.  Row p indexes
    # "p, then q" over q, whose point k is q[p[k]]: zipping the columns
    # cols[p[k]] of all q builds every such permutation at once.
    g = build_group(spec)
    perms = [_perm_of_name(s, spec.get("n") or spec["degree"]) for s in g.names]
    index = {p: i for i, p in enumerate(perms)}
    cols = list(zip(*perms))
    rows = [map(index.__getitem__, zip(*[cols[k] for k in p])) for p in perms]
    expected = array(_typecode(g.order), itertools.chain.from_iterable(rows)).tobytes()
    assert g.table[0].obj == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_lane_sums_agree_with_the_gathers(n):
    # CI runs the same comparison at n = 6
    assert suites.lane_sum_gather_disagreements(n) == []


def _perm_spec(degree, *generators):
    return {"kind": "permutation", "degree": degree, "generators": list(generators)}


# Pairs of specs for one group.  A closure of m! elements is numbered and
# tabled as symmetric:m (its 1-cycle (1) at m = 1); S4 and D8 each from two
# generating sets.
SAME_GROUP = [
    (_perm_spec(n, [list(range(1, min(n, 2) + 1))], [list(range(1, n + 1))]),
     {"kind": "symmetric", "n": n})
    for n in range(1, 7)
] + [
    (_perm_spec(4, [[1, 2]], [[1, 2, 3, 4]]), _perm_spec(4, [[1, 2, 3]], [[3, 4]])),
    (_perm_spec(4, [[1, 2, 3, 4]], [[1, 3]]), _perm_spec(4, [[1, 2, 3, 4]], [[2, 4]])),
]


@pytest.mark.parametrize("first, second", SAME_GROUP,
                         ids=[f"S{n}" for n in range(1, 7)] + ["S4 gens", "D8 gens"])
def test_one_group_one_numbering(first, second):
    # the numbering depends on the group, not on the generators listed
    g, h = build_group(first), build_group(second)
    assert g.table[0].obj == h.table[0].obj
    assert (g.names, g.inverse) == (h.names, h.inverse)


@pytest.mark.parametrize("generators, lane_sums", [
    ([[[1, 2]], [[1, 2, 3]]], True),  # S3
    ([[[2, 7]]], True),  # S2 on two points far apart
    ([[[1, 2, 3]], [[2, 3, 4, 5, 6]]], False),  # A6, half of S6
    ([], False),  # no moved point: 0! = 1 element, gathered
    ([[[2 * i + 1, 2 * i + 2] for i in range(20000)]], False),  # 2 of 40000! elements
], ids=["S3", "S2", "A6", "trivial", "C2 on 40000 points"])
def test_only_all_of_s_m_takes_lane_sums(generators, lane_sums, monkeypatch):
    calls = []

    def recording(perms):
        calls.append(len(perms))
        return _symmetric_cells(perms)

    monkeypatch.setattr(groups, "_symmetric_cells", recording)
    g = build_group({"kind": "permutation", "degree": 40000, "generators": generators})
    assert calls == ([g.order] if lane_sums else [])


def test_s_m_builds_leave_no_cyclic_garbage():
    # cli.main pauses the collector while a command runs, so a cycle left by
    # a build would keep its table alive until the collector runs again
    import gc

    specs = [
        {"kind": "symmetric", "n": 5},
        {"kind": "permutation", "degree": 5, "generators": [[[1, 2, 3, 4, 5]], [[1, 2]]]},
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for spec in specs:
            assert build_group(spec).order == 120
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_gathers_keep_only_the_frontier_rows():
    # A6 on (1 2 3), (2 3 4 5 6) is not all of S_6, so its table is gathered;
    # each row is packed once its children are made, not kept to the end
    import tracemalloc

    g = build_group({"kind": "permutation", "degree": 6,
                     "generators": [[[1, 2, 3]], [[2, 3, 4, 5, 6]]]})
    perms = [_perm_of_name(s, 6) for s in g.names]
    index = {p: i for i, p in enumerate(perms)}
    gens = [_perm_of_name("(1 2 3)", 6), _perm_of_name("(2 3 4 5 6)", 6)]
    tracemalloc.start()
    try:
        cells, inverse = _permutation_cells(perms, index, gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.order, cells, tuple(inverse)) == (360, g.table[0].obj, g.inverse)
    assert peak < 10 ** 6  # all 360 row tuples alive at once take 1.65 MB


@pytest.mark.parametrize("n", [5, 6])
def test_symmetric_rows_follow_the_byte_order(n, monkeypatch):
    # Lanes are read and written in sys.byteorder, so that the bytes are an
    # array's on either kind of machine: swapping the order swaps every cell.
    perms = list(itertools.permutations(range(n)))
    cells = array(_typecode(len(perms)), _symmetric_cells(perms))
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(sys, "byteorder", other)
    cells.byteswap()
    assert _symmetric_cells(perms) == cells.tobytes()


def _expected_table(spec):
    kind = spec["kind"]
    if kind == "cyclic":
        n = spec["n"]
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    if kind == "dihedral":
        n = spec["n"]
        t = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                t[i][j] = (i + j) % n
                t[i][n + j] = n + (j - i) % n
                t[n + i][j] = n + (i + j) % n
                t[n + i][n + j] = (j - i) % n
        return t
    if kind in ("symmetric", "permutation"):
        degree = spec.get("n") or spec["degree"]
        perms = [_perm_of_name(s, degree) for s in build_group(spec).names]
        index = {p: i for i, p in enumerate(perms)}
        return [[index[_compose(p, q)] for q in perms] for p in perms]
    factors = [build_group(f) for f in spec["factors"]]
    sizes = [f.order for f in factors]

    def split(idx):
        parts = []
        for size in reversed(sizes):
            parts.append(idx % size)
            idx //= size
        return parts[::-1]

    def join(parts):
        idx = 0
        for size, p in zip(sizes, parts):
            idx = idx * size + p
        return idx

    order = math.prod(sizes)
    return [
        [join([f.table[a][b] for f, a, b in zip(factors, split(x), split(y))])
         for y in range(order)]
        for x in range(order)
    ]


@pytest.mark.parametrize("spec", small_builder_specs(), ids=lambda s: str(s)[:60])
def test_builder_tables_match_their_formulas(spec):
    g = build_group(spec)
    assert [list(row) for row in g.table] == _expected_table(spec)


@pytest.mark.parametrize("spec, typecode", [
    ({"kind": "cyclic", "n": 3}, "B"),
    ({"kind": "cyclic", "n": 256}, "B"),
    ({"kind": "cyclic", "n": 257}, "H"),
    ({"kind": "dihedral", "n": 128}, "B"),
    ({"kind": "dihedral", "n": 129}, "H"),
    ({"kind": "symmetric", "n": 5}, "B"),
    ({"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                            {"kind": "cyclic", "n": 129}]}, "H"),
    ({"kind": "permutation", "degree": 6, "generators": [[[1, 2, 3, 4, 5, 6]]]}, "B"),
    ({"kind": "cayley", "names": ["e", "x"], "table": [[0, 1], [1, 0]]}, "B"),
])
def test_rows_are_compact_and_read_only(spec, typecode):
    g = build_group(spec)
    assert {row.format for row in g.table} == {typecode}
    assert all(row.readonly for row in g.table)
    # symmetric and permutation tables stay in the bytearray they are made in
    for view in (*g.table, g._flat()):
        with pytest.raises(TypeError):
            view[0] = 1
    assert all(len(row) == g.order for row in g.table)


S6_CLOSURE = {"kind": "permutation", "degree": 6, "generators": [[[1, 2]], [[1, 2, 3, 4, 5, 6]]]}


@pytest.mark.parametrize("spec", small_builder_specs() + [
    {"kind": "symmetric", "n": 5},
    {"kind": "symmetric", "n": 6},
    {"kind": "cyclic", "n": 4096},
    {"kind": "dihedral", "n": 2048},
    S6_CLOSURE,
], ids=lambda s: str(s)[:60])
def test_builders_supply_the_inverses_the_search_finds(spec):
    g = build_group(spec)
    flat = memoryview(g.table[0].obj).cast(_typecode(g.order))
    assert g.inverse == g._find_inverses(flat)


def _rebuilt_cyclic(inverse):
    g = build_group({"kind": "cyclic", "n": 6})
    return Group(6, g.table[0].obj, g.names, kind="cyclic", description="c6", inverse=inverse)


@pytest.mark.parametrize("inverse, message", [
    ([0, 5, 4, 3, 2, 0], "element 5 is not inverted by the supplied 0"),
    ([0, 1, 2, 3, 4, 5], "element 1 is not inverted by the supplied 1"),
    ([0, 5, 4, 3, 2], "must be 6 indices in 0..5"),
    ([0, 5, 4, 3, 2, 7], "must be 6 indices in 0..5"),
    ([0, 5, 4, 3, 2, -1], "must be 6 indices in 0..5"),
])
def test_a_wrong_inverse_tuple_is_refused(inverse, message):
    assert _rebuilt_cyclic([0, 5, 4, 3, 2, 1]).inverse == (0, 5, 4, 3, 2, 1)
    with pytest.raises(NotAGroup, match=message):
        _rebuilt_cyclic(inverse)


ONE_SIDED = [[0, 1, 2, 3], [1, 2, 0, 3], [2, 3, 1, 0], [3, 0, 1, 2]]


@pytest.mark.parametrize("rows", [ONE_SIDED, [list(c) for c in zip(*ONE_SIDED)]],
                         ids=["right inverses", "left inverses"])
def test_a_one_sided_inverse_is_refused(rows):
    # ONE_SIDED has identity 0 and x*inv[x] = 0 for inv = (0, 2, 3, 1), but
    # inv[1]*1 = 2*1 = 3; its transpose fails the other side alone
    cells = bytes(itertools.chain.from_iterable(rows))
    with pytest.raises(NotAGroup, match="element 1 is not inverted by the supplied 2"):
        Group(4, cells, "eabc", kind="cayley", description="magma", inverse=[0, 2, 3, 1])


# -- fuzzing the cayley input path --------------------------------------------------


def reference_row_error(table, n):
    """The message of the cell-by-cell row check: length first, then the
    first cell that is not an int (bools excluded) in 0..n-1."""
    for i, row in enumerate(table):
        if len(row) != n:
            return f"table row {i} has length {len(row)}, expected {n}"
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                return f"table row {i} holds {v!r}, expected 0..{n - 1}"
    return None


CELLS = st.one_of(
    st.integers(min_value=-3, max_value=8),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(min_value=2 ** 15, max_value=2 ** 70),
    st.integers(max_value=-(2 ** 15)),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)


@st.composite
def cayley_specs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    base = [[(i + j) % n for j in range(n)] for i in range(n)]
    rows = draw(st.lists(
        st.one_of(
            st.sampled_from(base),
            st.lists(CELLS, min_size=n, max_size=n),
            st.lists(CELLS, max_size=n + 2),
            st.permutations(range(n)).map(list),
        ),
        min_size=n, max_size=n,
    ))
    table = draw(st.one_of(st.just(rows), st.just(rows[:-1] or [[]]),
                           st.sampled_from([None, "rows", 3, {"0": [0]}, [0, 1], [(0,)]])))
    return {"kind": "cayley", "names": [f"g{i}" for i in range(n)], "table": table}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cayley_specs())
def test_cayley_input_only_raises_spec_errors(spec):
    table, n = spec["table"], len(spec["names"])
    try:
        g = build_group(spec)
    except (InvalidSpec, NotAGroup) as exc:
        rows_ok = isinstance(table, list) and all(isinstance(r, list) for r in table)
        if rows_ok and len(table) == n:
            expected = reference_row_error(table, n)
            if expected is not None:
                assert isinstance(exc, InvalidSpec)
                assert str(exc) == expected
            else:
                assert isinstance(exc, NotAGroup)
        return
    assert [list(row) for row in g.table] == table
    assert naive_associative(table)


def test_cayley_rejects_an_unprintable_integer():
    with pytest.raises(InvalidSpec, match="table row 1 holds an integer of 16610 bits"):
        build_group({"kind": "cayley", "names": ["e", "x"], "table": [[0, 1], [1, 10 ** 5000]]})


@pytest.mark.parametrize("n", [2, 200, 255, 256, 257, 300])
def test_cayley_cells_must_be_below_the_order(n):
    # One-byte rows (order up to 256) are range-checked as bytes, wider rows
    # by their largest cell; both keep n - 1 and refuse n.
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    assert build_group(cayley(table)).order == n
    table[n // 2][n - 1 - n // 2] = n
    with pytest.raises(InvalidSpec, match=f"^table row {n // 2} holds {n}, expected 0..{n - 1}$"):
        build_group(cayley(table))
