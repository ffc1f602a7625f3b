"""The compact table format, Light's associativity test, and the cayley
input path, each checked against a naive reference kept in this file."""

import enum
import functools
import itertools
import json
import math
import random
import re
import reprlib
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupkit import (
    ChoicePolicy,
    ElementSet,
    Group,
    GroupKitError,
    IndexOutOfRange,
    InvalidSpec,
    NotAGroup,
    ScriptedChoiceInvalid,
    build_group,
    enumerate_all_middle_subfactors,
    enumerate_all_middle_transversals,
    enumerate_all_right_transversals,
    rta,
)
from groupkit import groups, oracle
from groupkit.errors import quote
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
from suites import (
    block_rows,
    first_failure,
    on_runs,
    one_cell_changed,
    relabeled_flat,
    run_lengths,
    witness_row,
)

S6_CLOSURE = {"kind": "permutation", "degree": 6, "generators": [[[1, 2]], [[1, 2, 3, 4, 5, 6]]]}
C16xD32 = {"kind": "direct_product",
           "factors": [{"kind": "cyclic", "n": 16}, {"kind": "dihedral", "n": 32}]}

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


def seedings(t, n, e, gens, spec=None):
    """Seeds for Light's test: the identity, a repeated index, an index that
    the first seed reaches, the builder's generators and, for S_m, the swap
    of the last two points with the m-cycle, whose rows have no run of
    _LIGHT_RUN_VIEW_CELLS, so that both of its passes compare columns."""
    g = gens[0] if gens else 1 % n
    seeds = [(e,), (g, g), (g, t[g * n + g]), tuple(gens)]
    if spec is not None and spec["kind"] == "symmetric":
        seeds.append(tuple(_column_seeds(spec["n"])))
    return seeds


def check_seeded(t, n, e, gens, associative, spec=None):
    """Every seeded test on the flat table t, given no identity, returns None
    when the table is associative and else a triple that really fails."""
    for seeds in seedings(t, n, e, gens, spec):
        failure = _light_failure(memoryview(t), n, None, seeds)
        assert (failure is None) == associative, seeds
        assert failure is None or is_first_failure(t, n, failure), (seeds, failure)


def _column_seeds(m):
    """The indices in symmetric:m of the swap of the last two points and the
    m-cycle, which generate S_m."""
    perms = list(itertools.permutations(range(m)))
    return [1 % len(perms), perms.index(tuple(range(1, m)) + (0,))]


def generating_indices(spec, g):
    """Indices that the builder's table of spec is generated from.  For all
    of S_m on m >= 3 points p1 < ... < pm, they are the seeds that its
    builder hands Light's test: the swap (p1 p2), whose row is runs of
    (m-2)! cells, and the cycle (p2 ... pm)."""
    kind = spec["kind"]
    if kind == "cyclic":
        return [1 % g.order]
    if kind in ("symmetric", "permutation"):
        points = sorted({int(p) for name in g.names for p in re.findall(r"\d+", name)})
        if len(points) >= 3 and g.order == math.factorial(len(points)):
            return [g.names.index(f"({points[0]} {points[1]})"),
                    g.names.index("(" + " ".join(map(str, points[1:])) + ")")]
    if kind == "symmetric":
        return _column_seeds(spec["n"])
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
    check_seeded(t, g.order, g.identity, gens, True, spec)
    for seeds in seedings(t, g.order, g.identity, gens, spec):
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
        check_seeded(flat, len(table), g.identity, generating_indices(spec, g), associative,
                     spec)
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
    # identity 0 and x*inv[x] = 0 for inv = (0, 2, 3, 1), but 2*1 = 3; its
    # transpose, below, fails the other side
    ([[0, 1, 2, 3], [1, 2, 0, 3], [2, 3, 1, 0], [3, 0, 1, 2]],
     "element 1 has a right inverse 2 that is not a left inverse"),
    ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 0, 1, 1], [3, 3, 0, 2]],
     "element 1 has a right inverse 3 that is not a left inverse"),
    # s = 1 has its inverse and passes first; 2 is refused at its own pass
    ([[0, 1, 2], [1, 0, 2], [2, 2, 2]], "element 2 has no two-sided inverse"),
    # 2 has no inverse either, but associativity fails at the earlier pass
    ([[0, 1, 2], [1, 0, 2], [2, 1, 1]], "associativity fails at i=2, j=1, k=1"),
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


def _copy_path_cases(t, n, e, s_left, s_right):
    """(place, side, s, x, y) for one changed cell in each place that a pass
    copies in its own way, each at a row that witness_row picks."""
    block = _LIGHT_BLOCK_CELLS // n
    last = (n - 1) // block * block  # the first row of the last block
    cases = []

    def add(place, side, s, rows, y):
        x = witness_row(t, n, e, s, side, rows, y)
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
            changed = one_cell_changed(t, n, s, side, x, y)
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
    checked, problems = suites.changed_cell_problems(t, n, e, s, rng)
    assert problems == []
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
    x_early = witness_row(t, n, e, s, "right", range(1, block), y_early)
    x_late = witness_row(t, n, e, s, "right", range(x_early + 1, block), y_late)
    assert x_late is not None
    late_only = one_cell_changed(t, n, s, "right", x_late, y_late)
    assert _light_failure(memoryview(late_only), n, None, (s,)) == (x_late, s, y_late)
    both = one_cell_changed(late_only, n, s, "right", x_early, y_early)
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
    for rows in block_rows(n):
        x = rows[0]
        changed = array(t.typecode, t)
        changed[x * n + e] = (x + 1) % n
        failure = _light_failure(memoryview(changed), n, None, (e,))
        assert failure[0] == x and is_first_failure(changed, n, failure), rows
    for s in (a, g.inverse[a]):
        assert _check_one_changed_cell_per_block(t, n, e, s, rng) >= 3, s


@pytest.mark.parametrize("spec, name", [({"kind": "symmetric", "n": 6}, "(1 2)"),
                                        (C16xD32, "(0,b)")], ids=["S6", "C16xD32"])
def test_one_changed_cell_on_the_run_path(spec, name):
    # Row (1 2) of S6 is 30 runs of 24 cells and row (0,b) of C16xD32 is 32
    # runs of 32, so each pass compares every run over a whole block as one
    # view per side, and builds a block's right side only once a run
    # differs.  Order 720 makes a block of 364 rows and a short one of 356;
    # order 1024 four blocks of 256 rows.  CI runs the same check on (0,b)
    # in cyclic:64 x dihedral:32, 64 blocks of 64 rows.
    assert suites.changed_cell_light_problems(spec, name, 20261027) == []


def _counted(monkeypatch, name):
    """The argument tuples of every call to groups.<name> from now on."""
    calls = []
    real = getattr(groups, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groups, name, counting)
    return calls


@pytest.mark.parametrize("spec", [{"kind": "symmetric", "n": 6}, S6_CLOSURE],
                         ids=["S6", "S6 closure"])
def test_s6_is_checked_by_60_run_compares(spec, monkeypatch):
    # Both builds hand Light's test (1 2), whose row is 30 runs of 24 cells,
    # then (2 3 4 5 6), whose row has no run of _LIGHT_RUN_VIEW_CELLS.  Over
    # two blocks the first pass makes 2 * 30 run compares and the second
    # compares columns; neither builds a right side.
    checks = _counted(monkeypatch, "_light_failure")
    compares = _counted(monkeypatch, "_run_differs")
    plans = _counted(monkeypatch, "_light_copy_plan")
    g = build_group(spec)
    n = g.order
    t = g._flat()
    seeds = generating_indices(spec, g)
    assert [list(args[3]) for args in checks] == [seeds]
    assert [g.names[x] for x in seeds] == ["(1 2)", "(2 3 4 5 6)"]
    assert list(light_passes(t, n, g.identity, seeds)) == seeds
    assert [on_runs(t, n, x) for x in seeds] == [True, False]
    assert len(compares) == 60 and plans == []


@pytest.mark.parametrize("spec, name, compares", [
    ({"kind": "cyclic", "n": 16}, "8", 2),  # two runs of 8
    ({"kind": "cyclic", "n": 14}, "7", 0),  # two runs of 7
    ({"kind": "symmetric", "n": 5}, "(1 2)", 0),  # 20 runs of 6
    ({"kind": "cyclic", "n": 40}, "20", 2),  # two runs of 20
    ({"kind": "cyclic", "n": 40}, "16", 0),  # runs of 24 and 16, neither dividing 40
    ({"kind": "cyclic", "n": 48}, "8", 0),  # runs of 40 and 8
], ids=["C16 8", "C14 7", "S5 (1 2)", "C40 20", "C40 16", "C48 8"])
def test_short_or_uneven_runs_stay_on_columns(spec, name, compares, monkeypatch):
    # A pass compares runs only when row s is runs of one width of at least
    # _LIGHT_RUN_VIEW_CELLS, over one block here; the pass after it, for 1
    # or the lowest index not reached, compares columns.
    g = build_group(spec)
    n = g.order
    t = array(g.table[0].format, g.table[0].obj)
    s = g.names.index(name)
    assert on_runs(t, n, s) == (compares > 0)
    calls = _counted(monkeypatch, "_run_differs")
    assert _light_failure(memoryview(t), n, g.identity, (s,)) is None
    assert len(calls) == compares
    changed = one_cell_changed(t, n, s, "right", 1, n - 1)
    assert _light_failure(memoryview(changed), n, None, (s,)) == first_failure(changed, n, s)


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
    # a cycle left by a build would keep its table alive until the cyclic
    # collector next runs, which a caller may have paused or never triggers
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
        cells = _permutation_cells(perms, index, gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.order, cells) == (360, g.table[0].obj)
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
    return [suites.product_row(factors, x) for x in range(math.prod(f.order for f in factors))]


@pytest.mark.parametrize("spec", small_builder_specs(), ids=lambda s: str(s)[:60])
def test_builder_tables_match_their_formulas(spec):
    g = build_group(spec)
    assert [list(row) for row in g.table] == _expected_table(spec)


def _product(*factors):
    return {"kind": "direct_product", "factors": list(factors)}


_C2 = {"kind": "cyclic", "n": 2}


# Each row of B is shifted as one int with a lane per cell, the product's
# width: one-byte factors fill two-byte lanes from order 257 on, and in
# C2 x C2 x D65 only the last fold does.
@pytest.mark.parametrize("spec, typecode", [
    (_product(_C2, {"kind": "dihedral", "n": 64}), "B"),
    (_product(_C2, {"kind": "dihedral", "n": 65}), "H"),
    (_product(_C2, _C2, {"kind": "dihedral", "n": 65}), "H"),
], ids=["C2xD64", "C2xD65", "C2xC2xD65"])
def test_direct_products_on_both_sides_of_two_byte_cells(spec, typecode):
    g = build_group(spec)
    assert g.table[0].format == typecode
    assert [list(row) for row in g.table] == _expected_table(spec)


def test_direct_product_sampled_rows_match_the_factors_formula():
    spec = _product({"kind": "cyclic", "n": 8}, {"kind": "dihedral", "n": 32})
    g = build_group(spec)
    factors = [build_group(f) for f in spec["factors"]]
    for x in random.Random(33).sample(range(g.order), 64):
        assert list(g.table[x]) == suites.product_row(factors, x), x


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


@pytest.mark.parametrize("spec", small_builder_specs() + [
    {"kind": "symmetric", "n": 5},
    {"kind": "symmetric", "n": 6},
    {"kind": "cyclic", "n": 4096},
    {"kind": "dihedral", "n": 2048},
    S6_CLOSURE,
], ids=lambda s: str(s)[:60])
def test_builders_supply_the_inverses_the_search_finds(spec):
    # no builder hands over inverses: Light's test finds each, two-sided
    g = build_group(spec)
    t, e = g.table, g.identity
    assert type(g.inverse) is tuple and len(g.inverse) == g.order
    assert all(t[x][y] == e == t[y][x] for x, y in enumerate(g.inverse))


@pytest.mark.parametrize("spec", [{"kind": "dihedral", "n": 6}, {"kind": "symmetric", "n": 4},
                                  C16xD32], ids=["D12", "S4", "C16xD32"])
def test_a_relabeled_cayley_table_gets_two_sided_inverses(spec):
    # renamed by pi, the inverse of pi(x) is pi(x^-1), whichever element each
    # pass of Light's test takes and whichever the closure reaches
    g = build_group(spec)
    n = g.order
    t, pi = relabeled_flat(array(g.table[0].format, g.table[0].obj), n, random.Random(n))
    h = build_group(cayley([list(t[x * n:(x + 1) * n]) for x in range(n)]))
    assert all(h.inverse[pi[x]] == pi[y] for x, y in enumerate(g.inverse))
    assert all(h.table[x][y] == h.identity == h.table[y][x] for x, y in enumerate(h.inverse))


# -- builder tables are the named group ----------------------------------------------


def _name_arithmetic(spec):
    """The group that spec names, on values read off the printed element
    names, with no use of groupkit's tables: (parse, multiply, identity,
    generators), where parse maps a name to its value and fails on a name
    outside the group, multiply is the product, and the generators are
    values that generate the group."""
    kind = spec["kind"]
    if kind == "cyclic":
        n = spec["n"]

        def parse(name):
            assert name.isdigit() and int(name) < n, name
            return int(name)

        return parse, lambda x, y: (x + y) % n, 0, [1 % n]
    if kind == "dihedral":
        # (f, r) is b^f a^r, and a^r b = b a^-r
        n = spec["n"]

        def parse(name):
            f = int(name.startswith("b"))
            power = name[f:]
            r = {"1": 0, "": 0, "a": 1}.get(power)
            if r is None:
                assert power.startswith("a^") and 2 <= int(power[2:]) < n, name
                r = int(power[2:])
            return f, r

        def multiply(x, y):
            return (x[0] + y[0]) % 2, (y[1] - x[1] if y[0] else x[1] + y[1]) % n

        return parse, multiply, (0, 0), [(0, 1 % n), (1, 0)]
    if kind in ("symmetric", "permutation"):
        degree = spec.get("n") or spec["degree"]
        if kind == "symmetric":
            generators = [[[1, 2]], [list(range(1, degree + 1))]]
        else:
            generators = spec["generators"]
        identity = tuple(range(degree))

        def product(cycles):  # the cycles applied left to right
            perms = [_perm_of_name("(" + " ".join(map(str, c)) + ")", degree) for c in cycles]
            return functools.reduce(_compose, perms, identity)

        values = [product(cycles) for cycles in generators]
        return lambda name: _perm_of_name(name, degree), _compose, identity, values
    factors = [_name_arithmetic(f) for f in spec["factors"]]

    def parse(name):
        assert name[0] == "(" and name[-1] == ")", name
        parts = name[1:-1].split(",")
        assert len(parts) == len(factors), name
        return tuple(f[0](part) for f, part in zip(factors, parts))

    def multiply(x, y):
        return tuple(f[1](a, b) for f, a, b in zip(factors, x, y))

    identity = tuple(f[2] for f in factors)
    generators = [identity[:i] + (g,) + identity[i + 1:]
                  for i, f in enumerate(factors) for g in f[3]]
    return parse, multiply, identity, generators


@pytest.mark.parametrize("spec, order", [
    ({"kind": "cyclic", "n": 256}, 256),
    ({"kind": "cyclic", "n": 257}, 257),
    ({"kind": "dihedral", "n": 128}, 256),
    ({"kind": "dihedral", "n": 129}, 258),
    ({"kind": "cyclic", "n": 4096}, 4096),
    ({"kind": "dihedral", "n": 2048}, 4096),
    ({"kind": "symmetric", "n": 5}, 120),
    ({"kind": "symmetric", "n": 6}, 720),
    ({"kind": "permutation", "degree": 11,
      "generators": [[[1, 2]], [[1, 2, 3, 4, 5, 6]], [[7, 8, 9, 10, 11]]]}, 3600),
    (_product({"kind": "cyclic", "n": 64}, {"kind": "dihedral", "n": 32}), 4096),
], ids=["C256", "C257", "D128", "D129", "C4096", "D2048", "S5", "S6", "S6xC5", "C64xD32"])
def test_builder_tables_are_the_named_group(spec, order):
    # build_group has shown by Light's test that the table is a group.  Its
    # names parse one to one onto the group that spec names, grown here from
    # its generators by the names' own arithmetic, and the rows of those
    # generators agree with that arithmetic.  Then the whole table does: the
    # elements whose rows agree are closed under the product, so they hold
    # the subgroup that the generators make in the table, which maps onto
    # the named group and so is all of it.  One spec per builder on each
    # side of the two-byte cells, at the order cap, and past the lane sums
    # of S_m, a closure that is not all of S_m, with its gathers.
    g = build_group(spec)
    parse, multiply, identity, generators = _name_arithmetic(spec)
    elements = [parse(name) for name in g.names]
    group = [identity]
    seen = {identity}
    for x in group:
        for s in generators:
            y = multiply(x, s)
            if y not in seen:
                seen.add(y)
                group.append(y)
    assert len(group) == order == g.order and seen == set(elements)
    index = {x: i for i, x in enumerate(elements)}
    for s in generators:
        row = g.table[index[s]]
        assert [elements[c] for c in row] == [multiply(s, y) for y in elements], g.names[index[s]]


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


# an int past the interpreter's 4,300-digit limit for printing in decimal
UNPRINTABLE = 10 ** 5000

# a field of a hostile spec that no builder takes: sizes of every sign and
# width, ints too long to print, and values of the wrong type
JUNK = st.one_of(
    st.integers(min_value=-2, max_value=0),
    st.integers(min_value=2 ** 31, max_value=2 ** 70),
    st.integers(max_value=-(2 ** 31)),
    st.sampled_from([UNPRINTABLE, -UNPRINTABLE]),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)


def or_junk(good):
    """good half of the time, else JUNK (one_of would flatten JUNK's
    branches in among good's and draw it far more often)."""
    return st.booleans().flatmap(lambda ok: good if ok else JUNK)


@st.composite
def permutation_specs(draw):
    degree = draw(or_junk(st.integers(min_value=1, max_value=6)))
    top = degree + 1 if isinstance(degree, int) and 0 < degree < 2 ** 31 else 7
    # points in range, just out of it, repeated within a cycle, or junk
    points = or_junk(st.integers(min_value=0, max_value=top))
    cycles = or_junk(st.lists(st.lists(points, max_size=4), max_size=3))
    generators = draw(or_junk(st.lists(cycles, max_size=3)))
    return {"kind": "permutation", "degree": degree, "generators": generators}


def hostile_specs():
    sized = st.builds(lambda kind, n: {"kind": kind, "n": n},
                      st.sampled_from(["cyclic", "dihedral", "symmetric"]),
                      or_junk(st.integers(min_value=1, max_value=64)))
    leaf = st.one_of(sized, permutation_specs())

    def product(factor):
        return st.builds(lambda fs: {"kind": "direct_product", "factors": fs},
                         or_junk(st.lists(factor, max_size=3)))

    # factors that are specs, products of specs, empty lists or junk
    return st.one_of(leaf, product(or_junk(st.one_of(leaf, product(leaf)))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hostile_specs())
def test_hostile_specs_only_raise_groupkit_errors(spec):
    # every kind but cayley, whose table has its own fuzz above; a refusal
    # has a short message, and a group that builds stays within the order cap
    with pytest.MonkeyPatch.context() as env:
        env.setenv("GROUPKIT_MAX_ORDER", "48")
        try:
            g = build_group(spec)
        except GroupKitError as exc:
            assert len(str(exc)) <= 200
            return
    assert g.order <= 48


def test_cayley_rejects_an_unprintable_integer():
    with pytest.raises(InvalidSpec, match="table row 1 holds an integer of 16610 bits"):
        build_group({"kind": "cayley", "names": ["e", "x"], "table": [[0, 1], [1, UNPRINTABLE]]})


def _permutation(degree, *cycles):
    return build_group({"kind": "permutation", "degree": degree, "generators": [list(cycles)]})


_Z12 = build_group({"kind": "cyclic", "n": 12})
_H, _K = _Z12.subset([0, 6]), _Z12.subset([0, 4, 8])


# Each entry point given an int too long to print; a limit takes it negative,
# as a positive one is a valid cap.
@pytest.mark.parametrize("call, error", [
    (lambda: _Z12.multiply(UNPRINTABLE, 0), IndexOutOfRange),
    (lambda: _Z12.power(UNPRINTABLE, 1), IndexOutOfRange),
    (lambda: _Z12.singleton(UNPRINTABLE), IndexOutOfRange),
    (lambda: ElementSet(_Z12, [UNPRINTABLE]), IndexOutOfRange),
    (lambda: rta(_H, g0=UNPRINTABLE), IndexOutOfRange),
    (lambda: rta(_H, policy=ChoicePolicy.scripted([UNPRINTABLE])), ScriptedChoiceInvalid),
    (lambda: enumerate_all_right_transversals(_H, limit=-UNPRINTABLE), InvalidSpec),
    (lambda: enumerate_all_middle_transversals(_H, _K, limit=-UNPRINTABLE), InvalidSpec),
    (lambda: enumerate_all_middle_subfactors(_H, _K, limit=-UNPRINTABLE), InvalidSpec),
    (lambda: oracle.all_right_transversals(_H, limit=-UNPRINTABLE), InvalidSpec),
    (lambda: oracle.all_middle_transversals(_H, _K, limit=-UNPRINTABLE), InvalidSpec),
    (lambda: oracle.all_maximal_direct_triples(_H, _K, limit=-UNPRINTABLE), InvalidSpec),
    (lambda: Group(2, bytes([0, 1, 1, 0]), ["e", "x"], kind="cayley", description="c2",
                   generator_names={"a": UNPRINTABLE}), InvalidSpec),
    (lambda: _permutation(UNPRINTABLE, [1, 2]), InvalidSpec),
    (lambda: _permutation(3, [1, UNPRINTABLE]), InvalidSpec),
    (lambda: _permutation(3, [1, UNPRINTABLE, 1]), InvalidSpec),
    (lambda: _permutation(10 ** 6, list(range(1, 3000)) + [1]), InvalidSpec),
], ids=["multiply", "power", "singleton", "ElementSet", "rta-g0", "scripted-pick",
        "right-transversals", "middle-transversals", "middle-subfactors",
        "oracle-right", "oracle-middle", "oracle-maximal", "generator-names",
        "permutation-degree", "cycle-point", "repeated-cycle", "long-repeated-cycle"])
def test_unprintable_ints_raise_short_groupkit_errors(call, error):
    with pytest.raises(error) as info:
        call()
    assert info.value.exit_code == 2
    assert len(str(info.value)) <= 200


def test_quote_shows_unprintable_ints_by_their_size():
    assert quote(UNPRINTABLE) == "an integer of 16610 bits"
    assert quote(-UNPRINTABLE) == "a negative integer of 16610 bits"
    assert quote([[UNPRINTABLE, 1], (UNPRINTABLE,)]) == (
        "[[an integer of 16610 bits, 1], (an inte... (60 characters)"
    )


def test_quote_does_not_lean_on_reprlib_for_long_ints(monkeypatch):
    # Newer interpreters' reprlib returns its own text for an int past the
    # digit limit instead of raising; quote must read the same either way.
    def newer_repr_int(self, x, level):
        return "<int instance with roughly 5001 digits (limit at 4300)>"

    monkeypatch.setattr(reprlib.Repr, "repr_int", newer_repr_int)
    assert quote([UNPRINTABLE, 1]) == "[an integer of 16610 bits, 1]"


@pytest.mark.parametrize("n", [2, 200, 255, 256, 257, 300])
def test_cayley_cells_must_be_below_the_order(n):
    # One-byte rows (order up to 256) are range-checked as bytes, wider rows
    # by their largest cell; both keep n - 1 and refuse n.
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    assert build_group(cayley(table)).order == n
    table[n // 2][n - 1 - n // 2] = n
    with pytest.raises(InvalidSpec, match=f"^table row {n // 2} holds {n}, expected 0..{n - 1}$"):
        build_group(cayley(table))


class _Index:
    """Not an int, though bytes() and array() would take it as 1."""

    def __index__(self):
        return 1

    def __repr__(self):
        return "_Index()"


class _Cell(enum.IntEnum):
    ONE = 1


# Row 0 holds 1 at column 1, so each cell below stands where 1 belongs:
# bytes() would pack True and _Index() as a valid row; only the type gate,
# run before any packing, refuses them.
@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("cell, shown", [(True, "True"), (1.0, "1.0"), (_Index(), "_Index()")],
                         ids=["bool", "float", "__index__"])
def test_cayley_cells_must_be_ints(n, cell, shown):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[0][1] = cell
    with pytest.raises(InvalidSpec, match=f"^table row 0 holds {re.escape(shown)}, "
                                          f"expected 0..{n - 1}$"):
        build_group(cayley(table))


@pytest.mark.parametrize("n", [255, 256, 257])
def test_cayley_cells_may_be_int_subclasses(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[0][1] = _Cell.ONE
    g = build_group(cayley(table))
    assert [list(row) for row in g.table] == table
