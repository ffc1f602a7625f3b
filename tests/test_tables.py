"""The compact table format, Light's associativity test, and the cayley
input path, each checked against a naive reference kept in this file."""

import itertools
import json
import math
import random
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupkit import InvalidSpec, NotAGroup, build_group
from groupkit.cli import main
from groupkit.groups import _LIGHT_BLOCK_CELLS, _light_failure, _typecode

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


def test_light_agrees_with_naive_on_perturbed_tables():
    rng = random.Random(20261018)
    bases = [
        build_group(spec)
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
        g = rng.choice(bases)
        _, table = _perturbed([list(row) for row in g.table], rng)
        associative = naive_associative(table)
        failure = light_failure(table)
        assert (failure is None) == associative
        if failure is not None:
            x, s, y = failure
            assert table[table[x][s]][y] != table[x][table[s][y]]
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
        table = [list(row) for row in build_group(spec).table]
        n = len(table)
        kinds = ["row swap", "column swap", "relabel"]
        if n % 2 == 0:  # a group of odd order has no intercalate
            kinds.append("intercalate")
        for kind in kinds:
            t = _perturbed_large(table, kind, rng)
            if kind == "relabel":
                g = build_group(cayley(t))
                assert all(t[x][g.inverse[x]] == g.identity == t[g.inverse[x]][x]
                           for x in range(n))
                continue
            found = ASSOCIATIVITY_FAILURE.search(str(rejection(t)))
            later_blocks += bool(found) and int(found.group(1)) >= _LIGHT_BLOCK_CELLS // n
    assert later_blocks


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
    assert all(row.readonly and isinstance(row.obj, bytes) for row in g.table)
    with pytest.raises(TypeError):
        g.table[0][0] = 1
    assert all(len(row) == g.order for row in g.table)


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
