import random
import re
import time

import pytest

from groupkit import (
    IndexOutOfRange,
    InvalidSpec,
    NotAGroup,
    NotASubgroup,
    SizeLimitExceeded,
    build_group,
)
from groupkit.groups import Group, _perm_from_cycles, bit_indices
import suites


def test_cyclic_arithmetic(z12):
    assert z12.order == 12
    assert z12.identity == 0
    assert z12.multiply(7, 8) == 3
    assert z12.inverse[5] == 7
    assert z12.power(5, -1) == 7
    assert z12.power(2, 30) == 0
    assert z12.is_abelian()


def test_dihedral_arithmetic(d12):
    a = d12.index_of_name("a")
    b = d12.index_of_name("b")
    # b a b = a^-1, so (ba) a (ba)^-1 lands back on a rotation
    assert d12.multiply(b, b) == d12.identity
    assert d12.multiply(d12.multiply(b, a), b) == d12.power(a, -1)
    assert d12.names[d12.multiply(a, b)] == "ba^5"
    assert not d12.is_abelian()
    assert d12.center().names() == ["1", "a^3"]


def test_symmetric_composition(s3):
    assert s3.order == 6
    t = s3.index_of_name("(1 2)")
    c = s3.index_of_name("(1 2 3)")
    # apply (1 2) first, then (1 2 3)
    assert s3.names[s3.multiply(t, c)] == "(1 3)"
    assert s3.names[s3.multiply(c, t)] == "(2 3)"


def test_direct_product():
    g = build_group({"kind": "direct_product", "factors": [
        {"kind": "cyclic", "n": 2},
        {"kind": "cyclic", "n": 3},
    ]})
    assert g.order == 6
    assert g.is_abelian()
    assert g.names[0] == "(0,0)"
    x = g.index_of_name("(1,1)")
    assert g.power(x, 6) == g.identity
    assert g.power(x, 3) != g.identity  # order 6, so it generates


def test_permutation_kind_closure():
    g = build_group({"kind": "permutation", "degree": 3,
                     "generators": [[[1, 2], [2, 3]]]})
    # one 3-cycle generates C3
    assert g.order == 3
    assert set(g.generator_names) == {"a"}


def test_cayley_kind_roundtrip():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    g = build_group({"kind": "cayley", "table": table, "names": ["e", "x", "y"]})
    assert g.multiply(1, 2) == 0
    assert g.names[1] == "x"


def test_spec_roundtrip():
    from groupkit.cli import _load_group

    assert _load_group("cyclic:5").order == 5
    with pytest.raises(InvalidSpec):
        _load_group("cayley:3")
    with pytest.raises(InvalidSpec):
        _load_group("cyclic:zero")


@pytest.mark.parametrize("bad", [
    {"kind": "nonsense", "n": 3},
    {"kind": "cyclic", "n": 0},
    {"kind": "cyclic", "n": -2},
    {"kind": "symmetric", "n": "three"},
    {"kind": "cayley", "table": [[0, 1], [1, 0], [0, 1]], "names": ["e", "x", "y"]},
    {"kind": "cayley", "table": [[0, 1], [1, 5]], "names": ["e", "x"]},
    {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e", "e"]},
    {"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e"]},
    {"kind": "direct_product", "factors": []},
    {"kind": "permutation", "degree": 2, "generators": [[[1, 3]]]},
    {"kind": "permutation", "degree": 3, "generators": [[[1, 1]]]},
])
def test_invalid_specs(bad):
    with pytest.raises(InvalidSpec):
        build_group(bad)


@pytest.mark.parametrize("bad", ["dihedral:16", [{"kind": "cyclic", "n": 3}], None],
                         ids=["str", "list", "None"])
def test_build_group_refuses_other_types(bad):
    with pytest.raises(InvalidSpec, match=f"got {type(bad).__name__}$"):
        build_group(bad)


@pytest.mark.parametrize("fields", [
    {"kind": "direct_product"},
    {"kind": "dihedral", "n": 2.5},
    {"kind": "cyclic", "n": 0},
    {"kind": "cyclic"},
    {"kind": "cyclic", "n": True},
])
def test_a_directly_built_spec_is_validated(fields):
    with pytest.raises(InvalidSpec):
        build_group(fields)


def test_not_a_group_no_identity():
    # subtraction mod 3: Latin square, no two-sided identity
    table = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
    with pytest.raises(NotAGroup, match="identity"):
        build_group({"kind": "cayley", "table": table, "names": ["p", "q", "r"]})


def test_not_a_group_not_latin():
    table = [[0, 0], [1, 1]]
    with pytest.raises(NotAGroup):
        build_group({"kind": "cayley", "table": table, "names": ["e", "x"]})


def test_not_a_group_nonassociative():
    # a loop of order 5: Latin with identity 0, every element self-inverse,
    # but (1*2)*3 = 1 while 1*(2*3) = 3
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 4, 2, 3],
        [2, 3, 0, 4, 1],
        [3, 4, 1, 0, 2],
        [4, 2, 3, 1, 0],
    ]
    with pytest.raises(NotAGroup, match="associat"):
        build_group({"kind": "cayley", "table": table,
                     "names": ["e", "p", "q", "r", "s"]})


def test_order_cap(monkeypatch):
    with pytest.raises(SizeLimitExceeded):
        build_group({"kind": "cyclic", "n": 5000})
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "5000")
    assert build_group({"kind": "cyclic", "n": 5000}).order == 5000
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "30")
    with pytest.raises(SizeLimitExceeded):
        build_group({"kind": "cyclic", "n": 31})
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "bogus")
    with pytest.raises(InvalidSpec):
        build_group({"kind": "cyclic", "n": 3})


def test_symmetric_order_cap():
    with pytest.raises(SizeLimitExceeded):
        build_group({"kind": "symmetric", "n": 8})  # 40320 > default cap


def test_element_set_algebra(d12):
    s = d12.subset([0, 1, 2])
    t = d12.subset([2, 3])
    assert len(s) == 3
    assert list(s) == [0, 1, 2]
    assert (s & t).indices() == (2,)
    assert (s | t).indices() == (0, 1, 2, 3)
    assert (s - t).indices() == (0, 1)
    assert (s | d12.singleton(5)).indices() == (0, 1, 2, 5)
    assert t <= (s | t)
    assert not s <= t
    assert s.complement() & s == d12.empty_set()
    assert s.complement() | s == d12.full_set()
    assert 1 in s and 3 not in s
    assert bool(s) and not bool(d12.empty_set())
    assert s != t
    assert hash(s) == hash(d12.subset([2, 1, 0]))
    assert s.names() == ["1", "a", "a^2"]


def test_element_set_hash_contract(z12, d12):
    # equal sets hash equal; the same mask in two groups gives unequal sets,
    # and one Python set keeps both
    assert z12.subset([0, 3]) == z12.subset([3, 0])
    assert hash(z12.subset([0, 3])) == hash(z12.subset([3, 0]))
    a, b = z12.subset([0, 1, 2]), d12.subset([0, 1, 2])
    assert a.mask == b.mask
    assert a != b
    assert len({a, b}) == 2
    assert {a, b} - {z12.subset([2, 1, 0])} == {b}


def test_element_set_group_mismatch(z12, d12):
    with pytest.raises(Exception):
        z12.subset([0, 1]) & d12.subset([0, 1])


def test_subset_bounds(z12):
    with pytest.raises(Exception):
        z12.subset([12])
    with pytest.raises(Exception):
        z12.subset([-1])
    with pytest.raises(IndexOutOfRange, match=r"^mask 0x1000 has bits outside 0\.\.11$"):
        z12.subset_from_mask(1 << 12)
    with pytest.raises(IndexOutOfRange, match="has bits outside"):
        z12.subset_from_mask(-1)
    # an ElementSet equals no other type
    assert (z12.full_set() == 3) is False and z12.full_set() != 3
    assert repr(z12) == "Group('cyclic:12', order=12)"


_C4 = build_group({"kind": "cyclic", "n": 4})


# an exponent or a mask must be an int, and a bool is none
@pytest.mark.parametrize("call, error, message", [
    (lambda: _C4.power(1, "2"), InvalidSpec, "exponent '2' is not an integer"),
    (lambda: _C4.power(1, 2.5), InvalidSpec, "exponent 2.5 is not an integer"),
    (lambda: _C4.power(1, True), InvalidSpec, "exponent True is not an integer"),
    (lambda: _C4.power(1, "x" * 100), InvalidSpec, "exponent 'xxxx"),
    (lambda: _C4.subset_from_mask("x"), IndexOutOfRange, "mask 'x' is not an integer"),
    (lambda: _C4.subset_from_mask(True), IndexOutOfRange, "mask True is not an integer"),
    (lambda: _C4.subset_from_mask(1.0), IndexOutOfRange, "mask 1.0 is not an integer"),
], ids=["power-str", "power-float", "power-bool", "power-long-str", "mask-str", "mask-bool",
        "mask-float"])
def test_exponents_and_masks_must_be_ints(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)
    assert len(str(info.value)) <= 200


def test_membership_refuses_what_subset_refuses(z12):
    # a bool is an int but no element index, in a subset or a membership test
    s = z12.subset([0, 1])
    with pytest.raises(IndexOutOfRange):
        z12.subset([True])
    assert True not in s and False not in s
    assert 12 not in s and -1 not in s and "1" not in s
    assert 0 in s and 1 in s


def test_is_subgroup(d12):
    assert d12.trivial_subgroup().is_subgroup()
    assert d12.full_set().is_subgroup()
    assert d12.subset([0, 3]).is_subgroup()  # {1, a^3}
    assert not d12.subset([0, 1]).is_subgroup()  # a has order 6
    assert not d12.empty_set().is_subgroup()


def closed_under_products(s):
    """The definition: s holds the identity and every product of two members."""
    g, m = s.group, s.mask
    return m >> g.identity & 1 == 1 and all(
        m >> g.table[x][y] & 1 for x in bit_indices(m) for y in bit_indices(m)
    )


def two_sided_closure(s):
    """The identity and s, closed under products by s on either side."""
    g = s.group
    gens = s.indices()
    reached = {g.identity, *gens}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for y in gens:
            for z in (g.table[x][y], g.table[y][x]):
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
    return g.subset(reached)


@pytest.mark.parametrize("spec", [
    {"kind": "cyclic", "n": 12},
    {"kind": "dihedral", "n": 6},
    {"kind": "symmetric", "n": 4},
    {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 4}]},
    {"kind": "dihedral", "n": 60},
], ids=lambda s: s["kind"] + (f":{s['n']}" if "n" in s else ""))
def test_is_subgroup_matches_the_definition(spec):
    # Subgroups generated by 1-2 seeded elements, each with one element added
    # and one removed, and without the identity; the product set H*<x> of H
    # and a cyclic subgroup, a subgroup only when it is closed; a seeded set
    # of 1-4 elements with the identity added, and its closure computed here;
    # then the empty set and the set without the identity.
    g = build_group(spec)
    rng = random.Random(20261019)
    seen = {True: 0, False: 0}
    for _ in range(60):
        h = g.subset(rng.sample(range(g.order), rng.randint(1, 2))).generated_subgroup()
        cyclic = g.singleton(rng.randrange(g.order)).generated_subgroup()
        near = g.subset(rng.sample(range(g.order), rng.randint(1, 4))) | g.trivial_subgroup()
        candidates = [h, h | g.singleton(rng.randrange(g.order)), h - g.trivial_subgroup(),
                      g.subset(g.table[x][y] for x in h for y in cyclic),
                      near, two_sided_closure(near)]
        if len(h) > 1:
            candidates.append(h - g.singleton(rng.choice(h.indices())))
        for s in candidates:
            assert s.is_subgroup() == closed_under_products(s), s.shown()
            seen[s.is_subgroup()] += 1
    assert not g.empty_set().is_subgroup()
    assert not g.full_set().complement().is_subgroup()
    assert g.full_set().is_subgroup() and g.trivial_subgroup().is_subgroup()
    assert seen[True] and seen[False]


def test_is_subgroup_of_half_the_order_cap_is_fast():
    # It reads at most |H| log2 |H| products, 22,528 for the 2,048 even
    # residues of Z4096, where checking every pair reads 4,194,304.
    z = build_group({"kind": "cyclic", "n": 4096})
    reads = []

    class CountingRow:
        def __init__(self, row):
            self.row = row

        def __getitem__(self, y):
            reads.append(y)
            return self.row[y]

    z.table = tuple(map(CountingRow, z.table))
    evens = z.subset(range(0, 4096, 2))
    for s, closed in [(evens, True), (evens | z.singleton(1), False),
                      (evens - z.singleton(4094), False)]:
        reads.clear()
        assert s.is_subgroup() is closed
        assert 0 < len(reads) <= 2048 * 11


def test_shown_is_repr_cut_to_a_bounded_prefix(d12):
    short = d12.subset([0, 3, 6])
    assert short.shown() == repr(short)
    z1024 = build_group({"kind": "cyclic", "n": 1024})
    assert z1024.full_set().shown() == repr(z1024.full_set())[:40] + "... (1024 elements)"
    with pytest.raises(NotASubgroup) as exc:
        z1024.subset(range(1, 1024)).require_subgroup("H")
    assert str(exc.value) == "H {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ... (1023 elements) is not a subgroup"


def test_generated_subgroup(d12):
    a = d12.index_of_name("a")
    b = d12.index_of_name("b")
    assert len(d12.subset([a]).generated_subgroup()) == 6
    assert d12.subset([a, b]).generated_subgroup() == d12.full_set()
    assert d12.empty_set().generated_subgroup() == d12.trivial_subgroup()


class CountedRow:
    """A table row that counts the cells read from it."""

    def __init__(self, row, reads):
        self.row, self.reads = row, reads

    def __getitem__(self, y):
        self.reads[0] += 1
        return self.row[y]


@pytest.mark.parametrize("spec", [
    {"kind": "cyclic", "n": 12},
    {"kind": "dihedral", "n": 6},
    {"kind": "symmetric", "n": 4},
    {"kind": "dihedral", "n": 60},
], ids=["C12", "D12", "S4", "D120"])
def test_generated_subgroup_matches_the_closure(spec):
    # The empty set, then seeded sets of 1-4 elements, each also with the
    # identity added and as its closure: each generates its two-sided
    # closure.  is_subgroup stops at the first product outside the set, so
    # it reads at most h * (floor(log2 h) + 1) products for a set of h
    # elements, subgroup or not.
    g = build_group(spec)
    rng = random.Random(20261019)
    sets = [g.empty_set()]
    for _ in range(40):
        s = g.subset(rng.sample(range(g.order), rng.randint(1, 4)))
        sets += [s, s | g.trivial_subgroup(), two_sided_closure(s)]
    table = g.table
    reads = [0]
    for s in sets:
        assert s.generated_subgroup() == two_sided_closure(s), s.shown()
        reads[0] = 0
        g.table = tuple(CountedRow(row, reads) for row in table)
        try:
            s.is_subgroup()
        finally:
            g.table = table
        assert reads[0] <= len(s) * len(s).bit_length(), s.shown()


def test_conjugation(d12):
    b = d12.index_of_name("b")
    rot = d12.subset(range(6))
    assert suites.conjugate(rot, b) == rot  # rotations are normal


def _q8_spec() -> dict:
    """The quaternion group as a cayley spec: elements (sign, unit)."""
    unit = {(u, "1"): (1, u) for u in "1ijk"}
    unit.update({("1", u): (1, u) for u in "ijk"})
    unit.update({(u, u): (-1, "1") for u in "ijk"})
    for u, v, w in ("ijk", "jki", "kij"):
        unit[u, v], unit[v, u] = (1, w), (-1, w)
    elements = [(s, u) for s in (1, -1) for u in "1ijk"]
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[s * t * unit[u, v][0], unit[u, v][1]] for t, v in elements]
             for s, u in elements]
    return {"kind": "cayley", "names": [("-" if s < 0 else "") + u for s, u in elements],
            "table": table}


# one group of each builder kind, of order at most 24, with its number of
# subgroups where it is well known
_C2 = {"kind": "cyclic", "n": 2}
_SMALL_OF_EACH_KIND = [
    ({"kind": "cyclic", "n": 24}, 8),
    ({"kind": "dihedral", "n": 12}, 34),
    ({"kind": "symmetric", "n": 4}, 30),
    ({"kind": "direct_product", "factors": [_C2, _C2, {"kind": "dihedral", "n": 3}]}, None),
    ({"kind": "permutation", "degree": 4, "generators": [[[1, 2, 3]], [[2, 3, 4]]]}, 10),
    (_q8_spec(), 6),
]


@pytest.mark.parametrize("spec, count", _SMALL_OF_EACH_KIND,
                         ids=[spec["kind"] for spec, _ in _SMALL_OF_EACH_KIND])
def test_generated_subgroup_is_the_naive_closure(spec, count):
    # the growth that is_subgroup and generated_subgroup share, against
    # products taken until nothing new appears
    g = build_group(spec)
    subgroups = suites.naive_subgroups(g)
    assert count is None or len(subgroups) == count
    for s in subgroups:
        for x in range(g.order):
            want = suites.naive_closure(g, s.mask | 1 << x)
            assert (s | g.singleton(x)).generated_subgroup().mask == want, (s, g.names[x])


def test_center_of_abelian(z12):
    assert z12.center() == z12.full_set()


def test_bit_indices():
    assert list(bit_indices(0)) == []
    assert list(bit_indices(0b101001)) == [0, 3, 5]


def test_name_lookup(d12, s3):
    assert d12.index_of_name("ba^2") == d12.index_of_name(" ba^2 ")
    assert d12.index_of_name("zz") is None
    # loose whitespace match for permutation names
    assert s3.index_of_name("(12)") == s3.index_of_name("(1 2)")
    # names alike up to whitespace match only exactly: their loose key is dropped
    g = build_group({"kind": "cayley", "table": [[(i + j) % 3 for j in range(3)] for i in range(3)],
                     "names": ["e", "x y", "xy "]})
    assert (g.index_of_name("x y"), g.index_of_name("xy ")) == (1, 2)
    assert g.index_of_name("xy") is None and g.index_of_name("x\ty") is None
    # the loose keys are made on the first miss, which may be a fresh group's
    # first lookup
    fresh = build_group({"kind": "symmetric", "n": 3})
    assert fresh.index_of_name("(1\t2 3)") == fresh.names.index("(1 2 3)")


@pytest.mark.parametrize("generator_names, message", [
    ({"ab": 1}, "generator symbol 'ab' must be a single letter"),
    ({"1": 1}, "generator symbol '1' must be a single letter"),
    ({"a": 2}, "generator 'a' maps to invalid index 2"),
    ({"a": -1}, "generator 'a' maps to invalid index -1"),
    # a value of any type is refused, and shown, without a TypeError
    ({1: 0}, "generator symbol 1 must be a single letter"),
    ({"a": "x"}, "generator 'a' maps to invalid index 'x'"),
    ({"a": True}, "generator 'a' maps to invalid index True"),
    # dict() would take a string of pairs, and raise a ValueError on "ab"
    ("ab", "generator names must be a dict, not str"),
])
def test_group_refuses_bad_generator_names(generator_names, message):
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        Group(2, bytes([0, 1, 1, 0]), ["e", "x"], kind="cayley", description="c2",
              generator_names=generator_names)


@pytest.mark.parametrize("n, cells, names, generators, labels, message", [
    (300, b"\0" * 3, [str(i) for i in range(300)], (), {},
     "a table of order 300 takes 180000 bytes, not 3"),
    (2, bytes([0, 1, 1, 0]), ["e", "x"], [5], {}, "generator 5 is not an element index in 0..1"),
    (2, bytes([1, 0, 0, 1, 9]), ["x", "y"], (), {}, "a table of order 2 takes 4 bytes, not 5"),
    (2, bytes([0, 1, 1, 0]), ["e"], (), {}, "order 2 needs 2 element names, got 1"),
    # each of these was used before it was checked: a group of order True, a
    # TypeError from memoryview(), from len() and from iterating an int
    (True, bytes([0]), ["e"], (), {}, "a group's order must be a positive integer, not True"),
    (2, [0, 1, 1, 0], ["e", "x"], (), {},
     "a table's cells must be bytes or a bytearray, not list"),
    (2, bytes([0, 1, 1, 0]), (s for s in "ex"), (), {},
     "element names must be a list or tuple, not generator"),
    (2, bytes([0, 1, 1, 0]), ["e", "x"], 1, {}, "generators must be a list or tuple, not int"),
    # each of these was taken, a name through str(): [0, 1.5] named a group
    # ('0', '1.5'), and [1, "1"] was refused as not pairwise distinct
    (2, bytes([0, 1, 1, 0]), [0, 1.5], (), {},
     "kind, description and names must be str, not 0"),
    (2, bytes([0, 1, 1, 0]), [1, "1"], (), {},
     "kind, description and names must be str, not 1"),
    (2, bytes([0, 1, 1, 0]), ["e", "x"], (), {"kind": 3},
     "kind, description and names must be str, not 3"),
    (2, bytes([0, 1, 1, 0]), ["e", "x"], (), {"description": None},
     "kind, description and names must be str, not None"),
], ids=["short-cells", "generator-out-of-range", "extra-cell", "too-few-names",
        "order-bool", "cells-list", "names-generator", "generators-int",
        "names-not-str", "names-int-and-str", "kind-int", "description-none"])
def test_group_refuses_a_malformed_table(n, cells, names, generators, labels, message):
    labels = {"kind": "cayley", "description": "x"} | labels
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        Group(n, cells, names, generators=generators, **labels)


def test_generator_names_are_checked_before_the_table():
    # a bad symbol is refused as such, even on a table that is no group:
    # this one fails associativity at i=2, j=1, k=1
    cells = bytes([0, 1, 2, 1, 0, 2, 2, 1, 1])
    with pytest.raises(InvalidSpec, match="^generator symbol 'ab' must be a single letter$"):
        Group(3, cells, ["0", "1", "2"], kind="cayley", description="x",
              generator_names={"ab": 1})


def test_large_group_exact_validation():
    # every order is checked exactly, by Light's test; still a group
    g = build_group({"kind": "cyclic", "n": 300})
    assert g.order == 300
    assert g.multiply(299, 1) == 0


@pytest.mark.parametrize("spec", [
    {"kind": "symmetric", "n": 1700},
    {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2048},
                                           {"kind": "cyclic", "n": 4096}]},
    {"kind": "direct_product", "factors": [{"kind": "symmetric", "n": 10 ** 6},
                                           {"kind": "cyclic", "n": 2}]},
])
def test_order_is_refused_from_the_spec(spec):
    # refused before any factor or factorial is built, and the message
    # names the limit rather than the order
    with pytest.raises(SizeLimitExceeded, match="above the limit 4096$"):
        build_group(spec)


def test_an_over_cap_table_is_refused_without_a_copy(monkeypatch):
    # the spec is checked where it lies, so refusing a table past the cap
    # costs no memory of its size
    import tracemalloc

    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "16")
    row = list(range(1024))
    spec = {"kind": "cayley", "names": [str(i) for i in range(1024)], "table": [row] * 1024}
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded, match="^cayley group has order above the limit 16$"):
            build_group(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_a_cayley_table_is_packed_into_one_buffer():
    # each row is written into the table as it is packed, so no packed row
    # outlives its check: a join of all rows would hold the table twice
    import tracemalloc

    n = 1024
    base = list(range(n))
    spec = {"kind": "cayley", "names": [str(i) for i in range(n)],
            "table": [base[i:] + base[:i] for i in range(n)]}
    tracemalloc.start()
    try:
        g = build_group(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.table[5][n - 1] == 4
    # the table's two-byte cells, and Light's 1 MiB of block buffers
    assert peak < 1.8 * n * n * 2


def test_a_fault_anywhere_in_the_spec_comes_before_the_order_cap():
    # the first factor alone passes the cap, the fault is in the last
    spec = {"kind": "direct_product", "factors": [
        {"kind": "cyclic", "n": 5000},
        {"kind": "direct_product", "factors": [{"kind": "symmetric", "n": 10 ** 6}]},
        {"kind": "cyclic", "n": 0},
    ]}
    with pytest.raises(InvalidSpec, match="^cyclic group needs a positive integer n$"):
        build_group(spec)


def test_spec_arrays_may_be_lists_or_tuples():
    c3 = ((0, 1, 2), [1, 2, 0], (2, 0, 1))
    spec = {"kind": "direct_product", "factors": (
        {"kind": "cayley", "names": ("e", "x", "y"), "table": c3},
        {"kind": "permutation", "degree": 3, "generators": (((1, 2),), [[2, 3]])},
    )}
    g = build_group(spec)
    assert g.order == 18
    assert g.names[:4] == ("(e,())", "(e,(2 3))", "(e,(1 2))", "(e,(1 2 3))")


def test_permutation_closure_ignores_unmoved_points():
    import tracemalloc

    tracemalloc.start()
    try:
        g = build_group({"kind": "permutation", "degree": 10 ** 6,
                         "generators": [[[1, 2]], [[999999, 10 ** 6]]]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    assert g.order == 4
    assert g.names == ("()", "(999999 1000000)", "(1 2)", "(1 2)(999999 1000000)")
    assert g.description == "permutation:deg1000000"


def test_permutation_generator_builds_in_linear_time():
    # one generator of 20,000 disjoint transpositions: an order-2 group
    cycles = [[2 * i + 1, 2 * i + 2] for i in range(20000)]
    started = time.perf_counter()
    g = build_group({"kind": "permutation", "degree": 40000, "generators": [cycles]})
    elapsed = time.perf_counter() - started
    assert g.order == 2
    assert elapsed < 1.0


def test_overlapping_cycles_compose_left_to_right():
    g = build_group({"kind": "permutation", "degree": 4,
                     "generators": [[[1, 2], [2, 3], [3, 4]]]})
    assert g.names == ("()", "(1 2 3 4)", "(1 3)(2 4)", "(1 4 3 2)")
    assert g.generator_names == {"a": 3}

    def composed(cycles, position):
        # each cycle as a full permutation, applied after the ones before it
        perm = tuple(range(len(position)))
        for cycle in cycles:
            step = list(range(len(position)))
            for p, q in zip(cycle, cycle[1:] + cycle[:1]):
                step[position[p]] = position[q]
            perm = tuple(step[x] for x in perm)
        return perm

    rng = random.Random(5)
    for _ in range(500):
        points = rng.sample(range(1, 12), rng.randint(1, 8))
        position = {p: i for i, p in enumerate(points)}
        cycles = [
            tuple(rng.sample(points, rng.randint(1, len(points))))
            for _ in range(rng.randint(0, 5))
        ]
        assert _perm_from_cycles(cycles, position) == composed(cycles, position)


def _nested_product(depth):
    spec = {"kind": "cyclic", "n": 1}
    for _ in range(depth):
        spec = {"kind": "direct_product", "factors": [spec]}
    return spec


@pytest.mark.parametrize("depth", [400, 5000])
def test_deep_spec_is_invalid(depth):
    # 400 deep passes the check of the spec tree and overflows the build;
    # 5000 deep overflows the check itself
    with pytest.raises(InvalidSpec, match="nested too deeply"):
        build_group(_nested_product(depth))
