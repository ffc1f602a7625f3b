import itertools
import random

import pytest

from groupkit import GroupMismatch, NotASubgroup, algorithms, build_group, oracle
from groupkit import products
from groupkit.groups import bit_indices
from groupkit.products import (
    classify_mid,
    double_coset,
    is_direct_pair,
    is_direct_triple,
    is_middle_direct,
    is_middle_transversal,
    is_right_transversal,
    mid_director,
    mid_director_subgroups,
    mid_tag,
    set_product,
)
from groupkit.words import parse_element, parse_subset
import suites


def test_set_product_brute_force(d12):
    a = parse_subset(d12, "1,a,b")
    b = parse_subset(d12, "a^2,ba")
    want = {d12.multiply(x, y) for x in a for y in b}
    assert set(set_product(a, b)) == want


def test_set_product_known_values(d12, empty_mid_pair):
    h, k = empty_mid_pair
    hk = set_product(h, k)
    assert sorted(hk.names()) == sorted(["1", "a", "a^3", "a^4", "b", "ba", "ba^3", "ba^4"])
    assert hk.complement().names() == ["a^2", "a^5", "ba^2", "ba^5"]


def test_set_product_empty(d12):
    assert not set_product(d12.empty_set(), d12.full_set())


def test_direct_pair(d12, empty_mid_pair, proper_mid_pair):
    h_em, k_em = empty_mid_pair
    assert not is_direct_pair(h_em, k_em)  # 16 pairs, 8 products
    h_pr, k_pr = proper_mid_pair
    assert is_direct_pair(h_pr, k_pr)
    assert len(set_product(h_pr, k_pr)) == 8


def test_double_coset(d12, empty_mid_pair):
    h, k = empty_mid_pair
    x = parse_element(d12, "a^2")
    cell = double_coset(h, x, k)
    assert cell == set_product(h, k).complement()
    assert double_coset(h, 0, k) == set_product(h, k)


def test_double_coset_requires_subgroups(d12):
    with pytest.raises(NotASubgroup):
        double_coset(d12.subset([0, 1]), 0, d12.trivial_subgroup())


def test_middle_direct_and_triple(d12, proper_mid_pair):
    h, k = proper_mid_pair
    # {1, a^2} splits into disjoint cells but the a^2 cell is undersized,
    # so the product is middle direct without being direct
    x = parse_subset(d12, "1,a^2")
    assert is_middle_direct(h, x, k)
    assert not is_direct_triple(h, x, k)
    assert set_product(set_product(h, x), k) == d12.full_set()
    # the union of the cells is given by its size, the order when it is G
    assert products._cells_union(d12, h, x, k) == d12.order
    # a single element of Mid gives a direct triple
    assert is_direct_triple(h, parse_subset(d12, "a^4"), k)
    assert products._cells_union(d12, h, parse_subset(d12, "a^4"), k) == len(h) * len(k)
    # 1 and a^3 land in the same cell: not middle direct
    y = parse_subset(d12, "1,a^3")
    assert not is_middle_direct(h, y, k)
    assert not is_direct_triple(h, y, k)


def test_empty_x_cases(d12, empty_mid_pair):
    h, k = empty_mid_pair
    empty = d12.empty_set()
    assert is_middle_direct(h, empty, k)  # vacuous
    assert is_direct_triple(h, empty, k)
    assert not is_middle_transversal(h, empty, k)
    # the union of no cells is empty: its size is 0
    assert products._cells_union(d12, h, empty, k) == 0


def _naive_cell(g, a, x, b):
    """The products a*x*b over A x B, one table lookup each."""
    return [g.multiply(g.multiply(u, x), v) for u in a for v in b]


# Groups on which the kernels are compared with _naive_cell: two nonabelian
# groups of order 12 and 24, and a direct product.
KERNEL_GROUPS = {
    "D12": {"kind": "dihedral", "n": 6},
    "S4": {"kind": "symmetric", "n": 4},
    "C2xD6": {"kind": "direct_product",
              "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}]},
}


def _random_subset(g, rng, max_size):
    return g.subset(rng.sample(range(g.order), rng.randint(0, max_size)))


@pytest.mark.parametrize("spec", KERNEL_GROUPS.values(), ids=KERNEL_GROUPS)
def test_mid_director_matches_definition(spec):
    # Seeded arbitrary subsets, from empty to |A||B| above the order
    g = build_group(spec)
    rng = random.Random(20)
    kinds = set()
    for _ in range(40):
        a, b = _random_subset(g, rng, 6), _random_subset(g, rng, 6)
        want = {x for x in range(g.order)
                if len(set(_naive_cell(g, a, x, b))) == len(a) * len(b)}
        assert set(mid_director(a, b)) == want, (a, b)
        kinds.add("empty" if not want else "full" if len(want) == g.order else "proper")
    assert kinds == {"empty", "proper", "full"}
    other = build_group({"kind": "cyclic", "n": g.order})
    with pytest.raises(GroupMismatch):
        mid_director(a, other.full_set())


@pytest.mark.parametrize("spec", KERNEL_GROUPS.values(), ids=KERNEL_GROUPS)
def test_products_and_triple_predicates_match_definition(spec):
    g = build_group(spec)
    rng = random.Random(21)
    outcomes = set()
    for _ in range(80):
        a, x, b = (_random_subset(g, rng, size) for size in (4, 6, 4))
        cells = [_naive_cell(g, a, t, b) for t in x]
        middle = all(set(c).isdisjoint(d) for c, d in itertools.combinations(cells, 2))
        direct = len(set(itertools.chain(*cells))) == len(a) * len(x) * len(b)
        assert is_middle_direct(a, x, b) == middle, (a, x, b)
        assert is_direct_triple(a, x, b) == direct, (a, x, b)
        ab = set(_naive_cell(g, a, g.identity, b))
        assert set(set_product(a, b)) == ab
        assert is_direct_pair(a, b) == (len(ab) == len(a) * len(b))
        outcomes.add((middle, direct))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_kernels_on_the_order_1_group():
    g = build_group({"kind": "cyclic", "n": 1})
    one = g.full_set()
    assert mid_director(one, one) == one == mid_director_subgroups(one, one)
    assert set_product(one, one) == one == double_coset(one, 0, one)
    assert is_middle_transversal(one, one, one) and products.is_middle_factor(one, one, one)
    assert algorithms._coset_blocks(one, one)[0] == [1]
    assert algorithms.mta(one, one).output == one


def test_kernels_with_a_one_element_side(d12):
    # A gather at one index must still give a tuple: H = {1} or K = {1}, and
    # one-element subsets that are not subgroups.
    e = d12.trivial_subgroup()
    for h in suites.subgroups_of(d12):
        for a, b in ((h, e), (e, h)):
            want = [sum(1 << y for y in set(_naive_cell(d12, a, x, b))) for x in range(d12.order)]
            assert algorithms._coset_blocks(a, b)[0] == want
            assert mid_director(a, b) == d12.full_set() == mid_director_subgroups(a, b)
            assert is_middle_transversal(a, algorithms.mta(a, b).output, b)
    for u in range(d12.order):
        single = d12.singleton(u)
        for other in (single, parse_subset(d12, "a,b,ba^2")):
            assert mid_director(single, other) == d12.full_set()
            assert set(set_product(single, other)) == set(_naive_cell(d12, single, d12.identity, other))


def test_coset_blocks_within_a_mask_against_the_oracle(d12, monkeypatch):
    # Walked over G, each element gets its double coset, Mid is the union of
    # the blocks of |H||K| elements, and one cell is built per block
    cell_maker = products._cell_maker
    built = [0]

    def counting_maker(*args):
        cell_of = cell_maker(*args)

        def counted(x):
            built[0] += 1
            return cell_of(x)
        return counted

    monkeypatch.setattr(products, "_cell_maker", counting_maker)
    kinds = set()
    for g in suites.small_fleet() + [d12]:
        for h, k in suites.subgroup_pairs(g):
            partition = [b.mask for b in oracle.double_coset_partition(h, k).blocks]
            want = [next(b for b in partition if b >> x & 1) for x in range(g.order)]
            built[0] = 0
            blocks, mid = products._coset_blocks(h, k)
            assert blocks == want, (h, k)
            assert mid == oracle._raw_mid_mask(g, h.mask, k.mask), (h, k)
            assert built[0] == len(partition), (h, k)
            kinds.add(mid != 0)
    assert kinds == {False, True}


def test_mid_director_of_an_empty_side_is_everything(d12):
    # |A*x*B| = 0 = |A||B| for every x
    empty, b = d12.empty_set(), parse_subset(d12, "1,a,b")
    assert mid_director(empty, b) == mid_director(b, empty) == d12.full_set()
    assert mid_director(empty, empty) == d12.full_set()


def test_mid_director_subgroup_fast_path_agrees():
    # Both kernels against the oracle's loop over x, on every subgroup pair:
    # either side the smaller, and |H||K| at and above the order
    def cmp(u, v):
        return (u > v) - (u < v)

    shapes, pairs = set(), 0
    for kind, n in [("cyclic", 12), ("dihedral", 6), ("symmetric", 4),
                    ("dihedral", 4), ("dihedral", 10), ("cyclic", 24)]:
        g = build_group({"kind": kind, "n": n})
        for h, k in suites.subgroup_pairs(g):
            want = oracle._raw_mid_mask(g, h.mask, k.mask)
            assert mid_director(h, k).mask == want == mid_director_subgroups(h, k).mask, (h, k)
            shapes.add((cmp(len(h), len(k)), cmp(len(h) * len(k), g.order)))
            pairs += 1
    assert pairs == 1840
    assert {(-1, 0), (1, 0), (-1, 1), (1, 1)} <= shapes


@pytest.mark.parametrize("spec", KERNEL_GROUPS.values(), ids=KERNEL_GROUPS)
def test_mid_director_on_a_subgroup_and_a_subset(spec):
    # One side a subgroup, the other not, so no cell decides more than its x
    g = build_group(spec)
    rng = random.Random(22)
    kinds = set()
    for h in suites.subgroups_of(g):
        for _ in range(5):
            s = _random_subset(g, rng, 8)
            while s.is_subgroup():
                s = _random_subset(g, rng, 8)
            for a, b in ((h, s), (s, h)):
                want = oracle._raw_mid_mask(g, a.mask, b.mask)
                assert mid_director(a, b).mask == want, (a, b)
                kinds.add("empty" if not want else "full" if want == g.full_mask else "proper")
    assert kinds == {"empty", "proper", "full"}


@pytest.mark.parametrize("spec", KERNEL_GROUPS.values(), ids=KERNEL_GROUPS)
def test_mid_director_builds_one_cell_per_block_for_subgroups(spec, monkeypatch):
    # Counted cells, not time: one per double coset for subgroups, one per x
    # otherwise, none when |A||B| > n
    g = build_group(spec)
    cell_maker = products._cell_maker
    built = [0]

    def counting_maker(*args):
        cell_of = cell_maker(*args)

        def counted(x):
            built[0] += 1
            return cell_of(x)
        return counted

    def cells(a, b):
        built[0] = 0
        mid_director(a, b)
        return built[0]

    monkeypatch.setattr(products, "_cell_maker", counting_maker)
    rng = random.Random(23)
    for h, k in suites.subgroup_pairs(g):
        if len(h) * len(k) > g.order:
            assert cells(h, k) == 0
            continue
        assert cells(h, k) == len(oracle.double_coset_partition(h, k).blocks), (h, k)
    shortcuts = set()
    for _ in range(20):
        a, b = _random_subset(g, rng, 6), _random_subset(g, rng, 6)
        if a.is_subgroup() and b.is_subgroup():
            continue
        shortcut = len(a) * len(b) > g.order
        assert cells(a, b) == (0 if shortcut else g.order), (a, b)
        shortcuts.add(shortcut)
    assert shortcuts == {False, True}


class _CountingRows:
    """A group's table rows, counting the reads of a row."""

    def __init__(self, rows):
        self.rows, self.reads = rows, 0

    def __getitem__(self, x):
        self.reads += 1
        return self.rows[x]


@pytest.mark.parametrize("spec", KERNEL_GROUPS.values(), ids=KERNEL_GROUPS)
def test_mid_director_subgroups_conjugates_over_the_smaller_side(spec):
    # Counted table reads, not time: besides the subgroup checks and one row
    # per x, each read is one conjugation, at most n*(min(|H|, |K|) - 1)
    g = build_group(spec)
    pairs = [(h, k) for h, k in suites.subgroup_pairs(g)
             if len(h) != len(k) and mid_director(h, k)]
    g.table = rows = _CountingRows(g.table)

    def reads(call, *args):
        rows.reads = 0
        call(*args)
        return rows.reads

    smaller = set()
    for h, k in pairs:
        checks = reads(h.is_subgroup) + reads(k.is_subgroup)
        conjugations = reads(mid_director_subgroups, h, k) - checks - g.order
        least = min(len(h), len(k))
        # every x takes at least one, unless the smaller side is trivial
        assert g.order * (least > 1) <= conjugations <= g.order * (least - 1), (h, k)
        smaller.add("H" if len(h) < len(k) else "K")
    assert smaller == {"H", "K"}


def test_mid_director_subgroups_rejects_non_subgroup(d12):
    with pytest.raises(NotASubgroup):
        mid_director_subgroups(d12.subset([1]), d12.trivial_subgroup())


def test_known_mid_values(d12, empty_mid_pair, proper_mid_pair):
    h_em, k_em = empty_mid_pair
    assert not mid_director_subgroups(h_em, k_em)
    h_pr, k_pr = proper_mid_pair
    mid = mid_director_subgroups(h_pr, k_pr)
    assert mid == set_product(h_pr, k_pr)
    assert len(mid) == 8


def test_classify_mid(d12, s3, empty_mid_pair, proper_mid_pair):
    # classify_mid returns the tag that mid_tag gives its middle director
    e = s3.trivial_subgroup()
    for (h, k), tag, size in [(empty_mid_pair, "Empty", 0), (proper_mid_pair, "ProperNonempty", 8),
                              ((e, e), "Full", 6)]:
        mid = mid_director_subgroups(h, k)
        assert len(mid) == size
        assert classify_mid(h, k) == mid_tag(mid) == tag


def test_transversal_predicates(d12, z12, empty_mid_pair):
    h, k = empty_mid_pair
    for text in ("1,a^5", "1,ba^2", "1,ba^5"):
        assert is_middle_transversal(h, parse_subset(d12, text), k)
    assert not is_middle_transversal(h, parse_subset(d12, "1,a"), k)
    assert not is_middle_transversal(h, parse_subset(d12, "1"), k)
    h3 = z12.subset([0, 3, 6, 9])
    assert is_right_transversal(h3, z12.subset([0, 1, 2]))
    assert not is_right_transversal(h3, z12.subset([0, 1, 3]))
    assert not is_right_transversal(h3, z12.subset([0, 1]))


def test_middle_factor(s3, d12, proper_mid_pair):
    # coprime pair in S3: subgroup of order 2 and of order 3
    subs = suites.subgroups_of(s3)
    h = next(s for s in subs if len(s) == 2)
    k = next(s for s in subs if len(s) == 3)
    assert products.is_middle_factor(h, s3.singleton(s3.identity), k)
    h_pr, k_pr = proper_mid_pair
    assert not products.is_middle_factor(h_pr, d12.subset([0]), k_pr)


def test_direct_middle_verdict_against_the_definitions(d12):
    # msfa's output, that output less its largest element, and mta's output,
    # on every subgroup pair with a nonempty Mid; each field is judged
    # naively, from Group.multiply and the oracle's Mid by definition
    cases, outcomes = 0, set()
    for g in [*suites.small_fleet(), d12]:
        for h, k in suites.subgroup_pairs(g):
            mid = oracle._raw_mid_mask(g, h.mask, k.mask)
            if not mid:
                continue
            x = algorithms.msfa(h, k).output
            short = g.subset_from_mask(x.mask & ~(1 << x.mask.bit_length() - 1))
            for y in (x, short, algorithms.mta(h, k).output):
                hxk = {g.multiply(g.multiply(a, t), b) for a in h for t in y for b in k}
                verdict = products.direct_middle_verdict(h, y, k)
                assert list(verdict.items()) == [
                    ("mid_size", mid.bit_count()),
                    ("covers_group", len(hxk) == g.order),
                    ("direct", suites.raw_direct_triple(g, h, y, k)),
                    ("maximal", all(m in hxk for m in bit_indices(mid))),
                ], (g.description, h, y, k)
                outcomes.add((verdict["direct"], verdict["maximal"]))
                cases += 1
    # both branches: a direct X, maximal or one short, and mta's X that is not direct
    assert cases == 3 * 323 and outcomes == {(True, True), (True, False), (False, True)}


def test_equivalent_conditions_for_double_coset_representatives():
    # For X with as many elements as there are double cosets HgK, these say
    # the same: X is a complete set of representatives; H*X*K is middle
    # direct and covers G; H*X*K covers G; the oracle lists X.
    c2 = {"kind": "cyclic", "n": 2}
    specs = [{"kind": "cyclic", "n": 12}, {"kind": "symmetric", "n": 3},
             {"kind": "direct_product", "factors": [c2, c2, c2]}, {"kind": "dihedral", "n": 4}]
    pairs = subsets = 0
    for spec in specs:
        g = build_group(spec)
        for h, k in suites.subgroup_pairs(g):
            blocks = len({double_coset(h, x, k) for x in range(g.order)})
            listed = oracle.all_middle_transversals(h, k)
            pairs += 1
            for xs in itertools.combinations(range(g.order), blocks):
                x = g.subset(xs)
                covers = set_product(set_product(h, x), k) == g.full_set()
                transversal = is_middle_transversal(h, x, k)
                assert transversal == (is_middle_direct(h, x, k) and covers), (spec, h, x, k)
                assert transversal == covers == (x in listed), (spec, h, x, k)
                direct = is_direct_triple(h, x, k)
                assert products.is_middle_factor(h, x, k) == (transversal and direct)
                subsets += 1
    assert (pairs, subsets) == (428, 14617)


def test_group_mismatch(d12, z12):
    with pytest.raises(GroupMismatch):
        set_product(d12.subset([0]), z12.subset([0]))
    with pytest.raises(GroupMismatch):
        is_direct_triple(d12.subset([0]), z12.subset([0]), d12.subset([0]))
