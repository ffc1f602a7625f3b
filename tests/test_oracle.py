import inspect

import pytest

from groupkit import GroupMismatch, MidEmpty, NotASubgroup, build_group
from groupkit import algorithms, oracle, products
from groupkit.words import parse_subset
import suites


def test_right_coset_partition(z12):
    h = z12.subset([0, 4, 8])
    part = oracle.double_coset_partition(h, z12.trivial_subgroup())
    assert len(part) == 4
    assert all(len(b) == 3 for b in part)
    assert part[0] == h


def test_double_coset_partition(d12, empty_mid_pair):
    h, k = empty_mid_pair
    part = oracle.double_coset_partition(h, k)
    assert [len(b) for b in part] == [8, 4]
    assert part[0] == products.set_product(h, k)


def test_double_coset_sizes_vary(d12, proper_mid_pair):
    h, k = proper_mid_pair
    part = oracle.double_coset_partition(h, k)
    assert sum(len(b) for b in part) == 12
    assert len(part) == 2


def test_oracle_refuses_subgroups_of_different_groups(d12, z12):
    with pytest.raises(GroupMismatch, match="^H and K belong to different groups$"):
        oracle.all_middle_transversals(z12.trivial_subgroup(), d12.trivial_subgroup())


def test_all_right_transversals_count(z12):
    h = z12.subset([0, 3, 6, 9])
    got = oracle.all_right_transversals(h)
    assert len(got) == 4 ** 3
    assert all(products.is_right_transversal(h, t) for t in got)


def test_all_middle_transversals_count(d12, empty_mid_pair):
    h, k = empty_mid_pair
    got = oracle.all_middle_transversals(h, k)
    assert len(got) == 8 * 4
    assert all(products.is_middle_transversal(h, x, k) for x in got)
    assert parse_subset(d12, "1,a^2") in got
    assert parse_subset(d12, "1,a^5") in got


def test_all_middle_transversals_product_of_block_sizes(d12, proper_mid_pair):
    h, k = proper_mid_pair
    part = oracle.double_coset_partition(h, k)
    got = oracle.all_middle_transversals(h, k)
    want = 1
    for b in part:
        want *= len(b)
    assert len(got) == want == 32


def test_maximal_direct_triples(d12, proper_mid_pair):
    h, k = proper_mid_pair
    got = oracle.all_maximal_direct_triples(h, k)
    assert len(got) == 8
    mid = products.mid_director_subgroups(h, k)
    assert all(len(x) == 1 and x <= mid for x in got)
    for x in got:
        assert products.is_direct_triple(h, x, k)
        assert suites._maximal_direct(h, x, k)


def test_maximal_direct_triples_mid_empty(d12, empty_mid_pair):
    h, k = empty_mid_pair
    with pytest.raises(MidEmpty):
        oracle.all_maximal_direct_triples(h, k)


def test_maximal_direct_middles_by_definition():
    # For every subset X of G: H*X*K is direct when no product h*x*k repeats,
    # and X is a maximal direct middle when no y outside X keeps X + {y}
    # direct.  Both enumerations must list exactly these sets, each once;
    # when the only one is the empty set, Mid is empty and both refuse.
    c2 = {"kind": "cyclic", "n": 2}
    specs = [{"kind": "symmetric", "n": 3}, {"kind": "dihedral", "n": 4},
             {"kind": "direct_product", "factors": [c2, c2, c2]}, {"kind": "cyclic", "n": 12}]
    searches = (oracle.all_maximal_direct_triples, algorithms.enumerate_all_middle_subfactors)
    pairs = subsets = found = empty = 0
    for spec in specs:
        g = build_group(spec)
        t, n = g.table, g.order
        for h, k in suites.subgroup_pairs(g):
            hs, ks = list(h), list(k)
            # the mask of the products h*y*k of each y, or None when one repeats
            products_of = []
            for y in range(n):
                seen = {t[t[a][y]][b] for a in hs for b in ks}
                products_of.append(sum(1 << p for p in seen) if len(seen) == len(hs) * len(ks)
                                   else None)
            # the mask of H*X*K for each direct X, else None: X is direct when
            # X less its top element is and that element's products neither
            # repeat nor meet the others
            hxk = [0] + [None] * ((1 << n) - 1)
            for x in range(1, 1 << n):
                top = x.bit_length() - 1
                rest, new = hxk[x & ~(1 << top)], products_of[top]
                if rest is not None and new is not None and not rest & new:
                    hxk[x] = rest | new
            maximal = {x for x in range(1 << n) if hxk[x] is not None
                       and all(hxk[x | 1 << y] is None for y in range(n) if not x >> y & 1)}
            pairs += 1
            subsets += 1 << n
            found += len(maximal)
            if maximal == {0}:
                empty += 1
                for enumerate_all in searches:
                    with pytest.raises(MidEmpty):
                        enumerate_all(h, k)
                continue
            for enumerate_all in searches:
                listed = suites.masks(enumerate_all, h, k)
                assert len(listed) == len(maximal) and set(listed) == maximal, (spec, h, k)
    assert (pairs, subsets, found, empty) == (428, 240896, 3235, 199)


def test_oracle_limits(z12):
    h = z12.subset([0, 6])
    with pytest.raises(Exception):
        oracle.all_right_transversals(h, limit=3)
    assert len(oracle.all_right_transversals(h, limit=64)) == 64


def _c2_cubed():
    c2 = {"kind": "cyclic", "n": 2}
    return build_group({"kind": "direct_product", "factors": [c2, c2, c2]})


def test_oracle_refuses_exactly_the_non_subgroups(s3):
    # every subset of four groups, as H and as K: the oracle's own product
    # check must agree with the search side's is_subgroup
    groups = [build_group({"kind": "dihedral", "n": 4}),
              build_group({"kind": "cyclic", "n": 8}), _c2_cubed(), s3]
    for g in groups:
        trivial = g.trivial_subgroup()
        for mask in range(g.full_mask + 1):
            s = g.subset_from_mask(mask)
            for label, pair in (("H", (s, trivial)), ("K", (trivial, s))):
                if s.is_subgroup():
                    oracle.double_coset_partition(*pair)
                    continue
                with pytest.raises(NotASubgroup, match=f"^{label} .* is not a subgroup$"):
                    oracle.double_coset_partition(*pair)


def test_oracle_checks_h_then_the_groups_then_k(z12, d12):
    not_h = d12.subset([0, 1])
    with pytest.raises(NotASubgroup, match=r"^H \{1, a\} is not a subgroup$"):
        oracle.all_middle_transversals(not_h, z12.subset([1]))
    with pytest.raises(GroupMismatch):
        oracle.all_middle_transversals(d12.trivial_subgroup(), z12.subset([1]))
    with pytest.raises(NotASubgroup, match=r"^K \{a\} is not a subgroup$"):
        oracle.all_maximal_direct_triples(d12.trivial_subgroup(), d12.subset([1]))


@pytest.mark.parametrize("entry", ["double_coset_partition", "all_right_transversals",
                                   "all_middle_transversals", "all_maximal_direct_triples"])
def test_oracle_checks_the_pair_once(d12, proper_mid_pair, monkeypatch, entry):
    calls = []
    check = oracle._require_subgroup_pair
    monkeypatch.setattr(oracle, "_require_subgroup_pair",
                        lambda h, k: calls.append(1) or check(h, k))
    h, k = proper_mid_pair
    getattr(oracle, entry)(*((h,) if entry == "all_right_transversals" else (h, k)))
    assert len(calls) == 1


def test_naive_subgroup_counts(z12, d12, s3):
    assert len(suites.naive_subgroups(z12)) == 6
    assert len(suites.naive_subgroups(d12)) == 16
    assert len(suites.naive_subgroups(s3)) == 6
    k4 = build_group({"kind": "direct_product", "factors": [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]})
    assert len(suites.naive_subgroups(k4)) == 5


def test_naive_subgroups_are_subgroups(d12):
    for s in suites.naive_subgroups(d12):
        assert s.is_subgroup()


def test_naive_subgroups_closed_under_conjugation(d12, s3):
    for g in (d12, s3):
        subs = suites.naive_subgroups(g)
        for s in subs:
            for x in range(g.order):
                assert suites.conjugate(s, x) in subs


def test_oracle_independent_of_search_modules():
    # ground truth must come straight off the table, never from the code under test
    import types

    allowed = {"groupkit.groups", "groupkit.errors", "groupkit.config", "groupkit.oracle"}
    for name, val in vars(oracle).items():
        if isinstance(val, types.ModuleType) and val.__name__.startswith("groupkit"):
            assert val.__name__ in allowed, name
        elif callable(val) and getattr(val, "__module__", "").startswith("groupkit"):
            assert val.__module__ in allowed, name
    # nor may it test H and K by the subgroup growth that the searches share
    source = inspect.getsource(oracle)
    for shared in ("require_subgroup(", "is_subgroup(", "generated_subgroup(", "_grow("):
        assert f".{shared}" not in source, shared
