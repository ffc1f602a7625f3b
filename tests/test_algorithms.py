import contextlib
import functools
import io
import itertools
import json
import math
import random
import re
import time
from pathlib import Path

import pytest

from groupkit import (
    ChoicePolicy,
    EnumerationLimitExceeded,
    G0NotInMid,
    InvalidSpec,
    MidEmpty,
    ScriptedChoiceInvalid,
    TraceMismatch,
    build_group,
    enumerate_all_middle_subfactors,
    enumerate_all_middle_transversals,
    enumerate_all_right_transversals,
    extend_to_middle_transversal,
    msfa,
    mta,
    rta,
)
from groupkit import algorithms, cli, oracle, products
from groupkit.groups import bit_indices
from groupkit.words import parse_element, parse_subset
import suites


# -- worked runs with known answers --------------------------------------------


def test_rta_cyclic_worked_run(z12):
    h = z12.subset([0, 3, 6, 9])
    trace = rta(h, g0=0, policy=ChoicePolicy.scripted([1, 2]))
    assert trace.algorithm == "RTA"
    assert trace.n_steps == 2
    assert trace.chain_sizes == [12, 8, 4, 0]
    assert trace.output == z12.subset([0, 1, 2])
    assert trace.chain_sets[1].indices() == (1, 2, 4, 5, 7, 8, 10, 11)
    assert products.is_right_transversal(h, trace.output)
    assert trace.output in oracle.all_right_transversals(h)
    trace.validate()


def test_rta_smallest_policy(z12):
    h = z12.subset([0, 3, 6, 9])
    trace = rta(h)
    assert trace.output == z12.subset([0, 1, 2])
    assert trace.n_steps == 2
    assert trace.policy == "smallest"


def test_mta_worked_run(d12, empty_mid_pair):
    h, k = empty_mid_pair
    trace = mta(h, k, g0=parse_element(d12, "1"),
                policy=ChoicePolicy.scripted([parse_element(d12, "a^2")]))
    assert trace.algorithm == "MTA"
    assert trace.n_steps == 1
    assert trace.output == parse_subset(d12, "1,a^2")
    assert trace.chain_sizes == [12, 4, 0]
    assert products.is_middle_transversal(h, trace.output, k)
    trace.validate()


def test_msfa_worked_run(d12, proper_mid_pair):
    h, k = proper_mid_pair
    mid = products.mid_director_subgroups(h, k)
    for g0 in mid:
        trace = msfa(h, k, g0=g0)
        assert trace.algorithm == "MSFA"
        assert trace.n_steps == 0
        assert trace.output == d12.singleton(g0)
        assert products.is_direct_triple(h, trace.output, k)
        trace.validate()


def test_msfa_mid_empty(d12, empty_mid_pair):
    h, k = empty_mid_pair
    with pytest.raises(MidEmpty):
        msfa(h, k)


def test_msfa_g0_not_in_mid(d12, proper_mid_pair):
    h, k = proper_mid_pair
    bad = parse_element(d12, "ba")  # ba is outside HK = Mid
    with pytest.raises(G0NotInMid):
        msfa(h, k, g0=bad)


def _cyclic_subgroup(g, rng, most):
    """A random cyclic subgroup of at most `most` elements: a power of a
    random element, mostly of the largest order that fits."""
    x = rng.randrange(g.order)
    powers = [g.identity]
    while (y := g.table[powers[-1]][x]) != g.identity:
        powers.append(y)
    m = len(powers)
    orders = [d for d in range(1, min(m, most) + 1) if m % d == 0]
    d = orders[-1] if rng.random() < 0.8 else rng.choice(orders)
    return g.subset(powers[::m // d])


def _typed(s):
    """s as -H or -K text: each element's name, or its index where the name
    holds the list's comma."""
    names = s.group.names
    return ",".join(str(i) if "," in names[i] else names[i] for i in s)


def test_msfa_reads_mid_off_the_blocks_on_a_seeded_fleet():
    # the search's seed is the union of the blocks of |H||K| elements; it must
    # agree with both Mid kernels that work by definition, and the CLI must
    # find the msfa answer maximal with the same |Mid|
    d10 = build_group({"kind": "dihedral", "n": 10})
    specs = [
        {"kind": "cyclic", "n": 1024},
        {"kind": "dihedral", "n": 300},
        {"kind": "symmetric", "n": 5},
        {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 4},
                                               {"kind": "symmetric", "n": 4}]},
        {"kind": "permutation", "degree": 6, "generators": [[[1, 2, 3]], [[2, 3, 4, 5, 6]]]},
        {"kind": "cayley", "names": list(d10.names), "table": [list(r) for r in d10.table]},
    ]
    rng = random.Random(26)
    seen = {"empty": 0, "full": 0, "proper": 0, "k_larger": 0}
    for spec in specs:
        g = build_group(spec)
        for _ in range(8):
            h = _cyclic_subgroup(g, rng, 12)
            k = _cyclic_subgroup(g, rng, 12)
            if rng.random() < 0.3:  # a K with two generators, kept when small
                k2 = g.subset_from_mask(k.mask | _cyclic_subgroup(g, rng, 6).mask)
                k2 = k2.generated_subgroup()
                if len(k2) <= 24:
                    k = k2
            mid = products.mid_director(h, k)
            assert mid.mask == oracle._raw_mid_mask(g, h.mask, k.mask)
            seen["k_larger"] += len(k) > len(h)
            if not mid:
                seen["empty"] += 1
                with pytest.raises(MidEmpty):
                    msfa(h, k)
                with pytest.raises(MidEmpty):
                    enumerate_all_middle_subfactors(h, k)
                continue
            assert msfa(h, k).seed == mid
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["msfa", "--group", json.dumps(spec), "-H", _typed(h),
                                 "-K", _typed(k), "--format", "json"])
            result = json.loads(out.getvalue())["result"]
            assert code == 0 and result["maximal"] is True and result["mid_size"] == len(mid)
            if mid == g.full_set():
                seen["full"] += 1
                continue
            seen["proper"] += 1
            outside = (g.full_mask & ~mid.mask).bit_length() - 1
            with pytest.raises(G0NotInMid):
                msfa(h, k, g0=outside)
    assert min(seen.values()) >= 3, seen


def test_extension_worked_run(d12, proper_mid_pair):
    h, k = proper_mid_pair
    trace = msfa(h, k, g0=0)
    ext = extend_to_middle_transversal(
        trace, policy=ChoicePolicy.scripted([parse_element(d12, "a^2")]))
    assert ext.algorithm == "Extension"
    assert ext.extension_start == 0
    assert ext.n_steps == 1
    assert ext.output == parse_subset(d12, "1,a^2")
    assert products.is_middle_transversal(h, ext.output, k)
    assert not products.is_direct_triple(h, ext.output, k)
    assert ext.chain_sizes == [4, 0]  # continuation chain only
    ext.validate()


def test_readme_library_tour_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().splitlines()
    assert lines[1:] == ["ProperNonempty", "['1', 'a^2']", "[4, 0]"]


def test_extension_noop_when_covering(s3):
    subs = suites.subgroups_of(s3)
    h = next(s for s in subs if len(s) == 2)
    k = next(s for s in subs if len(s) == 3)
    trace = msfa(h, k)
    assert products.set_product(products.set_product(h, trace.output), k) == s3.full_set()
    ext = extend_to_middle_transversal(trace)
    assert ext is trace


def test_mta_with_trivial_k_is_rta(d12):
    h = parse_subset(d12, "1,a^3,ba^3,b")
    t1 = rta(h)
    t2 = mta(h, d12.trivial_subgroup())
    assert t1.output == t2.output
    assert t1.chain_sizes == t2.chain_sizes


def test_rta_trace_keeps_the_trivial_k(z12):
    trace = rta(z12.subset([0, 4, 8]))
    assert trace.k == z12.trivial_subgroup()
    trace.validate()


# -- policies ------------------------------------------------------------------


def test_random_policy_reproducible(d12, empty_mid_pair):
    h, k = empty_mid_pair
    t1 = mta(h, k, policy=ChoicePolicy.random(99))
    t2 = mta(h, k, policy=ChoicePolicy.random(99))
    assert t1.chosen == t2.chosen
    assert t1.policy == "random:99"


def test_random_policy_varies(z12):
    h = z12.subset([0, 6])
    outputs = {rta(h, policy=ChoicePolicy.random(s)).output for s in range(20)}
    assert len(outputs) > 1


def test_scripted_pick_not_in_chain(z12):
    h = z12.subset([0, 3, 6, 9])
    with pytest.raises(ScriptedChoiceInvalid):
        rta(h, g0=0, policy=ChoicePolicy.scripted([3]))  # 3 is in the coset of g0


def test_scripted_exhausted(z12):
    h = z12.subset([0, 3, 6, 9])
    with pytest.raises(ScriptedChoiceInvalid):
        rta(h, g0=0, policy=ChoicePolicy.scripted([1]))  # needs one more pick


def test_scripted_leftovers_allowed(z12):
    h = z12.subset([0, 3, 6, 9])
    trace = rta(h, g0=0, policy=ChoicePolicy.scripted([1, 2, 7, 11]))
    assert trace.output == z12.subset([0, 1, 2])


@pytest.mark.parametrize("script", [[False, True], [0, True]])
def test_a_bool_scripted_pick_is_refused(z12, script):
    # a bool is no element index, as in Group._check_index, so neither
    # False nor True passes for the index it equals, as g0 or later
    h = z12.subset(range(0, 12, 2))
    with pytest.raises(ScriptedChoiceInvalid, match=r"scripted pick (False|True) \(\?\)"):
        rta(h, policy=ChoicePolicy.scripted(script))


def test_a_started_policy_carries_its_picks_into_the_extension(d12, proper_mid_pair):
    # msfa takes the script's first pick, 1 (index 0), and covers Mid; given
    # the same started policy, the extension goes on to the second, a^2,
    # where the unstarted policy starts over at 1, which is covered
    h, k = proper_mid_pair
    picks = [0, parse_element(d12, "a^2")]
    policy = ChoicePolicy.scripted(picks)
    started = policy.start()
    assert started.start() is started
    ext = extend_to_middle_transversal(msfa(h, k, policy=started), policy=started)
    assert ext.chosen == picks
    with pytest.raises(ScriptedChoiceInvalid, match="scripted pick 0 .* at step 0"):
        extend_to_middle_transversal(msfa(h, k, policy=policy), policy=policy)


def test_g0_counts_as_first_pick(z12):
    h = z12.subset([0, 3, 6, 9])
    trace = rta(h, g0=5, policy=ChoicePolicy.scripted([0, 1]))
    assert trace.chosen[0] == 5
    assert trace.n_steps == 2


# -- trace bookkeeping ---------------------------------------------------------


def test_chain_sets_and_sizes_are_read_off_the_chain(z12):
    h = z12.subset([0, 3, 6, 9])
    trace = rta(h)
    assert trace.chain == [z12.full_mask, 0b110110110110, 0b100100100100, 0]
    assert [s.mask for s in trace.chain_sets] == trace.chain
    assert trace.chain_sizes == [12, 8, 4, 0]
    assert trace.seed.mask == trace.chain[0]
    trace.chain[1] = 0b110
    assert trace.chain_sizes == [12, 2, 4, 0]
    assert trace.chain_sets[1] == z12.subset([1, 2])


def test_trace_validate_catches_tampering(z12):
    h = z12.subset([0, 3, 6, 9])
    trace = rta(h)
    trace.chain[1] ^= 1 << 1
    with pytest.raises(TraceMismatch):
        trace.validate()


def test_trace_validate_replays_picks(z12):
    # a forged run whose chain fields are consistent but whose picks share a coset
    h = z12.subset([0, 3, 6, 9])
    trace = rta(h)
    trace.chosen = [0, 3, 6]
    with pytest.raises(TraceMismatch):
        trace.validate()


@pytest.mark.parametrize("algorithm, message", [
    # the picks are no right transversal: 2 of them, while |G:H| = 3
    ("RTA", "an RTA trace has K = {1}, not {1, a^3, ba, ba^4}"),
    # no search has this name, although the picks rerun as an mta
    ("XYZ", "no search is called 'XYZ'"),
], ids=["rta", "no-such-search"])
def test_trace_validate_refuses_a_relabelled_mta_trace(d12, algorithm, message):
    h, k = parse_subset(d12, "1,a^3,ba^3,b"), parse_subset(d12, "1,a^3,ba,ba^4")
    trace = mta(h, k)
    trace.validate()
    assert len(trace.chosen) == 2 and d12.order // len(h) == 3
    trace.algorithm = algorithm
    with pytest.raises(TraceMismatch, match=f"^{re.escape(message)}$"):
        trace.validate()


def test_trace_validate_checks_seed(d12, proper_mid_pair):
    h, k = proper_mid_pair
    trace = msfa(h, k, g0=0)
    assert trace.seed == products.mid_director_subgroups(h, k)
    trace.validate()
    trace.chain[0] = d12.full_mask
    with pytest.raises(TraceMismatch):
        trace.validate()


def test_extension_validate_replays_picks(d12, proper_mid_pair):
    h, k = proper_mid_pair
    ext = extend_to_middle_transversal(msfa(h, k, g0=0))
    assert ext.seed == products.set_product(h, k).complement()
    ext.validate()
    ext.chosen[-1] = parse_element(d12, "a")  # inside HK, the block msfa covered
    with pytest.raises(TraceMismatch):
        ext.validate()


def test_extension_validate_reruns_the_msfa_part_from_mid(d12, proper_mid_pair):
    # the inherited pick a^2 lies outside Mid = HK, so no msfa run made it
    h, k = proper_mid_pair
    ext = extend_to_middle_transversal(msfa(h, k, g0=0))
    ext.chosen = [parse_element(d12, "a^2"), d12.identity]
    ext.chain = [products.set_product(h, k).mask, 0]
    with pytest.raises(TraceMismatch):
        ext.validate()


def test_extension_validate_rejects_a_cut_short_msfa_part():
    s4 = build_group({"kind": "symmetric", "n": 4})
    h, k = parse_subset(s4, "(),(1 2)"), parse_subset(s4, "(),(3 4)")
    trace = msfa(h, k)
    assert len(trace.chosen) == 5 and len(trace.seed) == 20
    ext = extend_to_middle_transversal(trace)
    ext.validate()
    # claim that msfa stopped after its first pick: the continuation chain
    # starts from G minus that pick's block and takes every later pick
    block = {x: b.mask for b in oracle.double_coset_partition(h, k) for x in b}
    c = s4.full_mask & ~block[ext.chosen[0]]
    ext.chain = [c]
    for pick in ext.chosen[1:]:
        c &= ~block[pick]
        ext.chain.append(c)
    assert ext.extension_start == 0 and c == 0
    with pytest.raises(TraceMismatch):
        ext.validate()


def test_extension_replay_rejects_foreign_trace(z12):
    other = rta(z12.subset([0, 3, 6, 9]))
    with pytest.raises(TraceMismatch):
        extend_to_middle_transversal(other)


def test_extension_replay_rejects_tampered_picks(d12, proper_mid_pair):
    h, k = proper_mid_pair
    trace = msfa(h, k, g0=0)
    trace.chosen[0] = parse_element(d12, "a^2")  # not in Mid = HK
    with pytest.raises(TraceMismatch):
        extend_to_middle_transversal(trace)


def test_extension_refuses_a_forged_trace_before_any_extension_pick(monkeypatch):
    # the extension continues over the partition its validation rerun
    # rebuilds, so a forged trace must fail that rerun before the policy
    # given to the extension picks anything
    s4 = build_group({"kind": "symmetric", "n": 4})
    h, k = parse_subset(s4, "(),(1 2)"), parse_subset(s4, "(),(3 4)")
    trace = msfa(h, k)
    assert len(extend_to_middle_transversal(trace).chosen) > len(trace.chosen)
    trace.chain[1] ^= 1 << trace.chosen[0]
    pickers = []
    pick = algorithms._Chooser.pick

    def recording(self, group, mask):
        pickers.append(self)
        return pick(self, group, mask)

    monkeypatch.setattr(algorithms._Chooser, "pick", recording)
    chooser = ChoicePolicy.smallest().start()
    with pytest.raises(TraceMismatch, match="differs"):
        extend_to_middle_transversal(trace, policy=chooser)
    assert pickers  # the rerun ran its scripted picks
    assert all(p is not chooser for p in pickers)


# -- exhaustive enumeration ----------------------------------------------------


def test_enumerate_right_transversals_count(z12):
    h = z12.subset([0, 3, 6, 9])
    got = enumerate_all_right_transversals(h)
    assert len(got) == 64
    assert got == oracle.all_right_transversals(h)


def test_enumerate_middle_transversals_count(d12, empty_mid_pair):
    h, k = empty_mid_pair
    got = enumerate_all_middle_transversals(h, k)
    assert len(got) == 32
    assert got == oracle.all_middle_transversals(h, k)


def test_enumerate_subfactors(d12, empty_mid_pair, proper_mid_pair):
    h_pr, k_pr = proper_mid_pair
    got = enumerate_all_middle_subfactors(h_pr, k_pr)
    assert len(got) == 8
    assert all(len(x) == 1 for x in got)
    assert got == oracle.all_maximal_direct_triples(h_pr, k_pr)
    h_em, k_em = empty_mid_pair
    with pytest.raises(MidEmpty):
        enumerate_all_middle_subfactors(h_em, k_em)


def test_enumeration_is_duplicate_free(z12):
    h = z12.subset([0, 6])
    got = enumerate_all_right_transversals(h)
    assert len(got) == len(set(got)) == 64


def test_enumeration_is_the_product_of_the_cells():
    # on every builtin group of order <= 12: as many results as the product
    # of the cell sizes, each meeting every cell once and nothing outside
    # them; the cells come from the oracle's partitions and the definitional
    # middle director, not from the search's blocks
    for g in suites.build_fleet():
        subs = suites.subgroups_of(g)
        trivial = g.trivial_subgroup()
        runs = [(enumerate_all_right_transversals, (h,),
                 oracle.double_coset_partition(h, trivial)) for h in subs]
        for h in subs:
            for k in subs:
                blocks = oracle.double_coset_partition(h, k)
                runs.append((enumerate_all_middle_transversals, (h, k), blocks))
                mid = products.mid_director(h, k)
                if mid:
                    runs.append((enumerate_all_middle_subfactors, (h, k),
                                 [b for b in blocks if b <= mid]))
        for enumerate_all, args, cells in runs:
            got = enumerate_all(*args)
            want = 1
            for cell in cells:
                want *= len(cell)
            assert len(got) == want, (g, enumerate_all.__name__, args)
            for x in got:
                assert len(x) == len(cells), (g, args, x)
                assert all(len(x & cell) == 1 for cell in cells), (g, args, x)


def test_enumeration_limit(z12):
    h = z12.subset([0, 3, 6, 9])
    with pytest.raises(EnumerationLimitExceeded, match="64 results exceed the cap of 5"):
        enumerate_all_right_transversals(h, limit=5)


def test_enumeration_limit_env(z12, monkeypatch):
    monkeypatch.setenv("GROUPKIT_ENUM_LIMIT", "5")
    h = z12.subset([0, 3, 6, 9])
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_all_right_transversals(h)


def test_enumeration_cap_checked_before_branching():
    # 2^512 right transversals: the cap must fail before the first branch
    g = build_group({"kind": "cyclic", "n": 1024})
    h = g.subset([0, 512])
    started = time.perf_counter()
    with pytest.raises(EnumerationLimitExceeded, match=f"^{2 ** 512} results exceed"):
        enumerate_all_right_transversals(h)
    assert time.perf_counter() - started < 5.0


@pytest.mark.parametrize("what", ["right-transversals", "middle-transversals",
                                  "middle-subfactors"])
def test_enumeration_cap_is_exact(z12, d12, what):
    # both sides' masks (as_masks=True) meet the same cap and are the plain
    # product over the cells by least element, each ascending, the first
    # slowest: the masks of their sets, each once
    if what == "right-transversals":
        args = (z12.subset([0, 3, 6, 9]),)
        search, brute = enumerate_all_right_transversals, oracle.all_right_transversals
        cells = oracle.double_coset_partition(*args, z12.trivial_subgroup())
    elif what == "middle-transversals":
        args = (parse_subset(d12, "1,a^3,ba^3,b"), parse_subset(d12, "1,a^3,ba,ba^4"))
        search, brute = enumerate_all_middle_transversals, oracle.all_middle_transversals
        cells = oracle.double_coset_partition(*args)
    else:
        args = (parse_subset(d12, "1,ab"), parse_subset(d12, "1,a^3,b,ba^3"))
        search, brute = enumerate_all_middle_subfactors, oracle.all_maximal_direct_triples
        mid = products.mid_director(*args)
        cells = [b for b in oracle.double_coset_partition(*args) if b <= mid]
    want = brute(*args)
    count = len(want)
    bit_cells = [[1 << i for i in cell.indices()] for cell in sorted(cells, key=min)]
    plain = list(map(sum, itertools.product(*bit_cells)))
    assert len(plain) == count and set(plain) == {s.mask for s in want}
    search_masks = functools.partial(suites.masks, search)
    brute_masks = functools.partial(suites.masks, brute)
    for enumerate_all, expected in ((search, want), (brute, want), (search_masks, plain),
                                    (brute_masks, plain)):
        assert enumerate_all(*args, limit=count) == expected
        with pytest.raises(EnumerationLimitExceeded):
            enumerate_all(*args, limit=count - 1)


def _row_cases(g, subgroups):
    """(search, oracle, operands, cells) for each enumeration of g: the
    right transversals of each of subgroups, and for each pair of them the
    middle transversals and, when Mid is not empty, the maximal direct
    middles.  The cells are the blocks, cut down to Mid for the latter."""
    trivial = g.trivial_subgroup()
    for h in subgroups:
        yield (enumerate_all_right_transversals, oracle.all_right_transversals, (h,),
               [b.mask for b in oracle.double_coset_partition(h, trivial)])
    for h, k in itertools.product(subgroups, repeat=2):
        blocks = [b.mask for b in oracle.double_coset_partition(h, k)]
        yield (enumerate_all_middle_transversals, oracle.all_middle_transversals, (h, k), blocks)
        mid = products.mid_director(h, k).mask
        if mid:
            yield (enumerate_all_middle_subfactors, oracle.all_maximal_direct_triples, (h, k),
                   [b & mid for b in blocks if b & mid])


def _check_rows(g, subgroups):
    # each side's rows, joined, are the plain product over the cells by least
    # element, each ascending, the first slowest, and no row is longer than
    # the side's ROW or its right half: the product of the second half of the
    # cells it multiplies, the search's without its size-1 cells
    for search, brute, operands, cells in _row_cases(g, subgroups):
        cells = sorted(cells, key=lambda c: c & -c)
        plain = list(map(sum, itertools.product(*([1 << i for i in bit_indices(c)] for c in cells))))
        sizes = [c.bit_count() for c in cells]
        for enumerate_all, row_size, halved in ((search, algorithms.ROW, [s for s in sizes if s > 1]),
                                                (brute, oracle.ROW, sizes)):
            rows = list(enumerate_all(*operands, as_masks=True))
            assert list(itertools.chain.from_iterable(rows)) == plain, (enumerate_all, operands)
            right = math.prod(halved[len(halved) // 2:])
            assert max(map(len, rows)) <= max(row_size, right)
            assert len(rows) >= len(plain) / row_size


@pytest.mark.parametrize("g", [*suites.small_fleet(), build_group({"kind": "dihedral", "n": 6})],
                         ids=lambda g: g.description)
def test_rows_are_the_plain_product_in_order(g):
    _check_rows(g, suites.subgroups_of(g))


def test_a_large_product_is_cut_into_rows():
    # Z32 with H = {0, 16}: 65,536 right transversals, and as many middle
    # transversals of (H, H), at most ROW masks a row
    g = build_group({"kind": "cyclic", "n": 32})
    _check_rows(g, [g.subset([0, 16])])


@pytest.mark.parametrize("n_cells", [0, 1, 2, 3, 7])
def test_split_products_match_plain_products(n_cells):
    # seeded disjoint cells of 1 to 4 elements over 0..n-1
    rng = random.Random(n_cells)
    sizes = [rng.randint(1, 4) for _ in range(n_cells)]
    elements = list(range(sum(sizes)))
    rng.shuffle(elements)
    cells, at = [], 0
    for size in sizes:
        cells.append(tuple(elements[at:at + size]))
        at += size
    total = math.prod(sizes)
    # the oracle's halves against one plain product over every cell, with
    # the cells as its callers pass them: by least element, each ascending
    ordered = sorted(tuple(sorted(cell)) for cell in cells)
    bit_cells = [[1 << i for i in cell] for cell in ordered]
    masks = list(itertools.chain.from_iterable(oracle._one_per_cell(ordered, total)))
    assert masks == list(map(sum, itertools.product(*bit_cells)))
    assert len(set(masks)) == len(masks) == total
    # the search's halves against one cell at a time, cells by least element
    blocks = [0] * len(elements)
    seed = 0
    for cell in cells:
        mask = sum(1 << i for i in cell)
        seed |= mask
        for i in cell:
            blocks[i] = mask
    want = [0]
    for cell in sorted(cells, key=min):
        want = [m | 1 << i for m in want for i in sorted(cell)]
    assert list(itertools.chain.from_iterable(algorithms._enumerate(seed, blocks, total))) == want
    if total > 1:
        with pytest.raises(EnumerationLimitExceeded,
                           match=rf"^\d+\+ combinations exceed the cap of {total - 1};"):
            oracle._one_per_cell(cells, total - 1)
        with pytest.raises(EnumerationLimitExceeded,
                           match=f"^{total} results exceed the cap of {total - 1};"):
            algorithms._enumerate(seed, blocks, total - 1)


@pytest.mark.parametrize("limit", [0, -3, True, False, 2.5, "3"])
def test_enumeration_rejects_a_limit_that_is_no_positive_int(z12, limit):
    # the search and the oracle refuse the same limits the same way; a bool
    # is no count, as it is no element index
    h, k = z12.subset([0, 6]), z12.subset([0, 4, 8])
    for enumerate_all, args in (
        (enumerate_all_right_transversals, (h,)),
        (enumerate_all_middle_transversals, (h, k)),
        (enumerate_all_middle_subfactors, (h, k)),
        (oracle.all_right_transversals, (h,)),
        (oracle.all_middle_transversals, (h, k)),
        (oracle.all_maximal_direct_triples, (h, k)),
    ):
        with pytest.raises(InvalidSpec, match=f"^limit must be a positive integer, got {limit!r}$"):
            enumerate_all(*args, limit=limit)


def test_policy_descriptions():
    assert ChoicePolicy.smallest().describe() == "smallest"
    assert ChoicePolicy.random(7).describe() == "random:7"
    assert "script" in ChoicePolicy.scripted([1, 2]).describe()


@pytest.mark.parametrize("mode", ["bogus", "", "Smallest", None])
def test_policy_mode_must_be_known(mode):
    with pytest.raises(InvalidSpec, match=f"^choice policy {re.escape(repr(mode))} not understood"):
        ChoicePolicy(mode)


@pytest.mark.parametrize("seed", [None, True, False, 2.5, "7"])
def test_random_policy_needs_an_int_seed(seed):
    # describe() records the seed, so a random policy must have one that
    # replays: None would seed from the OS, and a bool is no int here
    with pytest.raises(InvalidSpec,
                       match=f"^choice policy random needs an integer seed, got {re.escape(repr(seed))}$"):
        ChoicePolicy("random", seed=seed)


@pytest.mark.parametrize("script", [5, {1: 2}, "12", range(2), frozenset({1})])
def test_script_policy_needs_a_list_of_picks(script):
    # describe() and the picker read the script in order, so it must be a
    # list or a tuple: not an int, nor a dict read key by key
    match = f"^choice policy script needs a list of picks, got {re.escape(repr(script))}$"
    with pytest.raises(InvalidSpec, match=match):
        ChoicePolicy("script", script=script)
    with pytest.raises(InvalidSpec, match=match):
        ChoicePolicy.scripted(script)


def test_script_policy_takes_a_list_or_a_tuple():
    for picks in ([3, 1], (3, 1)):
        assert ChoicePolicy("script", script=picks).describe() == "script:3,1"
        assert ChoicePolicy.scripted(picks).describe() == "script:3,1"
    assert ChoicePolicy("script").describe() == "script:"


def test_the_chain_search_reaches_every_answer():
    # the paper's completeness claim, on the searches themselves: every pick
    # order that mta and msfa allow, replayed through them, ends in an oracle
    # answer, and each answer X is reached by exactly |X|! orders; the counts
    # show no case was skipped unseen
    bad, stats = suites.pick_order_problems(120)
    assert bad == []
    assert stats == {"cases": 515, "runs": 15164, "skipped": 176}
