"""Quick property checks on small groups.

The full-fleet runs live in the acceptance tests; these keep the suites
honest during everyday development.
"""

import random

import pytest

from groupkit import (
    MidEmpty,
    build_group,
    enumerate_all_middle_subfactors,
    enumerate_all_middle_transversals,
)
from groupkit.groups import bit_indices
from groupkit.products import mid_director, mid_director_subgroups
import suites


@pytest.fixture(scope="module")
def small():
    return suites.small_fleet()


@pytest.mark.parametrize("name,runner", suites.ALL_SUITES,
                         ids=[name for name, _ in suites.ALL_SUITES])
def test_suite_on_small_fleet(small, name, runner):
    violations = runner(small)
    assert violations == []


def test_enumeration_agreement_small(small):
    bad, stats = suites.run_enumeration_agreement(small, limit=10 ** 5)
    assert bad == []
    assert stats["pairs"] > 0


def test_enumeration_agreement_wider_fleet():
    # Two groups outside the builtin fleet: every subgroup pair of C2 x D6,
    # and one subgroup per conjugacy class of S4 (all 900 pairs take seconds).
    c2d6 = build_group({"kind": "direct_product",
                        "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}]})
    bad, stats = suites.run_enumeration_agreement([c2d6])
    assert bad == []
    assert stats["subgroups"] == 16 and stats["pairs"] == 256
    s4 = build_group({"kind": "symmetric", "n": 4})
    bad, stats = suites.run_enumeration_agreement(
        [s4], subgroups=suites.conjugacy_class_representatives)
    assert bad == []
    assert stats["subgroups"] == 11 and stats["pairs"] == 121
    # and two permutation groups: the Frobenius group F20 at degree 5, one
    # subgroup per conjugacy class, and S3 acting on the points {2, 5, 7}
    f20 = build_group({"kind": "permutation", "degree": 5,
                       "generators": [[[1, 2, 3, 4, 5]], [[2, 3, 5, 4]]]})
    bad, stats = suites.run_enumeration_agreement(
        [f20], subgroups=suites.conjugacy_class_representatives)
    assert f20.order == 20
    assert bad == []
    assert stats["subgroups"] == 6 and stats["pairs"] == 36
    s3_on_257 = build_group({"kind": "permutation", "degree": 7,
                             "generators": [[[2, 5, 7]], [[2, 5]]]})
    bad, stats = suites.run_enumeration_agreement([s3_on_257])
    assert s3_on_257.order == 6
    assert bad == []
    assert stats["subgroups"] == 6 and stats["pairs"] == 36


def test_block_partition_and_maximality_on_c2d6():
    c2d6 = build_group({"kind": "direct_product",
                        "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}]})
    assert suites.suite_block_partition([c2d6]) == []
    assert suites.suite_maximal_covers_mid([c2d6]) == []


def test_trace_invariants_small(small):
    bad, runs = suites.run_trace_invariants(small, n_runs=120, seed=11)
    assert bad == []
    assert runs == 120


def _mapped(perm: list[int], masks: list[int]) -> list[int]:
    """Each mask with its members sent through perm, in order."""
    return [sum(1 << perm[x] for x in bit_indices(m)) for m in masks]


def _answers(enumerate_all, h, k):
    try:
        return sorted(suites.masks(enumerate_all, h, k))
    except MidEmpty:
        return None


def test_definitions_are_symmetric():
    # (h*x*k)^-1 = k^-1 * x^-1 * h^-1, so inversion swaps the sides: Mid(K, H)
    # is Mid(H, K)^-1, and X -> X^-1 maps the middle transversals and the
    # maximal direct middles of (H, K) onto those of (K, H), MidEmpty with
    # them.  Conjugation by x maps the double cosets of (H, K) onto those of
    # (xHx^-1, xKx^-1), and so their middle transversals.  Search side only:
    # nothing here is checked against the oracle
    c2 = {"kind": "cyclic", "n": 2}
    specs = [{"kind": "dihedral", "n": 8}, {"kind": "symmetric", "n": 4},
             {"kind": "direct_product", "factors": [c2, {"kind": "dihedral", "n": 4}]}]
    rng = random.Random(20261022)
    bad = []
    for spec in specs:
        g = build_group(spec)
        t, inverse = g.table, g.inverse
        for h, k in rng.sample(suites.subgroup_pairs(g), 60):
            for mid in (mid_director, mid_director_subgroups):
                if mid(k, h) != suites.inverted(mid(h, k)):
                    bad.append((spec, h, k, mid.__name__))
            for enumerate_all in (enumerate_all_middle_transversals,
                                  enumerate_all_middle_subfactors):
                hk, kh = _answers(enumerate_all, h, k), _answers(enumerate_all, k, h)
                if (hk is None) != (kh is None) or (hk and sorted(_mapped(inverse, hk)) != kh):
                    bad.append((spec, h, k, enumerate_all.__name__))
            x = rng.randrange(g.order)
            conjugation = [t[t[x][a]][inverse[x]] for a in range(g.order)]
            got = _answers(enumerate_all_middle_transversals, h, k)
            want = _answers(enumerate_all_middle_transversals,
                            suites.conjugate(h, x), suites.conjugate(k, x))
            if sorted(_mapped(conjugation, got)) != want:
                bad.append((spec, h, k, "conjugation", x))
    assert bad == []
