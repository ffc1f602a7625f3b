"""Quick property checks on small groups.

The full-fleet runs live in the acceptance tests; these keep the suites
honest during everyday development.
"""

import pytest

from groupkit import build_group
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
