"""Tier-1's checks at sizes too slow for it: PYTHONPATH=src:tests python -m pytest scale"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import suites

from groupkit import build_group, msfa, mta
from groupkit.cli import main
from groupkit.products import (
    direct_middle_verdict,
    is_middle_transversal,
    mid_director,
    mid_director_subgroups,
)
from groupkit.words import parse_subset

ROOT = Path(__file__).resolve().parent.parent
C64_D32 = {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 64}, {"kind": "dihedral", "n": 32}]}
HALF = ",".join(["1"] + [f"a^{i}" for i in range(2, 2048, 2)])  # <a^2> in dihedral:2048
ROTATIONS = ",".join(["1"] + [f"a^{i}" for i in range(1, 2048)])
C38 = ["--via", "both", "--group", "cyclic:38", "-H", "0,19", "--what", "right-transversals"]
D36 = ["--via", "both", "--group", "dihedral:18", "-H", "1,b", "-K", "1,ba", "--what", "middle-subfactors"]


# the default order cap with |H| = 1024 (H = <a^2>, K = <b>) and the pair
# swapped, where a disagreement of the two Mid methods or a failed msfa output
# check exits 4; then K = all 2048 rotations, so that |H||K| = n, the edge of
# Mid's |H||K| > n shortcut, whose conjugacy test runs over the smaller side
@pytest.mark.parametrize("cmd, h, k", [
    *[(cmd, h, k) for cmd in ("mid --method both", "mta", "msfa --extend")
      for h, k in ((HALF, "1,b"), ("1,b", HALF))],
    *[(cmd, "1,b", ROTATIONS) for cmd in ("mid --method both", "mid --method conjugacy", "msfa --extend")],
    *[(cmd, ROTATIONS, "1,b") for cmd in ("mid --method both", "mid --method conjugacy")],
], ids=lambda v: {HALF: "<a^2>", ROTATIONS: "<a>"}.get(v, v))
def test_query_at_the_order_cap(cmd, h, k):
    assert main([*cmd.split(), "--group", "dihedral:2048", "-H", h, "-K", k]) == 0


def test_inversion_swaps_the_sides_at_the_order_cap():
    # tier-1 samples groups of order 24 or less: at the cap, with H = <a^2>
    # and K = <b>, X -> X^-1 takes a middle transversal of (H, K) to one of
    # (K, H) and a maximal direct middle of (K, H) to one of (H, K), and
    # Mid(H, K)^-1 = Mid(K, H) by either rule
    g = build_group({"kind": "dihedral", "n": 2048})
    h, k = parse_subset(g, HALF), parse_subset(g, "1,b")
    assert is_middle_transversal(k, suites.inverted(mta(h, k).output), h)
    verdict = direct_middle_verdict(h, suites.inverted(msfa(k, h).output), k)
    assert verdict["direct"] and verdict["maximal"]
    for mid in (mid_director, mid_director_subgroups):
        assert suites.inverted(mid(h, k)) == mid(k, h)


# one of each kind at the cap, where a block of Light's test holds 64 rows, and
# S6 x C5, a permutation closure that is not all of S_m, so its table takes the
# breadth-first gathers
@pytest.mark.parametrize("spec, order", [
    ({"kind": "cyclic", "n": 4096}, 4096),
    ({"kind": "dihedral", "n": 2048}, 4096),
    (C64_D32, 4096),
    ({"kind": "permutation", "degree": 11,
      "generators": [[[1, 2]], [[1, 2, 3, 4, 5, 6]], [[7, 8, 9, 10, 11]]]}, 3600),
], ids=["cyclic", "dihedral", "direct_product", "permutation"])
def test_build_at_the_order_cap(spec, order):
    assert build_group(spec).order == order


def test_light_and_every_row_of_a_direct_product_at_the_cap():
    # tier-1 checks the product's names, not every row: its rows, shifted as
    # ints one lane a cell, against a[x1][x2]*|B| + b[y1][y2] on 4096^2 cells
    assert suites.product_formula_problems(C64_D32) == []
    # the row of (0,b) is 128 runs of exactly 32 cells, so its pass compares
    # each run over a block of 64 rows as one 2-D view per side: seeded with
    # (0,b), the table passes and fails with two cells of a row swapped, and a
    # cell changed on either side of that pass in the first, a middle and the
    # last block returns the naive loop's witness
    assert suites.swapped_row_light_problems(C64_D32, ["(0,b)"], 20261025) == []
    assert suites.changed_cell_light_problems(C64_D32, "(0,b)", 20261027) == []


def test_light_on_a_relabeled_order_4096_table():
    # tier-1 stops at order 1024; relabeled cyclic:4096 compares every pass's
    # columns in place over blocks of 64 rows, and fails with two cells swapped
    assert suites.relabeled_light_problems(4096, 20261022) == []


def test_lane_sums_against_the_gathers_at_n_6():
    # tier-1 stops at n = 5; all 518,400 products of S6
    assert suites.lane_sum_gather_disagreements(6) == []


def test_every_pick_order_at_scale():
    # tier-1 stops at 120 orders a case; every run must reach an oracle answer,
    # each answer X by |X|! orders
    bad, stats = suites.pick_order_problems(20000)
    assert (bad, stats["runs"]) == ([], 104396)


def _enumerate(capsys, argv):
    code = main(["enumerate", "--format", "json", *argv])
    return code, json.loads(capsys.readouterr().out)["result"]


# tier-1's relabeling cross-checks stop at 1,296 sets; the maximal direct
# middles of D36 take H = <b>, K = <ba> with cells cut down to Mid
@pytest.mark.parametrize("argv, count", [(C38, 524288), (D36, 262144)], ids=["C38", "D36"])
def test_cross_check_at_scale(capsys, argv, count):
    code, r = _enumerate(capsys, argv)
    assert (code, r["count_algorithm"], r["count_oracle"], r["match"]) == (0, count, count, True)


def test_a_dropped_answer_at_scale_exits_4(capsys, monkeypatch):
    # the order-free fallback must report the mismatch
    monkeypatch.setenv("GROUPKIT_FAULT_INJECT", "drop-algorithm-set")
    code, r = _enumerate(capsys, C38)
    assert (code, r["match"]) == (4, False)


def test_the_oracle_at_the_cap_exits_5():
    # the oracle's own check of H = <2> reads all 2,048^2 products at the cap
    # before the cap on 2,048^2 answers refuses the run
    h = ",".join(str(i) for i in range(0, 4096, 2))
    assert main(["enumerate", "--via", "oracle", "--group", "cyclic:4096", "-H", h,
                 "--what", "right-transversals"]) == 5


# tier-1 runs the same property at 20 examples
test_report_json_is_json_dumps_indent_2 = suites.report_json_property(200)


# perfbench/run.py exits 0 even when rounds fail or answers are wrong, so the
# verdict is read off the last line of a short run of each workload, once
# untraced and once with the per-layer spans.  Every workload's tour runs
# enumerate --via both, so a traced run must also time both sides of the
# cross-check, which the tracer finds only through their public names; and
# msfa --extend, whose validation rerun the tracer finds only through
# AlgoTrace.validate, which the extension must go through.
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["enum-crosscheck", "query-mix", "table-build"])
def test_clean_benchmark_run(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    r = json.loads(run.stdout.splitlines()[-1])
    assert (r["correct"], r["failed"]) == (True, 0), run.stdout
    if trace:
        for name in ("algorithms.enumerate_s", "oracle.enumerate_s", "algorithms.validate_s"):
            assert r["metrics"][name]["value"] > 0, name
