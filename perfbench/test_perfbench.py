"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Each checker must accept groupkit's real answer and reject a corrupted one;
a fault-injected run must count failed rounds rather than stop; a checkout
without sources must be refused.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import groupkit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from model import (  # noqa: E402
    CheckFailed,
    Cyclic,
    Dihedral,
    Perm,
    Product,
    Semidirect,
    Structure,
    check_table,
    closure,
)


def answer(call):
    _, outcome = workloads.timed(call)
    assert outcome.failed is None, outcome.failed
    call.check(outcome)  # the real answer passes
    return outcome


def rejects(call, outcome, corrupt):
    bad = copy.deepcopy(outcome)
    corrupt(bad.value)
    with pytest.raises(CheckFailed):
        call.check(bad)


@pytest.fixture(scope="module")
def tour():
    return {c.label.split()[1]: c for c in workloads.tour_calls("queries")}


def test_models_count_known_structures():
    z12 = Cyclic(12)
    assert Structure(z12, closure(z12, [3])).count() == 4 ** 3
    d12 = Dihedral(6)
    h, k = closure(d12, [(0, 3), (1, 3)]), closure(d12, [(0, 3), (1, 1)])
    assert Structure(d12, h, k).count() == 32  # recomputed count of example 2.5
    s4 = Perm(4)
    assert len(closure(s4, [s4.parse("(1 2)"), s4.parse("(1 2 3 4)")])) == 24
    assert s4.name(s4.mul(s4.parse("(1 2)"), s4.parse("(2 3)"))) == "(1 3 2)"


def test_rta_check_rejects_a_non_transversal(tour):
    call = tour["rta"]
    out = answer(call)
    r = out.value["result"]
    other = next(x for x in ("1", "2", "4", "5") if x not in r["transversal"][1:])
    rejects(call, out, lambda rep: rep["result"]["transversal"].__setitem__(0, other))
    rejects(call, out, lambda rep: rep["result"]["transversal"].pop())
    rejects(call, out, lambda rep: rep["result"].__setitem__("index", r["index"] + 1))


def test_mta_check_rejects_a_non_transversal():
    d12 = Dihedral(6)
    h, k = closure(d12, [(0, 3), (1, 3)]), closure(d12, [(0, 3), (1, 1)])
    st = Structure(d12, h, k)
    call = workloads.cli_call(
        "mta", ["mta", "--group", "dihedral:6", "-H", workloads.names_arg(d12, h),
                "-K", workloads.names_arg(d12, k), "--g0", "a"],
        workloads.check_mta(st, "a"),
    )
    out = answer(call)
    x = out.value["result"]["transversal"]
    twin = next(d12.name(y) for y in st.blocks[st.label[d12.parse(x[1])]] if d12.name(y) != x[1])
    rejects(call, out, lambda rep: rep["result"]["transversal"].__setitem__(0, twin))
    rejects(call, out, lambda rep: rep["result"]["transversal"].pop())
    rejects(call, out, lambda rep: rep["result"]["trace"]["chosen"].reverse())


def test_msfa_check_rejects_non_maximal_non_direct_and_bad_x_star(tour):
    call = tour["msfa"]
    out = answer(call)
    r = out.value["result"]
    outside = next(n for n in r["x_star"] if n not in r["x"])
    rejects(call, out, lambda rep: rep["result"]["x"].pop())  # no longer maximal
    rejects(call, out, lambda rep: rep["result"]["x"].append(outside))  # not direct
    rejects(call, out, lambda rep: rep["result"]["x_star"].remove(outside))
    rejects(call, out, lambda rep: rep["result"].__setitem__("mid_size", r["mid_size"] - 1))


def test_mid_check_rejects_a_wrong_director(tour):
    call = tour["mid"]
    out = answer(call)
    rejects(call, out, lambda rep: rep["result"]["mid"].pop())
    rejects(call, out, lambda rep: rep["result"].__setitem__("size", rep["result"]["size"] + 1))
    rejects(call, out, lambda rep: rep["result"].__setitem__("tag", "Full"))


def test_enumerate_check_rejects_wrong_counts(tour):
    call = tour["enumerate"]
    out = answer(call)
    rejects(call, out, lambda rep: rep["result"].__setitem__("count_algorithm", 31))
    rejects(call, out, lambda rep: rep["result"].__setitem__("match", False))


def test_schema_check_rejects_a_malformed_report(tour):
    call = tour["rta"]
    out = answer(call)
    rejects(call, out, lambda rep: rep.__setitem__("extra", 1))
    rejects(call, out, lambda rep: rep["result"].pop("valid"))


def test_every_set_check_rejects_a_bad_set():
    d12 = Dihedral(6)
    h, k = closure(d12, [(0, 3), (1, 3)]), closure(d12, [(0, 3), (1, 1)])
    st = Structure(d12, h, k)
    call = workloads.list_call("d12", {"kind": "dihedral", "n": 6}, "middle-transversals",
                               workloads.names_arg(d12, h), workloads.names_arg(d12, k), st)
    _, out = workloads.timed(call)
    call.check(out)
    first = out.value[0]
    same_block = [d12.name(x) for x in st.blocks[st.label[d12.parse(first[0])]]]
    doubled = next(n for n in same_block if n not in first)

    def two_from_one_block(sets):
        sets[0] = sets[0][:-1] + [doubled]

    for corrupt in (two_from_one_block, lambda sets: sets.pop(), lambda sets: sets.append(sets[0])):
        bad = copy.deepcopy(out)
        corrupt(bad.value)
        with pytest.raises(CheckFailed):
            call.check(bad)


@pytest.mark.parametrize(
    "spec, model",
    [
        ({"kind": "cyclic", "n": 10}, Cyclic(10)),
        ({"kind": "dihedral", "n": 5}, Dihedral(5)),
        ({"kind": "symmetric", "n": 4}, Perm(4)),
        ({"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                                {"kind": "dihedral", "n": 3}]},
         Product(Cyclic(2), Dihedral(3))),
    ],
)
def test_table_check_accepts_builders_and_rejects_a_swapped_entry(spec, model):
    g = groupkit.build_group(spec)
    pairs = [(i, j) for i in range(g.order) for j in range(g.order)]
    check_table(model, g.names, g.table, pairs)
    table = [list(row) for row in g.table]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    with pytest.raises(CheckFailed):
        check_table(model, g.names, table, pairs)
    names = list(g.names)
    names[1], names[2] = names[2], names[1]
    with pytest.raises(CheckFailed):
        check_table(model, names, g.table, pairs)


def test_generated_cayley_spec_round_trips():
    import random

    model = Semidirect(4, 3)
    spec = model.cayley_spec(random.Random(7))
    g = groupkit.build_group(spec)
    check_table(model, g.names, g.table, [(i, j) for i in range(16) for j in range(16)])
    assert not g.is_abelian()


def test_tracer_splits_a_query_into_self_times(tour):
    tracer = tracing.Tracer()
    original = groupkit.cli.main
    tracer.install()
    try:
        answer(tour["msfa"])
        times = tracer.take_self_times()
    finally:
        tracer.uninstall()
    assert groupkit.cli.main is original
    for layer in ("cli", "groups.build", "words.parse", "report.render", "products.mid",
                  "products.check", "algorithms.search", "algorithms.validate"):
        assert times[layer] > 0, layer
    assert times["oracle.enumerate"] == 0


def run_bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-crosscheck", "--seed", "3",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_fault_injection_fails_every_round_without_stopping_the_run():
    proc = run_bench(ROOT, "--trace", "1", "--fault-inject", "drop-algorithm-set")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is True


def test_a_checkout_without_sources_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
