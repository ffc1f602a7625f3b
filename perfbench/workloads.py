"""The benchmark's three workloads.

One operation is one whole round of a workload's fixed list of calls, so
every timed operation does identical work.  Each call is timed on its own
and checked right after, outside its timed interval; a round's time is the
sum of its calls' times.  The seed fixes the run's inputs: the order of the
calls in a round, the start elements g0 of the searches, the labelling of
the generated Cayley table and the pairs sampled to check large tables.
None of these changes the amount of work in a round.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

import groupkit
import groupkit.cli
import jsonschema
from groupkit.report import load_schema

from model import (
    CheckFailed,
    Cyclic,
    Dihedral,
    Perm,
    Product,
    Semidirect,
    Structure,
    check_table,
    closure,
    require,
    sample_pairs,
)

_VALIDATOR = jsonschema.Draft202012Validator(load_schema())


def check_schema(report: dict) -> None:
    errors = [e.message for e in _VALIDATOR.iter_errors(report)]
    require(not errors, "report breaks runreport.schema.json: " + "; ".join(errors[:3]))


def names_arg(model, elems) -> str:
    """A comma list of canonical names, in a fixed order."""
    return ",".join(sorted(model.name(x) for x in elems))


@dataclass
class Outcome:
    """What one call returned: a JSON report, a Group or a list of sets, or
    why groupkit reported failure."""

    value: object = None
    failed: str | None = None


@dataclass
class Call:
    """One call of a round: its label, how to make it, and how to check it."""

    label: str
    run: object  # () -> Outcome, timed
    check: object  # (Outcome) -> None, raises CheckFailed
    work: int = 0  # the workload's unit of work this call completes


def cli_call(label: str, argv: list[str], check, work: int = 0) -> Call:
    """A one-shot CLI query through groupkit.cli.main, JSON output."""
    argv = argv + ["--format", "json"]

    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = groupkit.cli.main(argv)
        if rc != 0:
            return Outcome(failed=f"exit {rc}: {err.getvalue().strip()[:200]}")
        return Outcome(json.loads(out.getvalue()))

    def checked(outcome: Outcome) -> None:
        report = outcome.value
        check_schema(report)
        require(report["command"] == argv[0], f"report is for {report['command']!r}")
        require(report["exit_code"] == 0, f"report exit_code {report['exit_code']}")
        check(report["result"])

    return Call(label, run, checked, work)


# -- per-command checks ------------------------------------------------------------


def check_rta(st: Structure, g0: str | None):
    def check(r: dict) -> None:
        st.check_one_per_block(r["transversal"], "the rta output")
        require(r["index"] == len(st.blocks), f"index {r['index']}, expected {len(st.blocks)}")
        require(r["valid"] is True, "rta output not reported valid")
        require(g0 is None or r["trace"]["chosen"][0] == g0, "first pick is not g0")

    return check


def check_mta(st: Structure, g0: str | None):
    def check(r: dict) -> None:
        st.check_one_per_block(r["transversal"], "the mta output")
        require(r["double_coset_count"] == len(st.blocks), "wrong double coset count")
        require(r["valid"] is True, "mta output not reported valid")
        require(g0 is None or r["trace"]["chosen"][0] == g0, "first pick is not g0")

    return check


def check_msfa(st: Structure, g0: str | None):
    everything = frozenset(st.label)

    def check(r: dict) -> None:
        covered = st.check_direct_maximal(r["x"])
        require(r["mid_size"] == len(st.mid), f"mid_size {r['mid_size']}, expected {len(st.mid)}")
        require(r["direct"] is True and r["maximal"] is True, "X not reported direct and maximal")
        require(r["covers_group"] == (covered == everything), "covers_group is wrong")
        require(g0 is None or r["trace"]["chosen"][0] == g0, "first pick is not g0")
        st.check_one_per_block(r["x_star"], "x_star")
        require(set(r["x"]) <= set(r["x_star"]), "x_star does not extend X")

    return check


def check_mid(st: Structure):
    want = sorted(st.model.name(x) for x in st.mid)
    order = len(st.label)

    def check(r: dict) -> None:
        require(r["size"] == len(want), f"mid size {r['size']}, expected {len(want)}")
        require(sorted(r["mid"]) == want, "mid set differs from the benchmark's Mid")
        tag = "Empty" if not want else "Full" if len(want) == order else "ProperNonempty"
        require(r["tag"] == tag, f"tag {r['tag']}, expected {tag}")
        require(r.get("agree") is True, "the two mid methods were not reported to agree")

    return check


def check_enum(st: Structure):
    want = st.count()

    def check(r: dict) -> None:
        require(
            r["count_algorithm"] == want and r["count_oracle"] == want,
            f"counts {r['count_algorithm']}/{r['count_oracle']}, expected {want}",
        )
        require(r["match"] is True, "search and oracle not reported to match")

    return check


# -- workload plumbing ---------------------------------------------------------------


@dataclass
class Workload:
    name: str
    calls: list[Call]
    unit: str
    # Calls made and checked once, after the timed loop.
    final_calls: list[Call] = field(default_factory=list)

    def work_per_round(self) -> int:
        return sum(c.work for c in self.calls)


def timed(call: Call) -> tuple[float, Outcome]:
    start = perf_counter()
    try:
        outcome = call.run()
    except Exception as exc:  # a crash inside groupkit fails the call, not the run
        outcome = Outcome(failed=f"{type(exc).__name__}: {exc}")
    return perf_counter() - start, outcome


def attempt(call: Call, problems: list[str]) -> tuple[float, bool, bool]:
    """Time one call, then check it outside the timed interval.

    Returns (seconds, failed, wrong): failed when groupkit reported failure,
    wrong when it reported success but the answer fails a check."""
    dt, outcome = timed(call)
    if outcome.failed is not None:
        problems.append(f"{call.label}: {outcome.failed}")
        return dt, True, False
    try:
        call.check(outcome)
    except (CheckFailed, LookupError, TypeError) as exc:  # a malformed answer is a wrong one
        problems.append(f"{call.label}: wrong answer: {exc!r}")
        return dt, False, True
    return dt, False, False


ENUM = ["enumerate", "--via", "both"]


def tour_calls(unit: str) -> list[Call]:
    """The README's worked CLI examples at order 12.

    They take well under 1% of any round and reach every layer, so each
    per-layer metric is measured on every workload.  Their work counts in
    the workload's own unit: each query for "queries", the enumerated sets
    for "sets", nothing for "cells"."""
    z12 = Cyclic(12)
    d12 = Dihedral(6)
    h_rt = closure(z12, [3])
    h_ab = closure(d12, [(1, 5)])  # the word ab is ba^5
    k = closure(d12, [(0, 3), (1, 0)])
    h2 = closure(d12, [(0, 3), (1, 3)])
    k2 = closure(d12, [(0, 3), (1, 1)])
    pair = ["--group", "dihedral:6", "-H", names_arg(d12, h_ab), "-K", names_arg(d12, k)]
    st_mid = Structure(d12, h_ab, k)
    st_mt = Structure(d12, h2, k2)
    query = 1 if unit == "queries" else 0
    return [
        cli_call("tour rta cyclic:12", ["rta", "--group", "cyclic:12", "-H", names_arg(z12, h_rt)],
                 check_rta(Structure(z12, h_rt), None), query),
        cli_call("tour msfa dihedral:6", ["msfa", *pair, "--extend"], check_msfa(st_mid, None),
                 query),
        cli_call("tour mid dihedral:6", ["mid", *pair, "--method", "both"], check_mid(st_mid),
                 query),
        cli_call(
            "tour enumerate dihedral:6",
            ENUM + ["--group", "dihedral:6", "-H", names_arg(d12, h2), "-K", names_arg(d12, k2),
                    "--what", "middle-transversals"],
            check_enum(st_mt),
            st_mt.count() if unit == "sets" else query,
        ),
    ]


# -- enum-crosscheck -----------------------------------------------------------------


ENUMERATORS = {
    "right-transversals": "enumerate_all_right_transversals",
    "middle-transversals": "enumerate_all_middle_transversals",
    "middle-subfactors": "enumerate_all_middle_subfactors",
}


def list_call(label: str, spec: dict, what: str, h_arg: str, k_arg: str | None,
              st: Structure) -> Call:
    """The search-side enumeration once more, through the library, with
    every returned set checked (a --list report of 10^5 sets costs more
    to render and schema-check than the enumeration itself)."""
    label_of = {st.model.name(x): i for x, i in st.label.items()}
    nblocks = len(st.blocks)

    def run() -> Outcome:
        g = groupkit.build_group(spec)
        subgroups = [groupkit.parse_subset(g, a) for a in (h_arg, k_arg) if a is not None]
        sets = getattr(groupkit, ENUMERATORS[what])(*subgroups)
        return Outcome([s.names() for s in sets])

    def check(outcome: Outcome) -> None:
        sets = outcome.value
        require(len(sets) == st.count(), f"{len(sets)} sets returned, expected {st.count()}")
        require(len({tuple(s) for s in sets}) == len(sets), "a set is returned twice")
        for s in sets:
            labels = {label_of.get(x, -1) for x in s}
            require(
                len(s) == nblocks and len(labels) == nblocks and -1 not in labels,
                f"{{{', '.join(s)}}} does not meet each block exactly once",
            )

    return Call(label + " (every set)", run, check)


def group_arg(spec: dict) -> str:
    """The --group form of a spec: kind:n for the builtin families."""
    if set(spec) == {"kind", "n"}:
        return f"{spec['kind']}:{spec['n']}"
    return json.dumps(spec)


def enum_crosscheck(seed: int) -> Workload:
    rng = random.Random(seed)
    z24, s4, d24 = Cyclic(24), Perm(4), Dihedral(12)
    c2d12 = Product(Cyclic(2), Dihedral(6))
    # Product names hold commas, so that H goes in as element indices:
    # row-major over the factors, dihedral rotations before reflections.
    c2d12_h = closure(c2d12, [(1, (0, 0))])
    c2d12_h_arg = ",".join(str(c * 12 + s * 6 + r) for c, (s, r) in sorted(c2d12_h))
    centre = closure(d24, [(0, 6)])

    # (label, spec, model, H, H argument, K or None, what); the first four
    # are the sparse half (cosets of size 2), the rest the dense half.
    cases = [
        ("Z24 |H|=2 rt", {"kind": "cyclic", "n": 24}, z24, closure(z24, [12]), None, None,
         "right-transversals"),
        ("S4 |H|=2 rt", {"kind": "symmetric", "n": 4}, s4, closure(s4, [s4.parse("(1 2)")]),
         None, None, "right-transversals"),
        ("C2xD12 |H|=2 rt",
         {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2},
                                                {"kind": "dihedral", "n": 6}]},
         c2d12, c2d12_h, c2d12_h_arg, None, "right-transversals"),
        ("D24 central mt", {"kind": "dihedral", "n": 12}, d24, centre, None, centre,
         "middle-transversals"),
    ]
    for n in (15, 16):
        m = Dihedral(n)
        h, k = closure(m, [(1, 0)]), closure(m, [(1, 1)])
        for what, tag in (("middle-subfactors", "msf"), ("middle-transversals", "mt")):
            cases.append((f"D{2 * n} <b>,<ba> {tag}", {"kind": "dihedral", "n": n}, m, h, None, k,
                          what))

    calls, finals = [], []
    for label, spec, m, h, h_arg, k, what in cases:
        h_arg = h_arg or names_arg(m, h)
        k_arg = None if k is None else names_arg(m, k)
        argv = ENUM + ["--group", group_arg(spec), "-H", h_arg, "--what", what]
        if k_arg is not None:
            argv += ["-K", k_arg]
        st = Structure(m, h, k, restrict_to_mid=what == "middle-subfactors")
        calls.append(cli_call(label, argv, check_enum(st), st.count()))
        finals.append(list_call(label, spec, what, h_arg, k_arg, st))
    rng.shuffle(calls)
    return Workload("enum-crosscheck", calls + tour_calls("sets"), "verified sets", finals)


# -- query-mix ---------------------------------------------------------------------


def query_mix(seed: int) -> Workload:
    rng = random.Random(seed)
    d600, s6, z1024 = Dihedral(300), Perm(6), Cyclic(1024)
    pairs = [
        ("dihedral:300", d600, closure(d600, [(1, 0)]), closure(d600, [(1, 1)]),
         ("rta", "mta", "msfa", "mid")),
        # Conjugate transpositions make Mid proper, so the extension runs.
        ("symmetric:6", s6, closure(s6, [s6.parse("(1 2)")]), closure(s6, [s6.parse("(3 4)")]),
         ("msfa", "mid")),
        # Any two nontrivial subgroups of a cyclic 2-group meet, so Mid is
        # empty and msfa would only exit 3.
        ("cyclic:1024", z1024, closure(z1024, [256]), closure(z1024, [512]),
         ("rta", "mta", "mid")),
    ]
    calls = []
    for spec, m, h, k, commands in pairs:
        st = Structure(m, h, k)
        hk = ["--group", spec, "-H", names_arg(m, h), "-K", names_arg(m, k)]
        if "rta" in commands:
            g0 = m.name(rng.choice(sorted(m.elements())))
            calls.append(cli_call(f"rta {spec}", ["rta", "--group", spec, "-H", names_arg(m, h),
                                                  "--g0", g0], check_rta(Structure(m, h), g0), 1))
        if "mta" in commands:
            g0 = m.name(rng.choice(sorted(m.elements())))
            calls.append(cli_call(f"mta {spec}", ["mta", *hk, "--g0", g0], check_mta(st, g0), 1))
        if "msfa" in commands:
            g0 = m.name(rng.choice(sorted(st.mid)))
            calls.append(cli_call(f"msfa --extend {spec}", ["msfa", *hk, "--g0", g0, "--extend"],
                                  check_msfa(st, g0), 1))
        calls.append(cli_call(f"mid {spec}", ["mid", *hk, "--method", "both"], check_mid(st), 1))
    rng.shuffle(calls)
    return Workload("query-mix", calls + tour_calls("queries"), "answered queries")


# -- table-build -------------------------------------------------------------------


def build_call(label: str, spec: dict, model, rng: random.Random) -> Call:
    pairs = sample_pairs(model.order, rng, full_up_to=256, samples=8192)

    def run() -> Outcome:
        return Outcome(groupkit.build_group(spec))

    def check(outcome: Outcome) -> None:
        g = outcome.value
        check_table(model, g.names, g.table, pairs)

    return Call(label, run, check, model.order ** 2)


def table_build(seed: int) -> Workload:
    rng = random.Random(seed)
    cayley = Semidirect(16, 5)
    s6_gens = {"kind": "permutation", "degree": 6, "generators": [[[1, 2]], [[1, 2, 3, 4, 5, 6]]]}
    calls = [
        build_call("cyclic:2048", {"kind": "cyclic", "n": 2048}, Cyclic(2048), rng),
        build_call("dihedral:512", {"kind": "dihedral", "n": 512}, Dihedral(512), rng),
        build_call("symmetric:6", {"kind": "symmetric", "n": 6}, Perm(6), rng),
        build_call("S6 from (1 2), (1 2 3 4 5 6)", s6_gens, Perm(6), rng),
        build_call(
            "cyclic:8 x dihedral:32",
            {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 8},
                                                   {"kind": "dihedral", "n": 32}]},
            Product(Cyclic(8), Dihedral(32)),
            rng,
        ),
        build_call("cayley Z16:Z16 (order 256)", cayley.cayley_spec(rng), cayley, rng),
    ]
    rng.shuffle(calls)
    return Workload("table-build", calls + tour_calls("cells"), "table cells")


WORKLOADS = {
    "enum-crosscheck": enum_crosscheck,
    "query-mix": query_mix,
    "table-build": table_build,
}

