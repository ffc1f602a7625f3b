"""Replay the bundled worked examples against recomputed ground truth.

Each section replays one reference run: the algorithm is driven with the
recorded picks, every intermediate set is recomputed from scratch, and the
recorded listings are compared against the recomputation.  An algorithmic
failure reports FAIL; a recorded listing that disagrees with its own
recomputed value reports WARN, since the computation, not the listing, is
the ground truth here.
"""

from __future__ import annotations

import math
import warnings

from . import oracle, products
from .algorithms import ChoicePolicy, extend_to_middle_transversal, msfa, mta, rta
from .errors import InvalidSpec, MidEmpty, quote
from .groups import ElementSet, Group, build_group
from .words import parse_element, parse_subset


def _check(checks: list, name: str, ok: bool, detail: str = "") -> bool:
    checks.append(
        {"name": name, "status": "PASS" if ok else "FAIL", "detail": detail}
    )
    return ok


def _listed(checks: list, name: str, ok: bool, detail: str) -> bool:
    """Record a published listing's check: PASS, else WARN with detail."""
    status, detail = ("PASS", "") if ok else ("WARN", detail)
    checks.append({"name": name, "status": status, "detail": detail})
    return ok


def _listing(checks: list, name: str, computed: ElementSet, listed: ElementSet) -> bool:
    """Compare a recomputed set against a published listing; WARN on mismatch."""
    extra = ", ".join((listed - computed).names()) or "-"
    missing = ", ".join((computed - listed).names()) or "-"
    return _listed(
        checks,
        name,
        computed == listed,
        f"listing disagrees with recomputation: listed-but-absent [{extra}], "
        f"computed-but-unlisted [{missing}]",
    )


def _example_1_3(g: Group) -> dict:
    checks: list = []
    h = parse_subset(g, "0,3,6,9")
    _check(checks, "H is a subgroup", h.is_subgroup())
    trace = rta(h, g0=0, policy=ChoicePolicy.scripted([1, 2]))
    _check(checks, "run ends after N=2 steps", trace.n_steps == 2, f"N={trace.n_steps}")
    _check(
        checks,
        "candidate chain sizes are 12,8,4,0",
        trace.chain_sizes == [12, 8, 4, 0],
        f"sizes={trace.chain_sizes}",
    )
    _listing(
        checks,
        "second candidate set matches the listed {2,5,8,11}",
        trace.chain_sets[2],
        parse_subset(g, "2,5,8,11"),
    )
    _listing(checks, "output matches the listed T={0,1,2}", trace.output, parse_subset(g, "0,1,2"))
    _check(
        checks,
        "output is a right transversal",
        products.is_right_transversal(h, trace.output),
    )
    _check(
        checks,
        "index |G:H| equals N+1",
        g.order // len(h) == trace.n_steps + 1,
    )
    _check(
        checks,
        "output is among the brute-force transversals",
        trace.output in oracle.all_right_transversals(h),
    )
    return {"example": "1.3", "title": "right transversal run on the cyclic group of order 12", "checks": checks}


def _example_2_5(g: Group) -> dict:
    checks: list = []
    h = parse_subset(g, "1,a^3,ba^3,b")
    k = parse_subset(g, "1,a^3,ba,ba^4")
    _check(checks, "H and K are subgroups", h.is_subgroup() and k.is_subgroup())

    hk = products.set_product(h, k)
    listed_hk = parse_subset(g, "1,a,a^2,a^3,a^4,b,ba,ba^3,ba^4")
    _listing(checks, "product HK matches its listing", hk, listed_hk)
    _listing(
        checks,
        "complement of HK matches the listed {a^2,a^5,ba^2,ba^5}",
        hk.complement(),
        parse_subset(g, "a^2,a^5,ba^2,ba^5"),
    )

    g0 = parse_element(g, "1")
    g1 = parse_element(g, "a^2")
    trace = mta(h, k, g0=g0, policy=ChoicePolicy.scripted([g1]))
    _check(checks, "run ends after N=1 steps", trace.n_steps == 1, f"N={trace.n_steps}")
    _check(
        checks,
        "first candidate set is the recomputed complement of HK",
        trace.chain_sets[1] == hk.complement(),
    )
    _check(
        checks,
        "double coset of a^2 is the recomputed complement of HK",
        products.double_coset(h, g1, k) == hk.complement(),
    )
    _listing(checks, "output matches the listed X={1,a^2}", trace.output, parse_subset(g, "1,a^2"))
    _check(
        checks,
        "output is a middle transversal",
        products.is_middle_transversal(h, trace.output, k),
    )
    for other in ("1,a^5", "1,ba^2", "1,ba^5"):
        _check(
            checks,
            f"listed alternative {{{other}}} is a middle transversal",
            products.is_middle_transversal(h, parse_subset(g, other), k),
        )
    _check(
        checks,
        "the output is not a direct middle",
        not products.is_direct_triple(h, trace.output, k),
    )

    meet = h & k
    _listing(checks, "H∩K matches the listed {1,a^3}", meet, parse_subset(g, "1,a^3"))
    _check(checks, "H∩K equals the center of the group", meet == g.center())
    mid = products.mid_director_subgroups(h, k)
    _check(checks, "middle director is empty", len(mid) == 0, f"|Mid|={len(mid)}")
    refused = False
    try:
        msfa(h, k)
    except MidEmpty:
        refused = True
    _check(checks, "direct-middle search reports inapplicability", refused)

    count = len(oracle.all_middle_transversals(h, k))
    sizes = [len(b) for b in oracle.double_coset_partition(h, k)]
    expected = math.prod(sizes)
    _check(
        checks,
        "brute-force middle-transversal count is the product of coset sizes",
        count == expected,
        f"count={count}, block sizes={sizes}",
    )
    listed_count = len(listed_hk) * len(hk.complement())
    _listed(
        checks,
        "middle-transversal count implied by the listing",
        listed_count == count,
        f"the listed product implies {listed_count} middle transversals; "
        f"recomputation gives {count}",
    )
    return {
        "example": "2.5",
        "title": "middle transversal run on the dihedral group of order 12",
        "checks": checks,
    }


def _example_2_14(g: Group) -> dict:
    checks: list = []
    h = parse_subset(g, "1,ab")
    k = parse_subset(g, "1,a^3,b,ba^3")
    _check(checks, "H and K are subgroups", h.is_subgroup() and k.is_subgroup())

    hk = products.set_product(h, k)
    _check(checks, "product HK is direct", products.is_direct_pair(h, k))
    _listing(
        checks,
        "product HK matches its listing",
        hk,
        parse_subset(g, "1,a,a^3,a^4,b,ab,a^3b,a^4b"),
    )
    _listing(
        checks,
        "complement of HK matches the listed {a^2,a^5,a^2b,a^5b}",
        hk.complement(),
        parse_subset(g, "a^2,a^5,a^2b,a^5b"),
    )

    mid = products.mid_director_subgroups(h, k)
    _check(checks, "middle director equals HK", mid == hk)
    _check(
        checks,
        "Hx is contained in xK for every x outside HK",
        all(
            _right_in_left(g, h, x, k)
            for x in hk.complement()
        ),
    )

    g0 = g.identity
    trace = msfa(h, k, g0=g0, policy=ChoicePolicy.scripted([]))
    _check(checks, "direct-middle run ends after N=0 steps", trace.n_steps == 0)
    _listing(checks, "direct middle is the listed {1}", trace.output, parse_subset(g, "1"))
    verdict = products.direct_middle_verdict(h, trace.output, k)
    _check(checks, "the direct middle is a direct triple", verdict["direct"])
    _check(checks, "it does not cover the group", not verdict["covers_group"])

    maximal = oracle.all_maximal_direct_triples(h, k)
    _check(
        checks,
        "every maximal direct middle is a singleton from HK",
        maximal == {g.singleton(x) for x in hk},
        f"count={len(maximal)}",
    )

    extended = extend_to_middle_transversal(
        trace, policy=ChoicePolicy.scripted([parse_element(g, "a^2")])
    )
    _check(checks, "extension ends after N*=1 steps", extended.n_steps == 1)
    _listing(
        checks,
        "extended output matches the listed X*={1,a^2}",
        extended.output,
        parse_subset(g, "1,a^2"),
    )
    _check(
        checks,
        "extended output is a middle transversal",
        products.is_middle_transversal(h, extended.output, k),
    )
    _check(
        checks,
        "extended output is no longer direct",
        not products.is_direct_triple(h, extended.output, k),
    )
    return {
        "example": "2.14",
        "title": "direct middle and its extension on the dihedral group of order 12",
        "checks": checks,
    }


def _right_in_left(g: Group, h: ElementSet, x: int, k: ElementSet) -> bool:
    gx = g.singleton(x)
    return products.set_product(h, gx) <= products.set_product(gx, k)


# Each worked example: the group it runs on and its replay, in the examples'
# order.
EXAMPLES = {
    "1.3": ({"kind": "cyclic", "n": 12}, _example_1_3),
    "2.5": ({"kind": "dihedral", "n": 6}, _example_2_5),
    "2.14": ({"kind": "dihedral", "n": 6}, _example_2_14),
}


def run(examples: tuple[str, ...] | list[str] | None = None) -> tuple[Group, dict]:
    """Replay the chosen examples (all three for None), each once: a repeated
    name collapses, in first-seen order, with a warning; none is refused.

    Returns the group of the first example, for a report header, and
    {"sections": [...], "counts": {"pass": p, "warn": w, "fail": f}}.
    """
    if examples is not None and not examples:
        raise InvalidSpec(f"no example chosen; choose from {', '.join(EXAMPLES)}")
    names: dict[str, None] = {}  # insertion-ordered, so first-seen order
    for name in examples or EXAMPLES:
        if name not in EXAMPLES:
            raise InvalidSpec(f"unknown example {quote(name)}; choose from {', '.join(EXAMPLES)}")
        if name in names:
            warnings.warn(f"duplicate example {quote(name)} collapsed", stacklevel=2)
        names[name] = None
    groups = [build_group(EXAMPLES[name][0]) for name in names]
    sections = [EXAMPLES[name][1](g) for name, g in zip(names, groups)]
    counts = {"pass": 0, "warn": 0, "fail": 0}
    for section in sections:
        for check in section["checks"]:
            counts[check["status"].lower()] += 1
    return groups[0], {"sections": sections, "counts": counts}
