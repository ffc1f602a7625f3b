"""Chain-intersection searches for transversals and direct middles.

All three searches share one loop shape: keep a candidate set, start it from
a seed, repeatedly remove the coset of the element just chosen, and pick the
next element from what is left.  The candidate chain C^(-1) ⊇ C^(0) ⊇ ... is
recorded in the trace; the run ends when the chain hits the empty set.

- rta:  seed G, remove right cosets H*g        -> right transversal of H
- mta:  seed G, remove double cosets H*g*K     -> middle transversal
- msfa: seed Mid(H, K), remove double cosets   -> maximal direct middle X

A finished msfa run covers Mid but not necessarily G; the extension keeps
removing double cosets starting from the uncovered remainder and grows X to
a middle transversal (at the price of directness).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field

from . import config
from .errors import (
    EnumerationLimitExceeded,
    G0NotInMid,
    GroupMismatch,
    MidEmpty,
    ScriptedChoiceInvalid,
    TraceMismatch,
)
from .groups import ElementSet, Group, bit_indices
from .products import mid_director_subgroups

__all__ = [
    "ChoicePolicy",
    "SMALLEST",
    "AlgoTrace",
    "rta",
    "mta",
    "msfa",
    "extend_to_middle_transversal",
    "enumerate_all_right_transversals",
    "enumerate_all_middle_transversals",
    "enumerate_all_middle_subfactors",
]


@dataclass(frozen=True)
class ChoicePolicy:
    """How the next element is picked from the current candidate set.

    - smallest: always the least index (deterministic default)
    - random:   seeded uniform pick
    - script:   a fixed sequence of element indices; each must be available
                at its step, and leftovers are simply unused
    """

    mode: str = "smallest"
    seed: int | None = None
    script: tuple[int, ...] | None = None

    @classmethod
    def smallest(cls) -> "ChoicePolicy":
        return cls("smallest")

    @classmethod
    def random(cls, seed: int) -> "ChoicePolicy":
        return cls("random", seed=seed)

    @classmethod
    def scripted(cls, picks) -> "ChoicePolicy":
        return cls("script", script=tuple(picks))

    def describe(self) -> str:
        if self.mode == "random":
            return f"random:{self.seed}"
        if self.mode == "script":
            return "script:" + ",".join(str(p) for p in self.script or ())
        return "smallest"

    def start(self) -> "_Chooser":
        return _Chooser(self)


SMALLEST = ChoicePolicy.smallest()


class _Chooser:
    """Stateful picker for one or more chained runs."""

    def __init__(self, policy: ChoicePolicy) -> None:
        self.policy = policy
        self._rng = _random.Random(policy.seed) if policy.mode == "random" else None
        self._script = list(policy.script or ())
        self._pos = 0

    def pick(self, group: Group, mask: int) -> int:
        if mask == 0:
            raise ValueError("cannot pick from an empty candidate set")
        mode = self.policy.mode
        if mode == "smallest":
            return (mask & -mask).bit_length() - 1
        if mode == "random":
            options = list(bit_indices(mask))
            return self._rng.choice(options)
        if self._pos >= len(self._script):
            raise ScriptedChoiceInvalid(
                f"script exhausted after {self._pos} picks but another choice is needed"
            )
        choice = self._script[self._pos]
        self._pos += 1
        if not 0 <= choice < group.order or mask >> choice & 1 == 0:
            raise ScriptedChoiceInvalid(
                f"scripted pick {choice} ({group.names[choice] if 0 <= choice < group.order else '?'}) "
                f"is not in the candidate set at step {self._pos - 1}"
            )
        return choice


@dataclass
class AlgoTrace:
    """Complete record of one chain-intersection run.

    chosen holds g_0..g_N; chain_sizes holds |C^(-1)|..|C^(N)| with the last
    entry 0; chain_sets mirrors chain_sizes when the run recorded full sets.
    For extension runs the chain fields cover only the continuation part and
    extension_start gives the number of inherited picks.
    """

    algorithm: str
    group: Group
    h: ElementSet
    k: ElementSet | None
    chosen: list[int]
    chain_sizes: list[int]
    chain_sets: list[ElementSet] | None
    output: ElementSet
    n_steps: int
    policy: str = "smallest"
    extension_start: int | None = None
    warnings: list[str] = field(default_factory=list)

    def validate(self) -> None:
        """Internal-consistency checks; raises TraceMismatch on any failure."""
        if len(self.chosen) != len(set(self.chosen)):
            raise TraceMismatch("chosen elements repeat")
        if self.output.mask != _mask_of(self.chosen):
            raise TraceMismatch("output does not equal the set of chosen elements")
        if self.chain_sizes[-1] != 0:
            raise TraceMismatch("chain does not end empty")
        if self.extension_start is None and len(self.chain_sizes) != len(self.chosen) + 1:
            raise TraceMismatch("chain length disagrees with the number of picks")
        if self.extension_start is not None and len(self.chain_sizes) != len(
            self.chosen
        ) - self.extension_start:
            raise TraceMismatch("continuation chain length disagrees with the added picks")
        if any(a <= b for a, b in zip(self.chain_sizes, self.chain_sizes[1:])):
            raise TraceMismatch("chain sizes fail to decrease strictly")
        if self.chain_sets is not None:
            if [len(c) for c in self.chain_sets] != self.chain_sizes:
                raise TraceMismatch("chain sets disagree with chain sizes")
            for earlier, later in zip(self.chain_sets, self.chain_sets[1:]):
                if not later <= earlier:
                    raise TraceMismatch("chain sets fail to nest")


def _mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _right_coset_mask(g: Group, hmask: int, x: int) -> int:
    t = g.table
    out = 0
    for a in bit_indices(hmask):
        out |= 1 << t[a][x]
    return out


def _double_coset_mask(g: Group, hmask: int, x: int, kmask: int) -> int:
    t = g.table
    out = 0
    for a in bit_indices(hmask):
        ax = t[a][x]
        row = t[ax]
        for b in bit_indices(kmask):
            out |= 1 << row[b]
    return out


class _CosetCache:
    """Per-run memo of coset masks keyed by representative."""

    def __init__(self, g: Group, hmask: int, kmask: int | None) -> None:
        self.g = g
        self.hmask = hmask
        self.kmask = kmask
        self._memo: dict[int, int] = {}

    def mask(self, x: int) -> int:
        hit = self._memo.get(x)
        if hit is None:
            if self.kmask is None:
                hit = _right_coset_mask(self.g, self.hmask, x)
            else:
                hit = _double_coset_mask(self.g, self.hmask, x, self.kmask)
            self._memo[x] = hit
        return hit


def _run_chain(
    g: Group,
    cosets: _CosetCache,
    seed_mask: int,
    g0: int,
    chooser: _Chooser,
    record: str,
):
    chosen = [g0]
    c = seed_mask
    chain_masks = [c]
    while True:
        c &= ~cosets.mask(chosen[-1])
        chain_masks.append(c)
        if c == 0:
            break
        chosen.append(chooser.pick(g, c))
    sizes = [m.bit_count() for m in chain_masks]
    sets = [g.subset_from_mask(m) for m in chain_masks] if record == "full" else None
    return chosen, sizes, sets


def _common_setup(h: ElementSet, k: ElementSet | None, policy, chooser):
    g = h.group
    h.require_subgroup("H")
    if k is not None:
        if k.group is not g:
            raise GroupMismatch("H and K belong to different groups")
        k.require_subgroup("K")
    if chooser is None:
        chooser = policy.start()
    return g, chooser


def rta(
    h: ElementSet,
    g0: int | None = None,
    policy: ChoicePolicy = SMALLEST,
    *,
    record: str = "sizes",
    chooser: _Chooser | None = None,
) -> AlgoTrace:
    """Right-transversal search for a subgroup H."""
    g, chooser = _common_setup(h, None, policy, chooser)
    cosets = _CosetCache(g, h.mask, None)
    if g0 is None:
        g0 = chooser.pick(g, g.full_mask)
    else:
        g._check_index(g0)
    chosen, sizes, sets = _run_chain(g, cosets, g.full_mask, g0, chooser, record)
    return AlgoTrace(
        algorithm="RTA",
        group=g,
        h=h,
        k=None,
        chosen=chosen,
        chain_sizes=sizes,
        chain_sets=sets,
        output=g.subset_from_mask(_mask_of(chosen)),
        n_steps=len(chosen) - 1,
        policy=chooser.policy.describe(),
    )


def mta(
    h: ElementSet,
    k: ElementSet,
    g0: int | None = None,
    policy: ChoicePolicy = SMALLEST,
    *,
    record: str = "sizes",
    chooser: _Chooser | None = None,
) -> AlgoTrace:
    """Middle-transversal search for a subgroup pair (H, K)."""
    g, chooser = _common_setup(h, k, policy, chooser)
    cosets = _CosetCache(g, h.mask, k.mask)
    if g0 is None:
        g0 = chooser.pick(g, g.full_mask)
    else:
        g._check_index(g0)
    chosen, sizes, sets = _run_chain(g, cosets, g.full_mask, g0, chooser, record)
    return AlgoTrace(
        algorithm="MTA",
        group=g,
        h=h,
        k=k,
        chosen=chosen,
        chain_sizes=sizes,
        chain_sets=sets,
        output=g.subset_from_mask(_mask_of(chosen)),
        n_steps=len(chosen) - 1,
        policy=chooser.policy.describe(),
    )


def msfa(
    h: ElementSet,
    k: ElementSet,
    g0: int | None = None,
    policy: ChoicePolicy = SMALLEST,
    *,
    record: str = "sizes",
    chooser: _Chooser | None = None,
) -> AlgoTrace:
    """Maximal-direct-middle search, seeded with the middle director."""
    g, chooser = _common_setup(h, k, policy, chooser)
    mid = mid_director_subgroups(h, k)
    if not mid:
        raise MidEmpty(
            f"the middle director of H={h!r} and K={k!r} is empty; "
            "no direct middle exists"
        )
    cosets = _CosetCache(g, h.mask, k.mask)
    if g0 is None:
        g0 = chooser.pick(g, mid.mask)
    else:
        g._check_index(g0)
        if g0 not in mid:
            raise G0NotInMid(f"g0={g.names[g0]!r} lies outside the middle director")
    chosen, sizes, sets = _run_chain(g, cosets, mid.mask, g0, chooser, record)
    return AlgoTrace(
        algorithm="MSFA",
        group=g,
        h=h,
        k=k,
        chosen=chosen,
        chain_sizes=sizes,
        chain_sets=sets,
        output=g.subset_from_mask(_mask_of(chosen)),
        n_steps=len(chosen) - 1,
        policy=chooser.policy.describe(),
    )


def _replay_msfa(trace: AlgoTrace, h: ElementSet, k: ElementSet, cosets: _CosetCache):
    """Re-derive the msfa chain from its chosen picks; returns the union of
    removed double cosets.  Raises TraceMismatch when anything disagrees."""
    g = h.group
    if trace.algorithm != "MSFA":
        raise TraceMismatch(f"expected an MSFA trace, got {trace.algorithm}")
    if trace.group is not g or trace.h != h or trace.k != k:
        raise TraceMismatch("trace was produced for a different group or subgroup pair")
    mid = mid_director_subgroups(h, k)
    c = mid.mask
    covered = 0
    for step, pick in enumerate(trace.chosen):
        if c >> pick & 1 == 0:
            raise TraceMismatch(f"pick {step} ({g.names[pick]!r}) is not a valid candidate")
        dc = cosets.mask(pick)
        covered |= dc
        c &= ~dc
    if c != 0:
        raise TraceMismatch("trace stops before its candidate chain is exhausted")
    if trace.output.mask != _mask_of(trace.chosen):
        raise TraceMismatch("trace output disagrees with its picks")
    return covered


def extend_to_middle_transversal(
    h: ElementSet,
    k: ElementSet,
    trace: AlgoTrace,
    policy: ChoicePolicy = SMALLEST,
    *,
    record: str = "sizes",
    chooser: _Chooser | None = None,
) -> AlgoTrace:
    """Continue a finished msfa run until X covers the whole group.

    Returns the input trace unchanged when it already covers G.  The result
    is a middle transversal containing the msfa output; the added picks lie
    outside the middle director, so directness is given up.
    """
    g, chooser = _common_setup(h, k, policy, chooser)
    cosets = _CosetCache(g, h.mask, k.mask)
    covered = _replay_msfa(trace, h, k, cosets)
    if covered == g.full_mask:
        return trace
    chosen = list(trace.chosen)
    c = g.full_mask & ~covered
    chain_masks = [c]
    while c:
        pick = chooser.pick(g, c)
        chosen.append(pick)
        c &= ~cosets.mask(pick)
        chain_masks.append(c)
    sizes = [m.bit_count() for m in chain_masks]
    sets = [g.subset_from_mask(m) for m in chain_masks] if record == "full" else None
    return AlgoTrace(
        algorithm="Extension",
        group=g,
        h=h,
        k=k,
        chosen=chosen,
        chain_sizes=sizes,
        chain_sets=sets,
        output=g.subset_from_mask(_mask_of(chosen)),
        n_steps=len(chosen) - 1,
        policy=chooser.policy.describe(),
        extension_start=trace.n_steps,
    )


# -- exhaustive enumeration ---------------------------------------------------


def _enumerate(
    g: Group,
    seed_mask: int,
    coset_masks: list[int],
    limit: int | None,
) -> set[ElementSet]:
    """Every output of the chain search started on seed_mask, each once.

    The search branches on the cell of the lowest uncovered candidate, the
    "choose a column" rule of exact cover (Knuth, Dancing Links): every pick
    in that cell removes the same coset, so every node has a live child,
    every leaf is an output, and no set is reached twice.  The result count
    is therefore the product of the cell sizes, checked against the cap
    before any branching.
    """
    cap = config.enum_cap(limit)
    total = 1
    c = seed_mask
    while c:
        cell = c & coset_masks[(c & -c).bit_length() - 1]
        total *= cell.bit_count()
        if total > cap:
            raise EnumerationLimitExceeded(
                f"enumeration exceeds the cap of {cap} results; raise the limit to continue"
            )
        c &= ~cell
    results: list[int] = []
    # stack holds (candidate mask after the picks so far, chosen mask)
    stack = [(seed_mask, 0)]
    while stack:
        c, chosen = stack.pop()
        if c == 0:
            results.append(chosen)
            continue
        cell = c & coset_masks[(c & -c).bit_length() - 1]
        for nxt in bit_indices(cell):
            stack.append((c & ~coset_masks[nxt], chosen | 1 << nxt))
    return {g.subset_from_mask(m) for m in results}


def enumerate_all_right_transversals(
    h: ElementSet,
    *,
    limit: int | None = None,
) -> set[ElementSet]:
    """Every right transversal of H, via exhaustive branching of the search."""
    g = h.group
    h.require_subgroup("H")
    cosets = [_right_coset_mask(g, h.mask, x) for x in range(g.order)]
    return _enumerate(g, g.full_mask, cosets, limit)


def enumerate_all_middle_transversals(
    h: ElementSet,
    k: ElementSet,
    *,
    limit: int | None = None,
) -> set[ElementSet]:
    """Every middle transversal of (H, K)."""
    g = h.group
    h.require_subgroup("H")
    if k.group is not g:
        raise GroupMismatch("H and K belong to different groups")
    k.require_subgroup("K")
    cosets = [_double_coset_mask(g, h.mask, x, k.mask) for x in range(g.order)]
    return _enumerate(g, g.full_mask, cosets, limit)


def enumerate_all_middle_subfactors(
    h: ElementSet,
    k: ElementSet,
    *,
    limit: int | None = None,
) -> set[ElementSet]:
    """Every maximal direct middle X for (H, K); raises MidEmpty when none exist."""
    g = h.group
    h.require_subgroup("H")
    if k.group is not g:
        raise GroupMismatch("H and K belong to different groups")
    k.require_subgroup("K")
    mid = mid_director_subgroups(h, k)
    if not mid:
        raise MidEmpty(f"the middle director of H={h!r} and K={k!r} is empty")
    cosets = [_double_coset_mask(g, h.mask, x, k.mask) for x in range(g.order)]
    return _enumerate(g, mid.mask, cosets, limit)
