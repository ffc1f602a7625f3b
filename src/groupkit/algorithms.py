"""Chain-intersection searches for transversals and direct middles.

Everything here runs over one partition of G per subgroup pair: the blocks
H*x*K, built once by _coset_blocks.  Right cosets are the case K = {1}: rta
and the right-transversal enumeration pass the trivial subgroup as K.
A search keeps a candidate set, starts it from a seed, repeatedly removes
the block of the element just chosen, and picks the next element from what
is left.  The candidate chain C^(-1) ⊇ C^(0) ⊇ ... is recorded in the trace;
the run ends when the chain hits the empty set.

- rta:  seed G, blocks H*g*{1} = H*g          -> right transversal of H
- mta:  seed G, blocks H*g*K                  -> middle transversal
- msfa: seed Mid(H, K), blocks H*g*K          -> maximal direct middle X

The seed comes from the same partition (_seed_and_blocks): x lies in the
middle director Mid exactly when |H*x*K| = |H||K|, so Mid is the union of
the blocks of that size, and no search calls a Mid kernel of its own.

A finished msfa run covers Mid but not necessarily G; the extension runs the
same chain from the uncovered remainder and grows X to a middle transversal
(at the price of directness).  AlgoTrace.validate() reruns the search with
the recorded picks as its script and compares the runs.  The exhaustive
enumerations build every output at once: a pick removes its whole block, so
the outputs are the sets taking one element from each block inside the
seed, the Cartesian product of those cells.  They build it as int masks;
the enumerate_all_* functions wrap each mask as an ElementSet.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass

from . import config
from .errors import (
    EnumerationLimitExceeded,
    G0NotInMid,
    GroupKitError,
    MidEmpty,
    ScriptedChoiceInvalid,
    TraceMismatch,
)
from .groups import ElementSet, Group, _mask_of, bit_indices
from .products import _cell_maker, _subgroup_pair

# the searches read Mid off the blocks and call no Mid kernel, but this name
# stays importable from here: perfbench/tracing.py wraps it by name
from .products import mid_director_subgroups  # noqa: F401

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
        """A picker at the start of this policy's sequence of picks."""
        return _Chooser(self)


SMALLEST = ChoicePolicy.smallest()


class _Chooser:
    """Stateful picker for one or more chained runs.  It can stand where a
    ChoicePolicy is taken: start() returns the picker itself, so a second
    run continues its picks where the first left off."""

    def __init__(self, policy: ChoicePolicy) -> None:
        self.policy = policy
        self._rng = _random.Random(policy.seed) if policy.mode == "random" else None
        self._script = list(policy.script or ())
        self._pos = 0

    def start(self) -> "_Chooser":
        return self

    def pick(self, group: Group, mask: int) -> int:
        """An element of the nonempty candidate mask."""
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
        # a bool is no element index, as in Group._check_index
        valid = (
            isinstance(choice, int) and not isinstance(choice, bool) and 0 <= choice < group.order
        )
        if not valid or mask >> choice & 1 == 0:
            raise ScriptedChoiceInvalid(
                f"scripted pick {choice} ({group.names[choice] if valid else '?'}) "
                f"is not in the candidate set at step {self._pos - 1}"
            )
        return choice


@dataclass
class AlgoTrace:
    """Complete record of one chain-intersection run: its picks and its
    candidate chain, from which everything else is read off.

    k is the trivial subgroup {1} for rta.  chosen holds g_0..g_N; chain
    holds the candidate masks C^(-1)..C^(N), the last one 0.  For extension
    runs chain covers only the continuation part, starting from what the
    inherited picks leave uncovered, so chain is shorter than chosen and
    extension_start is the index of the last inherited pick.
    """

    algorithm: str
    h: ElementSet
    k: ElementSet
    chosen: list[int]
    chain: list[int]
    policy: str = "smallest"

    @property
    def group(self) -> Group:
        return self.h.group

    @property
    def extension_start(self) -> int | None:
        start = len(self.chosen) - len(self.chain)
        return start if start >= 0 else None

    @property
    def seed(self) -> ElementSet:
        """The starting candidate set C^(-1)."""
        return self.group.subset_from_mask(self.chain[0])

    @property
    def chain_sizes(self) -> list[int]:
        return [m.bit_count() for m in self.chain]

    @property
    def chain_sets(self) -> list[ElementSet]:
        return [self.group.subset_from_mask(m) for m in self.chain]

    @property
    def output(self) -> ElementSet:
        return self.group.subset_from_mask(_mask_of(self.chosen))

    @property
    def n_steps(self) -> int:
        return len(self.chosen) - 1

    def validate(self) -> None:
        """Rerun the search with g_0 as its first pick and the other recorded
        picks as its script; an extension reruns its msfa part from Mid and
        continues from what that leaves uncovered.  Raises TraceMismatch
        when the rerun fails or differs from the recorded run."""
        # with no picks the rerun asks the empty script for g_0, and fails
        g0, *script = self.chosen or [None]
        chooser = ChoicePolicy.scripted(script).start()
        extension = self.algorithm == "Extension"
        try:
            rerun = _search("MSFA" if extension else self.algorithm, self.h, self.k, g0, chooser)
            if extension:
                rerun = _extend(rerun, chooser)
        except GroupKitError as exc:
            raise TraceMismatch(f"the recorded picks do not rerun: {exc}") from None
        recorded = (self.algorithm, self.chosen, self.chain)
        if (rerun.algorithm, rerun.chosen, rerun.chain) != recorded:
            raise TraceMismatch("the rerun differs from the recorded trace")


def _coset_blocks(h: ElementSet, k: ElementSet) -> list[int]:
    """The mask of the block H*x*K holding each element x of G.  Covers G
    from the lowest uncovered element, one block at a time.  A block costs
    min(|H|, |K|) gathers (_cell_maker), and it holds at least max(|H|, |K|)
    elements, so the walk makes at most n gathers and O(n) other steps in
    all, whatever the orders of H and K."""
    g = h.group
    cell_of = _cell_maker(g, h.indices(), k.indices())
    blocks = [0] * g.order
    uncovered = g.full_mask
    while uncovered:
        cell = cell_of((uncovered & -uncovered).bit_length() - 1)
        block = _mask_of(cell)
        for y in cell:
            blocks[y] = block
        uncovered &= ~block
    return blocks


def _seed_and_blocks(h: ElementSet, k: ElementSet, mid: bool) -> tuple[int, list[int]]:
    """Check the pair, build its blocks once, and return the seed mask with
    them: G, or when mid the middle director.  Mid is the union of the
    blocks of |H||K| elements, as x is in Mid exactly when |H*x*K| =
    |H||K|; raises MidEmpty when there are none."""
    g = _subgroup_pair(h, k)
    blocks = _coset_blocks(h, k)
    if not mid:
        return g.full_mask, blocks
    size = len(h) * len(k)
    seed = 0
    c = g.full_mask
    while c:
        block = blocks[(c & -c).bit_length() - 1]
        c &= ~block
        if block.bit_count() == size:
            seed |= block
    if not seed:
        raise MidEmpty(
            f"the middle director of H={h.shown()} and K={k.shown()} is empty; "
            "no direct middle exists"
        )
    return seed, blocks


def _run_chain(
    algorithm: str,
    h: ElementSet,
    k: ElementSet,
    blocks: list[int],
    c: int,
    chosen: list[int],
    pick: int,
    chooser: _Chooser,
) -> AlgoTrace:
    """Starting from the candidate mask c, append pick to chosen, remove its
    block from the candidates, and let the chooser pick again until no
    candidate is left."""
    chain = [c]
    while True:
        chosen.append(pick)
        c &= ~blocks[pick]
        chain.append(c)
        if c == 0:
            break
        pick = chooser.pick(h.group, c)
    return AlgoTrace(algorithm, h, k, chosen, chain, chooser.policy.describe())


def _search(
    algorithm: str,
    h: ElementSet,
    k: ElementSet,
    g0: int | None,
    chooser: _Chooser,
) -> AlgoTrace:
    seed, blocks = _seed_and_blocks(h, k, algorithm == "MSFA")
    g = h.group
    if g0 is None:
        g0 = chooser.pick(g, seed)
    elif seed >> g._check_index(g0) & 1 == 0:
        raise G0NotInMid(f"g0={g.names[g0]!r} lies outside the middle director")
    return _run_chain(algorithm, h, k, blocks, seed, [], g0, chooser)


def rta(h: ElementSet, g0: int | None = None, policy: ChoicePolicy = SMALLEST) -> AlgoTrace:
    """Right-transversal search for a subgroup H: the K = {1} case."""
    return _search("RTA", h, h.group.trivial_subgroup(), g0, policy.start())


def mta(
    h: ElementSet, k: ElementSet, g0: int | None = None, policy: ChoicePolicy = SMALLEST
) -> AlgoTrace:
    """Middle-transversal search for a subgroup pair (H, K)."""
    return _search("MTA", h, k, g0, policy.start())


def msfa(
    h: ElementSet,
    k: ElementSet,
    g0: int | None = None,
    policy: ChoicePolicy | _Chooser = SMALLEST,
) -> AlgoTrace:
    """Maximal-direct-middle search, seeded with the middle director.  A
    started policy (policy.start()) as policy keeps its picks going, so
    that an extension passed the same one continues them."""
    return _search("MSFA", h, k, g0, policy.start())


def extend_to_middle_transversal(
    trace: AlgoTrace, policy: ChoicePolicy | _Chooser = SMALLEST
) -> AlgoTrace:
    """Continue a finished msfa run, over its own H and K, until X covers
    the whole group.

    Returns the input trace unchanged when it already covers G.  The result
    is a middle transversal containing the msfa output; the added picks lie
    outside the middle director, so directness is given up.  A started
    policy continues from the picks it has already made.
    """
    if trace.algorithm != "MSFA":
        raise TraceMismatch(f"expected an MSFA trace, got {trace.algorithm}")
    trace.validate()
    return _extend(trace, policy.start())


def _extend(trace: AlgoTrace, chooser: _Chooser) -> AlgoTrace:
    """extend_to_middle_transversal for an msfa trace known to be valid."""
    g, h, k = trace.group, trace.h, trace.k
    blocks = _coset_blocks(h, k)
    uncovered = g.full_mask
    for pick in trace.chosen:
        uncovered &= ~blocks[pick]
    if uncovered == 0:
        return trace
    pick = chooser.pick(g, uncovered)
    return _run_chain("Extension", h, k, blocks, uncovered, list(trace.chosen), pick, chooser)


# -- exhaustive enumeration ---------------------------------------------------


def _enumerate(seed_mask: int, blocks: list[int], limit: int | None) -> list[int]:
    """The mask of every output of the chain search started on seed_mask,
    each once.

    A pick removes its whole block, so the outputs are exactly the sets
    that take one element from each cell (a block cut down to the seed):
    the Cartesian product of the cells.  One walk over the cells counts
    that product and checks it against the cap before any mask is built;
    the size-1 cells are ORed into one base mask.  The larger cells are
    split into two halves: the first half multiplies out from the base and
    the second from 0, each cell multiplying the half's list of partial
    masks by its elements, and the answers are every left mask ORed with
    every right one.  That is the list a one-cell-at-a-time product gives,
    in its order, with one OR per answer instead of one per answer and
    cell.  Every mask lies inside the seed, so no range check is needed.
    """
    cap = config.enum_cap(limit)
    base = 0
    cells: list[int] = []
    total = 1
    c = seed_mask
    while c:
        cell = c & blocks[(c & -c).bit_length() - 1]
        c &= ~cell
        if cell & (cell - 1):
            cells.append(cell)
            total *= cell.bit_count()
        else:
            base |= cell
    if total > cap:
        raise EnumerationLimitExceeded(
            f"{total} results exceed the cap of {cap}; raise the limit to continue"
        )
    half = len(cells) // 2
    left = _products(base, cells[:half])
    right = _products(0, cells[half:])
    return [m | b for m in left for b in right]


def _products(base: int, cells: list[int]) -> list[int]:
    """base ORed with one element of each cell, every way, first cell
    slowest."""
    out = [base]
    for cell in cells:
        bits = [1 << i for i in bit_indices(cell)]
        out = [m | b for m in out for b in bits]
    return out


def _right_transversal_masks(h: ElementSet, *, limit: int | None = None) -> list[int]:
    """enumerate_all_right_transversals as masks, each once."""
    return _middle_transversal_masks(h, h.group.trivial_subgroup(), limit=limit)


def _middle_transversal_masks(
    h: ElementSet, k: ElementSet, *, limit: int | None = None
) -> list[int]:
    """enumerate_all_middle_transversals as masks, each once."""
    return _enumerate(*_seed_and_blocks(h, k, False), limit)


def _middle_subfactor_masks(
    h: ElementSet, k: ElementSet, *, limit: int | None = None
) -> list[int]:
    """enumerate_all_middle_subfactors as masks, each once."""
    return _enumerate(*_seed_and_blocks(h, k, True), limit)


def _element_sets(g: Group, masks: list[int]) -> set[ElementSet]:
    return {ElementSet._from_mask(g, m) for m in masks}


def enumerate_all_right_transversals(
    h: ElementSet,
    *,
    limit: int | None = None,
) -> set[ElementSet]:
    """Every right transversal of H: the middle transversals of (H, {1}).
    Built as masks by _right_transversal_masks, then wrapped."""
    return _element_sets(h.group, _right_transversal_masks(h, limit=limit))


def enumerate_all_middle_transversals(
    h: ElementSet,
    k: ElementSet,
    *,
    limit: int | None = None,
) -> set[ElementSet]:
    """Every middle transversal of (H, K).  Built as masks by
    _middle_transversal_masks, then wrapped."""
    return _element_sets(h.group, _middle_transversal_masks(h, k, limit=limit))


def enumerate_all_middle_subfactors(
    h: ElementSet,
    k: ElementSet,
    *,
    limit: int | None = None,
) -> set[ElementSet]:
    """Every maximal direct middle X for (H, K); raises MidEmpty when none
    exist.  Built as masks by _middle_subfactor_masks, then wrapped."""
    return _element_sets(h.group, _middle_subfactor_masks(h, k, limit=limit))
